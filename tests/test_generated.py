"""Invariants on generated inputs: 2-step nilpotent structures built so that
d^2 = 0 holds by construction, checked against facts that hold for every
such algebra: the flags, Poincaré duality, the Bott-Chern/Aeppli symmetries
and the Frölicher and Angella-Tomassini inequalities."""

import pytest

from liecohom.cohomology import (
    aeppli_cohomology,
    bc_cohomology,
    de_rham_cohomology,
    dolbeault_cohomology,
)
from liecohom.exterior import Form, basis
from liecohom.scalars import HALF, I, ONE, Scalar
from liecohom.structure import StructureEquations, render_structure

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

COEFFS = [ONE, -ONE, I, -I, HALF, Scalar(2), Scalar(1, 1)]


@st.composite
def two_step_nilpotent(draw):
    """f_1..f_r are closed and every other d f_k lies in the span of the
    (2,0)- and (1,1)-wedges of f_1..f_r and their conjugates, so d(d f_k) = 0.
    A non-integrable draw (n = 3, r = 2) adds a nonzero F1^F2 term to d f3."""
    integrable = draw(st.booleans())
    n = draw(st.sampled_from([2, 3])) if integrable else 3
    r = draw(st.integers(1, n - 1)) if integrable else 2
    mons = [
        m for m in basis(n, 2, 0) + basis(n, 1, 1) if max(m.holo + m.anti) <= r
    ]
    dgen = [Form.zero(n)] * r + [
        Form(n, draw(st.dictionaries(st.sampled_from(mons), st.sampled_from(COEFFS), max_size=3)))
        for _ in range(r, n)
    ]
    if not integrable:
        dgen[-1] = dgen[-1] + Form.monomial(n, [], [1, 2], draw(st.sampled_from(COEFFS)))
    return StructureEquations(n, dgen, name="two-step"), integrable


def test_generated_two_step_nilpotent_invariants():
    kinds = set()

    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(two_step_nilpotent())
    def check(drawn):
        s, integrable = drawn
        n = s.n
        where = render_structure(s)
        kinds.add(integrable)
        assert s.flags.integrable == integrable, where
        assert s.flags.nilpotent and s.flags.unimodular, where
        b = [de_rham_cohomology(s, k).dim for k in range(2 * n + 1)]
        assert b == b[::-1], where  # Poincare duality
        if not integrable:
            return
        cells = [(p, q) for p in range(n + 1) for q in range(n + 1)]
        bc = {c: bc_cohomology(s, *c).dim for c in cells}
        a = {c: aeppli_cohomology(s, *c).dim for c in cells}
        dolbeault = {c: dolbeault_cohomology(s, *c).dim for c in cells}
        for p, q in cells:
            assert bc[p, q] == bc[q, p] == a[n - p, n - q], (where, p, q)
        for k in range(2 * n + 1):
            degree_k = [(p, k - p) for p in range(n + 1) if 0 <= k - p <= n]
            assert sum(dolbeault[c] for c in degree_k) >= b[k], (where, k)  # Frolicher
            # Angella-Tomassini
            assert sum(bc[c] + a[c] for c in degree_k) >= 2 * b[k], (where, k)

    check()
    assert kinds == {True, False}


def test_generated_del_and_delbar_match_per_bidegree_projections():
    from test_structure import assert_split_matches_projections

    from liecohom.errors import IntegrabilityError

    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(two_step_nilpotent(), st.randoms(use_true_random=False))
    def check(drawn, rng):
        s, integrable = drawn
        if integrable:
            assert_split_matches_projections(s, rng, draws=2)
            return
        for split in (s.del_, s.delbar):
            with pytest.raises(IntegrabilityError):
                split(Form.monomial(s.n, [1], []))

    check()
