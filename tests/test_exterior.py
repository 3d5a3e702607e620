import random
from fractions import Fraction

import pytest

from liecohom import corpus
from liecohom.cohomology import bc_cohomology, row_to_form, vector_to_form
from liecohom.errors import DimensionMismatch
from liecohom.exterior import BasisMonomial, Form, basis, basis_index, total_basis
from liecohom.scalars import HALF, I, ONE, ZERO, Scalar


def mono(n, h, a, c=ONE):
    return Form.monomial(n, h, a, c)


def random_form(n, p, q, rng, terms=3):
    mons = basis(n, p, q)
    out = {}
    for _ in range(min(terms, len(mons))):
        m = mons[rng.randrange(len(mons))]
        out[m] = Scalar(
            Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
            Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
        )
    return Form(n, out)


def random_pure(n, rng, max_degree):
    while True:
        p, q = rng.randint(0, n), rng.randint(0, n)
        if p + q <= max_degree:
            return random_form(n, p, q, rng)


# -- basis enumeration ------------------------------------------------------


def test_basis_10():
    assert basis(3, 1, 0) == (
        BasisMonomial((1,), ()),
        BasisMonomial((2,), ()),
        BasisMonomial((3,), ()),
    )


def test_basis_count():
    assert len(basis(3, 2, 2)) == 9


def test_basis_order_holomorphic_major():
    assert basis(2, 1, 1) == (
        BasisMonomial((1,), (1,)),
        BasisMonomial((1,), (2,)),
        BasisMonomial((2,), (1,)),
        BasisMonomial((2,), (2,)),
    )


def test_basis_is_one_shared_tuple_and_still_rejects_out_of_range():
    assert isinstance(basis(3, 2, 1), tuple)
    assert basis(3, 2, 1) is basis(3, 2, 1)
    for _ in range(2):  # a failed call is not remembered
        with pytest.raises(ValueError):
            basis(3, 4, 0)


def test_basis_index_is_shared_and_complements_reverse_the_basis():
    for n in range(1, 6):
        full = set(range(1, n + 1))
        for p in range(n + 1):
            for q in range(n + 1):
                mons = basis(n, p, q)
                index = basis_index(n, p, q)
                assert index is basis_index(n, p, q)
                assert [index[m] for m in mons] == list(range(len(mons)))
                # the Hodge star and the Gram compounds rely on this order
                dual = basis(n, n - p, n - q)
                for i, m in enumerate(mons):
                    c = dual[len(mons) - 1 - i]
                    assert set(m.holo) | set(c.holo) == full == set(m.anti) | set(c.anti)
                    assert not set(m.holo) & set(c.holo) and not set(m.anti) & set(c.anti)


def test_total_basis_partition():
    n = 3
    assert sum(len(total_basis(n, k)) for k in range(2 * n + 1)) == 4**n


# -- wedge -------------------------------------------------------------------


def test_wedge_disjoint_ascending():
    assert mono(3, [1], []).wedge(mono(3, [2], [])) == mono(3, [1, 2], [])


def test_wedge_transposition_sign():
    assert mono(3, [2], []).wedge(mono(3, [1], [])) == mono(3, [1, 2], [], -ONE)


def test_wedge_duplicate_annihilates():
    assert mono(3, [1], []).wedge(mono(3, [1], [2])).is_zero()


def test_wedge_published_omega_squared():
    # standard metric on the 3-sphere product: gamma^2 in the interleaved
    # monomial convention equals -1/2 (psi^{1 1b 2 2b} + psi^{1 1b 3 3b} + psi^{2 2b 3 3b})
    n = 3
    gamma = Form(
        n,
        {
            BasisMonomial((1,), (1,)): Scalar(0, Fraction(1, 2)),
            BasisMonomial((2,), (2,)): Scalar(0, Fraction(1, 2)),
            BasisMonomial((3,), (3,)): Scalar(0, Fraction(1, 2)),
        },
    )
    def interleaved(j, k):
        return mono(n, [j], [j]).wedge(mono(n, [k], [k]))
    expected = (
        interleaved(1, 2) + interleaved(1, 3) + interleaved(2, 3)
    ).scale(-HALF)
    assert gamma.wedge(gamma) == expected


def test_wedge_anticommutativity_random():
    rng = random.Random(42)
    n = 3
    for _ in range(50):
        a = random_pure(n, rng, 2 * n)
        b = random_pure(n, rng, 2 * n)
        da = sum(a.pure_bidegree() or (0, 0))
        db = sum(b.pure_bidegree() or (0, 0))
        lhs = a.wedge(b)
        rhs = b.wedge(a)
        if (da * db) % 2:
            rhs = -rhs
        assert lhs == rhs


def test_wedge_associativity_and_distributivity_random():
    rng = random.Random(43)
    n = 3
    for _ in range(25):
        a, b, c = (random_pure(n, rng, 3) for _ in range(3))
        assert a.wedge(b).wedge(c) == a.wedge(b.wedge(c))
        assert a.wedge(b + c) == a.wedge(b) + a.wedge(c)
        z = Scalar(Fraction(2, 3), Fraction(-1, 2))
        assert a.scale(z).wedge(b) == a.wedge(b).scale(z)


def test_top_degree_cap():
    n = 2
    top = mono(n, [1, 2], [1, 2])
    assert top.wedge(mono(n, [1], [])).is_zero()
    assert not top.is_zero()


# -- conjugation ---------------------------------------------------------------


def test_conjugate_generator():
    assert mono(3, [1], []).conjugate() == mono(3, [], [1])


def test_conjugate_mixed_monomial():
    # conj(i f1^F2) = -i conj(f1)^conj(F2) = -i F1^f2 = i f2^F1
    assert mono(3, [1], [2], I).conjugate() == mono(3, [2], [1], I)


def test_conjugate_involution_random():
    rng = random.Random(44)
    for _ in range(30):
        a = random_pure(3, rng, 6)
        assert a.conjugate().conjugate() == a


def test_conjugate_of_wedge_random():
    rng = random.Random(45)
    for _ in range(30):
        a = random_pure(3, rng, 3)
        b = random_pure(3, rng, 3)
        assert a.wedge(b).conjugate() == a.conjugate().wedge(b.conjugate())


def test_fundamental_form_is_real():
    n = 3
    omega = Form(
        n,
        {BasisMonomial((j,), (j,)): Scalar(0, Fraction(1, 2)) for j in range(1, n + 1)},
    )
    assert omega.conjugate() == omega


# -- projection -----------------------------------------------------------------


def test_project_examples():
    a = mono(3, [1, 2], []) + mono(3, [1], [2])
    assert a.project(2, 0) == mono(3, [1, 2], [])
    assert a.project(1, 1) == mono(3, [1], [2])
    assert mono(3, [1, 2], []).project(1, 1).is_zero()


def test_project_reassembles():
    rng = random.Random(46)
    n = 2
    a = random_form(n, 1, 0, rng) + random_form(n, 1, 1, rng) + random_form(n, 0, 2, rng)
    total = Form.zero(n)
    for p in range(n + 1):
        for q in range(n + 1):
            total = total + a.project(p, q)
    assert total == a


def test_kodaira_bidegree_split():
    # d f1 = -1/2 f1^f2 + 1/2 f1^F2 has (1,1)-part 1/2 f1^F2
    df1 = mono(2, [1, 2], [], -HALF) + mono(2, [1], [2], HALF)
    assert df1.project(1, 1) == mono(2, [1], [2], HALF)


# -- representation invariants -----------------------------------------------------


def test_canonicalization_idempotent():
    a = mono(3, [1], [2], I) + mono(3, [2], [1])
    b = Form(3, dict(a.terms))
    assert a == b and a.terms == b.terms


def test_zero_coefficients_dropped():
    a = Form(3, {BasisMonomial((1,), ()): Scalar(0)})
    assert a.is_zero() and not a.terms


def test_monomial_validation():
    with pytest.raises(ValueError):
        Form(2, {BasisMonomial((2, 1), ()): ONE})
    with pytest.raises(ValueError):
        Form(2, {BasisMonomial((3,), ()): ONE})


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        mono(2, [1], []).wedge(mono(3, [1], []))
    with pytest.raises(DimensionMismatch):
        mono(2, [1], []) + mono(3, [1], [])


# -- storage: trusted results keep the stored-term invariant ------------------------


def assert_stored_terms_clean(form):
    """Every stored key is a BasisMonomial and every coefficient a nonzero
    Scalar, as the trusted constructor takes its dict without checking."""
    for m, c in form.terms.items():
        assert type(m) is BasisMonomial and type(c) is Scalar and c, (m, c)


def test_results_store_only_nonzero_scalars_under_basis_monomials():
    rng = random.Random(23)
    n = 3
    results = []
    for _ in range(40):
        a, b = random_pure(n, rng, 4), random_pure(n, rng, 4)
        odd = random_form(n, 1, 0, rng) + random_form(n, 0, 1, rng)
        results += [a.wedge(b), odd.wedge(odd), a + b, (a + b) - b, a - a, a + (-a)]
        results += [a.scale(0), a.scale(I), (a + b).conjugate()]
        results += [(a + b).project(p, q) for p in range(n + 1) for q in range(n + 1)]
        results += list((a + b + odd).components().values())
    for name in corpus.names():
        s = corpus.get(name).load().structure
        results += [
            s._d_monomial(m) for k in range(2 * s.n + 1) for m in total_basis(s.n, k)
        ]
        if s.flags.integrable:
            results += bc_cohomology(s, 1, 1).representatives
    mons = basis(n, 1, 1)
    results.append(row_to_form(n, {0: ONE, 4: I, 8: -HALF}, mons))
    results.append(vector_to_form(n, tuple(ONE if j % 3 else ZERO for j in range(9)), mons))
    assert any(r.is_zero() for r in results) and any(len(r.terms) > 2 for r in results)
    for r in results:
        assert_stored_terms_clean(r)
