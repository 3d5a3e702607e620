import random
from fractions import Fraction
from itertools import combinations
from math import factorial, gcd, lcm

import pytest

from liecohom import corpus
from liecohom.analysis import aeppli_class_vanishes
from liecohom.cohomology import (
    _OP_SHIFT,
    _THEORIES,
    _clip,
    _matrix_for,
    _single_matrix,
    chain_matrix,
    operator_matrix,
)
from liecohom.errors import MetricError, PreconditionError
from liecohom.exterior import BasisMonomial, Form, basis, basis_index, monomial_wedge
from liecohom.hodge import (
    HermitianMetric,
    _det,
    _minor_table,
    _minors_positive,
    _star_layout,
    random_positive_metric,
)
from liecohom.linalg import Matrix
from liecohom.scalars import HALF, I, ONE, ZERO, Scalar
from liecohom.structure import parse_structure
from test_cohomology import _change_coframe, _ladder, _non_real_metric

SL2C = "algebra sl2c\ndim 3\nd f1 = f2^f3\nd f2 = -1*f1^f3\nd f3 = f1^f2\n"
KODAIRA = (
    "algebra kodaira-secondary\ndim 2\n"
    "d f1 = -1/2*f1^f2 + 1/2*f1^F2\nd f2 = 1/2i*f1^F1\n"
)
SKT = "algebra skt\ndim 3\nd f3 = F2^f2 + 1i*f1^F1\n"
AFFINE = "algebra affine\ndim 1\nd f1 = f1^F1\n"


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


# -- positivity ------------------------------------------------------------------


def test_identity_positivity_certificate():
    ok, minors = HermitianMetric.identity(3).positivity()
    assert ok and minors == [1, 1, 1]


def test_parameter_metric_positivity():
    h = HermitianMetric.from_form_parameters(3, [1, 1, 1])
    assert h.is_positive()


def test_off_diagonal_failure():
    h = HermitianMetric([[1, 2], [2, 1]])
    ok, minors = h.positivity()
    assert not ok and minors == [1, -3]


def test_non_hermitian_rejected():
    with pytest.raises(MetricError):
        HermitianMetric([[1, I], [I, 1]])


def test_metric_hash_is_the_entries_hash():
    h = random_positive_metric(3, random.Random(5))
    same = HermitianMetric([list(row) for row in h.entries])
    assert hash(h) == hash(h.entries)
    assert same == h and hash(same) == hash(h)
    assert HermitianMetric.from_form_parameters(2, [1, 1]) == HermitianMetric.identity(2)
    assert hash(HermitianMetric.from_form_parameters(2, [1, 1])) == hash(
        HermitianMetric.identity(2)
    )


def test_parameter_map_matches_surface_positivity():
    # 2w = i(A^2 f1F1 + C^2 f2F2) + B f1F2 - conj(B) f2F1 is positive
    # exactly when A^2 > 0 and A^2 C^2 - |B|^2 > 0
    b = Scalar(1, 1)
    h = HermitianMetric.from_form_parameters(2, [1, 3], {(1, 2): b})
    ok, minors = h.positivity()
    assert ok and minors == [1, 3 - 2]
    h2 = HermitianMetric.from_form_parameters(2, [1, 1], {(1, 2): Scalar(2)})
    assert not h2.is_positive()


def _hermitian_sample(n, rng, kind):
    """A seeded Hermitian matrix of Scalars: random small entries, then a
    zero first pivot (kind 1), a boosted diagonal, mostly positive
    (kind 2), or a singular sum of fewer than n rank-one terms v v* (kind 3)."""
    if kind == 3:
        vectors = [
            [Scalar(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(n)]
            for _ in range(rng.randint(1, max(1, n - 1)))
        ]
        return [
            [sum((v[j] * v[k].conjugate() for v in vectors), ZERO) for k in range(n)]
            for j in range(n)
        ]
    rows = [[ZERO] * n for _ in range(n)]
    for j in range(n):
        rows[j][j] = Scalar(Fraction(rng.randint(-2, 4) + (6 if kind == 2 else 0), rng.randint(1, 2)))
        for k in range(j + 1, n):
            z = Scalar(
                Fraction(rng.randint(-2, 2), rng.randint(1, 3)),
                Fraction(rng.randint(-2, 2), rng.randint(1, 3)),
            )
            rows[j][k], rows[k][j] = z, z.conjugate()
    if kind == 1:
        rows[0][0] = ZERO
    return rows


def test_positivity_reads_every_leading_minor_off_one_elimination():
    # the one-pass minors, and the early-exit test the random draw uses,
    # against one _det elimination per leading block
    rng = random.Random(20261019)
    seen = set()
    for case in range(1200):
        n, kind = case % 5 + 1, case // 5 % 4
        rows = _hermitian_sample(n, rng, kind)
        want = [_det([row[:k] for row in rows[:k]]) for k in range(1, n + 1)]
        assert all(m.is_real() for m in want)
        want = [m.re for m in want]
        verdict = all(m > 0 for m in want)
        h = HermitianMetric(rows)
        assert h.positivity() == (verdict, want)
        assert _minors_positive(rows) == verdict
        seen.add("positive" if verdict else "zero" if 0 in want else "indefinite")
        seen.add(f"zero pivot at {want.index(0) + 1}" if 0 in want else "no zero pivot")
    assert {"positive", "indefinite", "zero", "zero pivot at 1", "zero pivot at 2"} <= seen


def test_random_positive_metric_checks_the_accepted_draw(monkeypatch):
    # a candidate the early-exit test accepts must pass positivity() too
    monkeypatch.setattr("liecohom.hodge._minors_positive", lambda rows: True)
    with pytest.raises(RuntimeError, match="engine defect"):
        for seed in range(20):
            random_positive_metric(3, random.Random(seed))


# -- fundamental form and volume --------------------------------------------------


def test_fundamental_form_identity():
    h = HermitianMetric.identity(3)
    expected = sum(
        (mono(3, [j], [j], Scalar(0, Fraction(1, 2))) for j in (2, 3)),
        mono(3, [1], [1], Scalar(0, Fraction(1, 2))),
    )
    assert h.fundamental_form() == expected


def test_fundamental_form_real_random():
    rng = random.Random(21)
    for n in (2, 3):
        for _ in range(5):
            h = random_positive_metric(n, rng)
            omega = h.fundamental_form()
            assert omega.conjugate() == omega


def test_volume_n2_identity():
    # expand ((i/2)(f1F1 + f2F2))^2 / 2 by hand: (1/4) f1^f2^F1^F2
    h = HermitianMetric.identity(2)
    assert h.volume_form() == mono(2, [1, 2], [1, 2], Scalar(Fraction(1, 4)))


def test_volume_unit_norm_random():
    rng = random.Random(22)
    for n in (2, 3):
        for _ in range(4):
            h = random_positive_metric(n, rng)
            vol = h.volume_form()
            assert h.inner(vol, vol) == ONE


# -- inner products ------------------------------------------------------------------


def test_generator_normalization():
    h = HermitianMetric.identity(3)
    assert h.inner(mono(3, [1], []), mono(3, [1], [])) == Scalar(2)
    assert h.inner(mono(3, [1], []), mono(3, [2], [])) == Scalar(0)


def test_pairing_omega_squared_negative():
    # <omega^2, psi^{2 2b 3 3b}> = -8 for the standard product-sphere metric
    h = HermitianMetric.identity(3)
    psi = mono(3, [2], [2]).wedge(mono(3, [3], [3]))
    assert h.pairing(h.omega_power(2), psi) == Scalar(-8)


def test_hermitian_symmetry_random():
    rng = random.Random(23)
    h = random_positive_metric(3, rng)
    for _ in range(15):
        p, q = rng.randint(0, 3), rng.randint(0, 3)
        a = random_form(3, p, q, rng)
        b = random_form(3, p, q, rng)
        assert h.inner(a, b) == h.inner(b, a).conjugate()


def test_positive_definite_random():
    rng = random.Random(24)
    h = random_positive_metric(2, rng)
    for _ in range(20):
        a = random_form(2, rng.randint(0, 2), rng.randint(0, 2), rng)
        if a.is_zero():
            continue
        value = h.inner(a, a)
        assert value.is_real() and value.re > 0


# -- the Hodge star ---------------------------------------------------------------------


def test_star_of_one_is_volume():
    for n in (1, 2, 3):
        h = HermitianMetric.identity(n)
        assert h.star(Form.one(n)) == h.volume_form()


def test_star_kodaira_published_value():
    h = HermitianMetric.identity(2)
    assert h.star(mono(2, [1], [1])) == -mono(2, [2], [2])


def test_star_sl2c_lefschetz_image():
    # ground truth fixed by an independent real-coordinate computation:
    # *(omega^2 ^ f1) = 2i F1 for the identity metric in dimension 3
    h = HermitianMetric.identity(3)
    lhs = h.star(h.omega_power(2).wedge(mono(3, [1], [])))
    assert lhs == mono(3, [], [1], Scalar(0, 2))


def test_star_defining_relation_exhaustive_n2():
    rng = random.Random(25)
    for h in (HermitianMetric.identity(2), random_positive_metric(2, rng)):
        vol = h.volume_form()
        for p in range(3):
            for q in range(3):
                mons = basis(2, p, q)
                for ma in mons:
                    for mb in mons:
                        alpha = Form(2, {ma: ONE})
                        beta = Form(2, {mb: ONE})
                        assert alpha.wedge(h.star(beta)) == vol.scale(
                            h.inner(alpha, beta)
                        )


def test_star_conjugate_linear():
    rng = random.Random(26)
    h = random_positive_metric(2, rng)
    a = random_form(2, 1, 1, rng)
    z = Scalar(Fraction(2, 3), Fraction(-1, 2))
    assert h.star(a.scale(z)) == h.star(a).scale(z.conjugate())


def test_star_star_sign_rule():
    # the empirically-exact rule: ** = (-1)^(p+q) on pure (p,q)-forms
    rng = random.Random(27)
    for n in (2, 3):
        h = random_positive_metric(n, rng)
        for p in range(n + 1):
            for q in range(n + 1):
                for m in basis(n, p, q):
                    a = Form(n, {m: ONE})
                    sign = -ONE if (p + q) % 2 else ONE
                    assert h.star(h.star(a)) == a.scale(sign)


def test_star_isometry():
    rng = random.Random(28)
    h = random_positive_metric(2, rng)
    for _ in range(10):
        p, q = rng.randint(0, 2), rng.randint(0, 2)
        a = random_form(2, p, q, rng)
        b = random_form(2, p, q, rng)
        assert h.inner(h.star(a), h.star(b)) == h.inner(b, a)


# -- adjoints -----------------------------------------------------------------------------


def test_adjoint_of_constants_vanishes():
    s = parse_structure(SL2C)
    h = HermitianMetric.identity(3)
    assert h.del_adjoint(Form.one(3), s).is_zero()
    assert h.delbar_adjoint(Form.one(3), s).is_zero()


def test_adjoints_kill_lefschetz_of_closed_form():
    # f1 is d-closed on the pluriclosed nilmanifold family
    s = parse_structure(SKT)
    h = HermitianMetric.identity(3)
    target = h.omega_power(2).wedge(mono(3, [1], []))
    assert h.del_adjoint(target, s).is_zero()
    assert h.delbar_adjoint(target, s).is_zero()


def test_adjointness_on_unimodular_algebras():
    rng = random.Random(29)
    for text in (SL2C, KODAIRA, SKT):
        s = parse_structure(text)
        h = HermitianMetric.identity(s.n)
        for _ in range(10):
            p = rng.randint(0, s.n - 1)
            q = rng.randint(0, s.n)
            a = random_form(s.n, p, q, rng)
            b = random_form(s.n, p + 1, q, rng)
            assert h.pairing(s.del_(a), b) == h.pairing(a, h.del_adjoint(b, s))


def test_adjointness_fails_without_unimodularity():
    # the refusal of harmonic theory on non-unimodular algebras is not
    # bureaucratic: integration by parts genuinely breaks there
    s = parse_structure(AFFINE)
    h = HermitianMetric.identity(1)
    a = Form.one(1)
    b = mono(1, [1], [])
    assert h.pairing(s.del_(a), b) != h.pairing(a, h.del_adjoint(b, s))


# -- Lefschetz ---------------------------------------------------------------------------


def test_lefschetz_power_zero_is_identity():
    h = HermitianMetric.identity(3)
    a = mono(3, [1], [2])
    assert h.lefschetz(a, 0) == a


def test_lefschetz_injective_on_generators():
    h = HermitianMetric.identity(3)
    for j in (1, 2, 3):
        assert not h.lefschetz(mono(3, [j], []), 2).is_zero()


# -- matrix constructions against their reference routes ---------------------------


def invert(rows):
    """Gauss-Jordan inverse in plain Scalar arithmetic (None if singular)."""
    k = len(rows)
    aug = [list(row) + [ONE if i == j else ZERO for j in range(k)] for i, row in enumerate(rows)]
    for c in range(k):
        pivot = next((r for r in range(c, k) if aug[r][c]), None)
        if pivot is None:
            return None
        aug[c], aug[pivot] = aug[pivot], aug[c]
        inv = ONE / aug[c][c]
        aug[c] = [x * inv for x in aug[c]]
        for r in range(k):
            if r != c and aug[r][c]:
                f = aug[r][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    return [row[k:] for row in aug]


def reference_gram(h, p, q):
    """Two determinants per entry: holomorphic minor times conjugate minor."""
    inv = invert(h.entries)
    n = h.n
    # the Gram matrix of f_1..f_n: <f_j, f_k> = 2 (h^-1)[k][j]
    g1 = [[Scalar(2) * inv[k][j] for k in range(n)] for j in range(n)]
    g1bar = [[x.conjugate() for x in row] for row in g1]

    def minor(g, rows, cols):
        return _det([[g[x - 1][y - 1] for y in cols] for x in rows])

    mons = basis(h.n, p, q)
    return Matrix.sparse(
        [
            {
                j: x
                for j, b in enumerate(mons)
                if (x := minor(g1, a.holo, b.holo) * minor(g1bar, a.anti, b.anti))
            }
            for a in mons
        ],
        len(mons),
    )


def reference_star_matrix(h, p, q):
    """Solve W @ S = vol_coeff * Gram, W[a][c] f_top = m_a ^ m'_c (Gram as
    checked against ``reference_gram`` first)."""
    n = h.n
    full = tuple(range(1, n + 1))
    top = BasisMonomial(full, full)
    dst = basis(n, n - p, n - q)
    w = []
    for ma in basis(n, p, q):
        row = []
        for mc in dst:
            hit = monomial_wedge(ma, mc)
            row.append(Scalar(hit[0]) if hit and hit[1] == top else ZERO)
        w.append(row)
    vol_coeff = h.volume_form().terms[top]
    scaled = [{j: y for j, x in enumerate(row) if (y := vol_coeff * x)} for row in invert(w)]
    return Matrix.sparse(scaled, len(dst)) @ h.gram(p, q)


def reference_adjoint_matrix(name, s, h, p, q):
    """One Form round trip (star, del or delbar, star) per basis column."""
    form_op = h.del_adjoint if name == "del_adj" else h.delbar_adjoint
    dp, dq = _OP_SHIFT[name]
    n = s.n
    return _matrix_for(
        lambda m: form_op(Form(n, {m: ONE}, _validated=True), s),
        n, _clip(n, p, q), _clip(n, p + dp, q + dq),
    )


def assert_tables_match_references(s, seed, count=3):
    n = s.n
    rng = random.Random(seed)
    # the random metrics have non-real entries, so a dropped conjugation shows
    metrics = [HermitianMetric.identity(n)]
    metrics += [random_positive_metric(n, rng) for _ in range(count)]
    for h in metrics:
        for p in range(n + 1):
            for q in range(n + 1):
                assert h.gram(p, q) == reference_gram(h, p, q)
                assert h._star_matrix(p, q) == reference_star_matrix(h, p, q)
                for name in ("del_adj", "delbar_adj"):
                    got = _single_matrix(name, s, p, q, h)
                    assert got == reference_adjoint_matrix(name, s, h, p, q)


@pytest.mark.parametrize("name", corpus.names())
def test_hermitian_tables_match_reference_routes_on_corpus(name):
    assert_tables_match_references(corpus.get(name).load().structure, seed=41)


def test_hermitian_tables_match_reference_routes_without_unimodularity():
    assert_tables_match_references(parse_structure(AFFINE), seed=42)


def test_hermitian_tables_match_reference_routes_on_the_n4_ladder():
    # the benchmark's metric-sweep structure d f4 = f1^f2, where the adjoint
    # products are largest: the identity and one seeded non-real metric
    s = parse_structure("algebra heisenberg-4\ndim 4\nd f4 = f1^f2\n")
    h = random_positive_metric(4, random.Random(47))
    assert not all(x.is_real() for row in h.entries for x in row)
    assert_tables_match_references(s, seed=47, count=1)


def test_hermitian_tables_match_reference_routes_on_a_dense_coframe():
    # in the coframe of _change_coframe every d g_i is dense, so del and
    # delbar have many nonzero rows at which the adjoints read the star back;
    # a row subset in any order is the same rows of the reference
    s = _change_coframe(corpus.get("iwasawa").load().structure, 20261018)
    h = random_positive_metric(3, random.Random(49))
    assert not all(x.is_real() for row in h.entries for x in row)
    assert_tables_match_references(s, seed=49, count=1)
    rng = random.Random(49)
    subsets = 0
    for p in range(4):
        for q in range(4):
            for name in ("del_adj", "delbar_adj"):
                dp, dq = _OP_SHIFT[name]
                target = _clip(3, p + dp, q + dq)
                op = _single_matrix(name[: -len("_adj")], s, 3 - p, 3 - q, None)
                if len(target) < 2 or op.is_zero():
                    continue
                want = reference_adjoint_matrix(name, s, h, p, q)
                rows = rng.sample(range(len(target)), rng.randint(2, len(target)))
                fresh = HermitianMetric(h.entries)
                got = fresh.adjoint_matrix(op, (p, q), (p + dp, q + dq), rows)
                assert list(got.rows) == [want.rows[i] for i in rows], (name, p, q, rows)
                subsets += rows != sorted(rows)
    assert subsets > 0


def test_adjoint_matrices_need_no_matrix_product_or_star_matrix(monkeypatch):
    # the adjoints are composed from the star numerators in integers: on a
    # fresh n = 4 metric no Matrix product and no star matrix is built
    s = parse_structure("algebra heisenberg-4\ndim 4\nd f4 = f1^f2\n")
    h = random_positive_metric(4, random.Random(48))
    calls = []
    matmul, star_matrix = Matrix.__matmul__, HermitianMetric._star_matrix

    def counting_matmul(a, b):
        calls.append("matmul")
        return matmul(a, b)

    def counting_star_matrix(self, p, q):
        calls.append("star matrix")
        return star_matrix(self, p, q)

    monkeypatch.setattr(Matrix, "__matmul__", counting_matmul)
    monkeypatch.setattr(HermitianMetric, "_star_matrix", counting_star_matrix)
    built = 0
    for p in range(5):
        for q in range(5):
            for name in ("del_adj", "delbar_adj"):
                built += not _single_matrix(name, s, p, q, h).is_zero()
    assert calls == [] and built > 0


LADDER_4 = "algebra heisenberg-4\ndim 4\nd f4 = f1^f2\n"


def test_adjoints_completed_after_a_chain_equal_fresh_ones():
    # a chain builds del_adj on a few rows only; full requests afterwards
    # complete it, and must give the matrices of a fresh build
    s = parse_structure(LADDER_4)
    h = random_positive_metric(4, random.Random(50))
    chain_matrix(["deldelbar", "delbar_adj", "del_adj"], s, 2, 2, h)
    assert any(not isinstance(m, Matrix) for m in s._op_matrix_cache.values())
    fresh_s, fresh_h = parse_structure(LADDER_4), HermitianMetric(h.entries)
    for p in range(5):
        for q in range(5):
            for name in ("del_adj", "delbar_adj"):
                got = operator_matrix(name, s, p, q, h)
                assert got == operator_matrix(name, fresh_s, p, q, fresh_h)
    assert all(isinstance(m, Matrix) for m in s._op_matrix_cache.values())


def test_a_chain_reads_the_star_blocks_on_some_rows_and_shares_their_layout():
    # del_adj, delbar_adj, then deldelbar out of (3,3): delbar_adj out of
    # (2,3) reads the (2,2) star block, the star back, only at the rows of
    # delbar's nonzeros, straight from the compounds, and the star of (2,3)
    # on some rows only; a second metric reuses the layout of the star
    # blocks instead of recomputing its wedge signs
    s = parse_structure(LADDER_4)
    rng = random.Random(55)
    first, second = random_positive_metric(4, rng), random_positive_metric(4, rng)
    chain = ["deldelbar", "delbar_adj", "del_adj"]
    chain_matrix(chain, s, 3, 3, first)
    assert sum(r is not None for r in first._star_rows.get((2, 2), ())) < 36
    block = first._star_rows[2, 3]
    assert len(block) == 24 and 0 < sum(r is not None for r in block) < 24
    hits = _star_layout.cache_info().hits
    chain_matrix(chain, s, 3, 3, second)
    assert _star_layout.cache_info().hits > hits


def test_chains_build_each_adjoint_row_at_most_once_and_not_all(monkeypatch):
    # the terms of the Aeppli Laplacian at (2,2), which share adjoints
    s = parse_structure(LADDER_4)
    h = random_positive_metric(4, random.Random(51))
    built = []
    adjoint_matrix = HermitianMetric.adjoint_matrix

    def counting(self, op, source, target, rows=None):
        out = adjoint_matrix(self, op, source, target, rows)
        every = range(len(basis(4, *target)))
        built.extend((source, target, i) for i in (every if rows is None else rows))
        return out

    monkeypatch.setattr(HermitianMetric, "adjoint_matrix", counting)
    for ops in _THEORIES["a"]["laplacian"]:
        chain_matrix(ops, s, 2, 2, h)
    assert len(built) == len(set(built))
    # the full matrices of the adjoints built hold more rows
    full = sum(len(basis(4, *target)) for _, target in {(a, b) for a, b, _ in built})
    assert 0 < len(built) < full


def reference_kernel_rows(h, m, p, q):
    """Per nonzero row M_k of m: the Scalar row M_k @ S, S the (p, q) star
    matrix, conjugated, cleared of denominators and divided by the positive
    gcd of its integer parts."""
    star = h._star_matrix(p, q)
    out = []
    for row in m.rows:
        if row:
            image = (Matrix.sparse([row], m.ncols) @ star).rows[0]
            parts = {j: (x.re, -x.im) for j, x in image.items()}
            den = lcm(*(f.denominator for pair in parts.values() for f in pair))
            ints = {j: (int(a * den), int(b * den)) for j, (a, b) in parts.items()}
            g = gcd(*(x for pair in ints.values() for x in pair))
            out.append({j: Scalar(Fraction(a, g), Fraction(b, g)) for j, (a, b) in ints.items()})
    return out


@pytest.mark.parametrize("name", corpus.names() + ["ladder-3", "ladder-4"])
def test_adjoint_kernel_rows_are_the_primitive_rows_of_m_times_the_star(name):
    # the rows themselves, not only their common kernel: each one read off
    # the Scalar star matrix, for del, delbar and del delbar at every
    # bidegree, under the identity and two seeded non-real metrics
    if name.startswith("ladder-"):
        s = _ladder(int(name[-1]))
    else:
        s = corpus.get(name).load().structure
    n = s.n
    rng = random.Random(f"kernel-rows:{name}")
    compared = 0
    for h in (HermitianMetric.identity(n), _non_real_metric(n, rng), _non_real_metric(n, rng)):
        for p in range(n + 1):
            for q in range(n + 1):
                for op in ("del", "delbar", "deldelbar"):
                    m = _single_matrix(op, s, n - p, n - q, None)
                    want = reference_kernel_rows(h, m, p, q)
                    assert h.adjoint_kernel_rows(m, (p, q)) == want, (op, p, q)
                    compared += len(want)
    assert compared > 0


def test_star_matrices_build_no_gram_table():
    # the star is assembled from the compounds; the Gram tables are for the
    # tests' reference routes
    for n in (2, 3):
        h = random_positive_metric(n, random.Random(43 + n))
        for p in range(n + 1):
            for q in range(n + 1):
                h._star_matrix(p, q)
        # one complete block of star numerators per bidegree
        assert len(h._star_rows) == (n + 1) ** 2
        assert all(None not in block for block in h._star_rows.values())
        assert h._gram_cache == {}


def reference_star(h, a):
    """The star through ``reference_star_matrix``: the conjugated coordinates
    of each (p,q)-component times that matrix, summed over components."""
    n = h.n
    out = Form.zero(n)
    for (p, q), comp in a.components().items():
        idx = basis_index(n, p, q)
        coords = {idx[m]: c.conjugate() for m, c in comp.terms.items()}
        image = reference_star_matrix(h, p, q).apply(coords)
        dst = basis(n, n - p, n - q)
        out = out + Form(n, {dst[j]: c for j, c in image.items()})
    return out


def mixed_form(n, rng):
    """A form over two or more random bidegrees whose coefficients within
    each bidegree have unequal denominators."""
    bidegrees = [(p, q) for p in range(n + 1) for q in range(n + 1)]
    terms = {}
    for p, q in rng.sample(bidegrees, rng.randint(2, len(bidegrees))):
        mons = basis(n, p, q)
        for k, m in enumerate(rng.sample(mons, min(3, len(mons)))):
            re = Fraction(rng.randint(1, 5), k + 1)
            terms[m] = Scalar(re, Fraction(rng.randint(-3, 3), 2 * k + 3))
    return Form(n, terms)


def test_star_matches_the_reference_star_matrices():
    # the star of mixed-bidegree forms, summed from the integer numerators,
    # equals the reference matrices applied component by component; on a
    # non-positive metric it still raises
    rng = random.Random(52)
    for n in (2, 3, 4):
        metrics = [HermitianMetric.identity(n)]
        while len(metrics) < 4:
            h = random_positive_metric(n, rng)
            if not all(x.is_real() for row in h.entries for x in row):
                metrics.append(h)
        for h in metrics:
            assert h.star(Form.zero(n)) == Form.zero(n) == reference_star(h, Form.zero(n))
            for _ in range(3):
                a = mixed_form(n, rng)
                assert len(a.bidegrees()) > 1
                assert h.star(a) == reference_star(h, a)
    with pytest.raises(MetricError):
        HermitianMetric([[ONE, ZERO], [ZERO, -ONE]]).star(mono(2, [1], [2]))


def test_star_conjugates_only_the_terms_of_its_argument(monkeypatch):
    # once the (2,2) numerators are built, the star of a (2,2)-form is
    # summed in integers: no conjugation, no Scalar product, no star matrix
    h = random_positive_metric(4, random.Random(44))
    c = Scalar(Fraction(2, 3), -1)
    a = mono(4, (1, 3), (2, 4), c) + mono(4, (2, 3), (1, 4), Scalar(Fraction(1, 5), 2))
    expected = reference_star(h, a)
    assert len(expected.terms) > 1
    h._star_numerators(2, 2)
    calls = []

    def counting(name, method):
        def wrapper(*args):
            calls.append(name)
            return method(*args)

        return wrapper

    for cls, name in [
        (Scalar, "conjugate"),
        (Scalar, "__mul__"),
        (Scalar, "__rmul__"),
        (Matrix, "apply"),
        (HermitianMetric, "_star_matrix"),
    ]:
        monkeypatch.setattr(cls, name, counting(name, getattr(cls, name)))
    assert h.star(a) == expected
    assert calls == []


# -- the minor table and the closed forms read off it ----------------------------


def _gaussian(rng):
    return Scalar(
        Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
        Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
    )


def _oracle_matrices():
    """Seeded n x n Gaussian-rational matrices, n = 1..5: non-Hermitian,
    Hermitian positive, and singular (a row a multiple of another)."""
    rng = random.Random(51)
    for n in range(1, 6):
        for _ in range(2):
            yield [[_gaussian(rng) for _ in range(n)] for _ in range(n)]
        yield [list(row) for row in random_positive_metric(n, rng).entries]
        rows = [[_gaussian(rng) for _ in range(n)] for _ in range(n)]
        z = _gaussian(rng)
        rows[-1] = [z * x for x in rows[0]] if n > 1 else [ZERO]
        yield rows


def test_minor_table_matches_elimination_and_sympy():
    pytest.importorskip("sympy")
    from sympy.polys.domains import QQ, QQ_I
    from sympy.polys.matrices import DomainMatrix

    def to_sympy(z):
        return QQ_I(QQ(z.re.numerator, z.re.denominator), QQ(z.im.numerator, z.im.denominator))

    seen_singular = False
    for rows in _oracle_matrices():
        n = len(rows)
        den, table = _minor_table(rows)
        for k in range(n + 1):
            subsets = list(combinations(range(n), k))
            assert len(table[k]) == len(subsets)
            for rset, row in zip(subsets, table[k]):
                assert len(row) == len(subsets)
                for cset, (a, b) in zip(subsets, row):
                    got = Scalar(Fraction(a, den**k), Fraction(b, den**k))
                    sub = [[rows[i][j] for j in cset] for i in rset]
                    assert got == _det(sub)
                    theirs = DomainMatrix([[to_sympy(x) for x in r] for r in sub], (k, k), QQ_I)
                    assert to_sympy(got) == theirs.det()
        seen_singular |= table[n][0][0] == (0, 0)
    assert seen_singular


def test_minor_table_is_checked_against_the_leading_minors():
    h = random_positive_metric(3, random.Random(53))
    ok, minors = h.positivity()
    h._minors = minors[:-1] + [minors[-1] + 1]  # a corrupted elimination
    with pytest.raises(RuntimeError, match="engine defect"):
        h.omega_power(2)


def test_omega_powers_match_the_wedge_chain(monkeypatch):
    rng = random.Random(52)
    cases = []
    for n in range(1, 6):
        metrics = [HermitianMetric.identity(n)] + [random_positive_metric(n, rng) for _ in range(3)]
        for h in metrics:
            chain = [Form.one(n)]
            for _ in range(n + 1):  # the old route: omega^k = omega^(k-1) ^ omega
                chain.append(chain[-1].wedge(h.fundamental_form()))
            cases.append((HermitianMetric([list(row) for row in h.entries]), chain))
    # the powers are read off the minors: no wedge at all
    monkeypatch.setattr(Form, "wedge", None)
    for h, chain in cases:
        for k, expected in enumerate(chain):
            assert h.omega_power(k) == expected
        assert h.omega_power(h.n + 1).is_zero()
        with pytest.raises(ValueError):
            h.omega_power(-1)


def test_volume_is_the_top_power_over_n_factorial():
    rng = random.Random(54)
    for n in range(1, 6):
        h = random_positive_metric(n, rng)
        top = HermitianMetric([list(row) for row in h.entries]).omega_power(n)
        assert h.volume_form() == top.scale(Fraction(1, factorial(n)))


def test_gram_of_a_singular_matrix_raises():
    h = HermitianMetric([[1, 0], [0, 0]])
    with pytest.raises(MetricError, match="matrix is singular"):
        h.gram(1, 0)


@pytest.mark.parametrize(
    "rows", [[[1, 0], [0, -1]], [[1, Scalar(2, 1)], [Scalar(2, -1), 1]]], ids=["real", "complex"]
)
def test_gram_of_an_indefinite_matrix(rows):
    # det h < 0, so the common denominator of the Gram entries must be
    # taken positive; <f_j, f_k> = 2 (h^-1)[k][j] = 2 conj(h^-1)[j][k]
    h = HermitianMetric(rows)
    assert not h.is_positive() and h.positivity()[1][-1] < 0
    inv = invert(h.entries)
    expected = [{j: Scalar(2) * x.conjugate() for j, x in enumerate(row) if x} for row in inv]
    assert h.gram(1, 0) == Matrix.sparse(expected, 2)
    for p in range(3):
        for q in range(3):
            assert h.gram(p, q) == reference_gram(h, p, q)


def gram_inner(h, a, b):
    """sum a_I conj(b_J) gram(p, q)[I][J] over the bidegrees of a and b."""
    n = h.n
    total = ZERO
    comps_b = b.components()
    for (p, q), ca in a.components().items():
        gram = h.gram(p, q)
        idx = basis_index(n, p, q)
        for ma, x in ca.terms.items():
            for mb, y in comps_b.get((p, q), Form.zero(n)).terms.items():
                total = total + x * y.conjugate() * gram.rows[idx[ma]].get(idx[mb], ZERO)
    return total


def _random_mixed_form(n, rng):
    """Up to five terms of random bidegrees over small unlike denominators."""
    terms = {}
    for _ in range(rng.randint(0, 5)):
        m = rng.choice(basis(n, rng.randint(0, n), rng.randint(0, n)))
        terms[m] = Scalar(Fraction(rng.randint(-5, 5), rng.randint(1, 6)), rng.randint(-3, 3))
    return Form(n, terms)


def test_inner_reads_the_gram_entries_off_the_compounds():
    rng = random.Random(57)
    cases = 0
    for n in range(1, 5):
        metrics = [HermitianMetric.identity(n)] + [random_positive_metric(n, rng) for _ in range(3)]
        if n == 2:  # det h < 0: the Gram denominators are taken positive
            metrics.append(HermitianMetric([[1, 0], [0, -1]]))
            metrics.append(HermitianMetric([[1, Scalar(2, 1)], [Scalar(2, -1), 1]]))
        for h in metrics:
            for _ in range(70):
                a, b = _random_mixed_form(n, rng), _random_mixed_form(n, rng)
                assert h.inner(a, b) == gram_inner(h, a, b)
                cases += 1
    assert cases >= 1000


def test_pairing_builds_no_gram_table():
    # the Aeppli obstruction pairs omega^(n-p) with harmonic forms
    s = parse_structure(LADDER_4)
    h = random_positive_metric(4, random.Random(58))
    rng = random.Random(59)
    for _ in range(20):
        assert h.pairing(_random_mixed_form(4, rng), _random_mixed_form(4, rng)) is not None
    obstructions = 0
    for p in (1, 2, 3):
        try:
            obstructions += aeppli_class_vanishes(s, h, p).obstruction is not None
        except PreconditionError:
            pass  # del delbar omega^(4-p) != 0
    assert obstructions
    assert h._gram_cache == {}


# -- random metric generator ----------------------------------------------------------------


def test_random_metric_positive_and_deterministic():
    a = random_positive_metric(3, random.Random(31))
    b = random_positive_metric(3, random.Random(31))
    assert a == b
    assert a.is_positive()
    ok, minors = a.positivity()
    assert all(m > 0 for m in minors)
