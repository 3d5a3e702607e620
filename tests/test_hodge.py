import random
from fractions import Fraction

import pytest

from liecohom import corpus
from liecohom.cohomology import _OP_SHIFT, _clip, _matrix_for, _single_matrix
from liecohom.errors import MetricError
from liecohom.exterior import BasisMonomial, Form, basis, monomial_wedge
from liecohom.hodge import HermitianMetric, _det, _invert, random_positive_metric
from liecohom.linalg import Matrix
from liecohom.scalars import HALF, I, ONE, ZERO, Scalar
from liecohom.structure import parse_structure

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


def reference_gram(h, p, q):
    """Two determinants per entry: holomorphic minor times conjugate minor."""
    g1 = h._gram_generators()
    g1bar = [[x.conjugate() for x in row] for row in g1]

    def minor(g, rows, cols):
        return _det([[g[x - 1][y - 1] for y in cols] for x in rows])

    mons = basis(h.n, p, q)
    return Matrix(
        [
            [minor(g1, a.holo, b.holo) * minor(g1bar, a.anti, b.anti) for b in mons]
            for a in mons
        ],
        ncols=len(mons),
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
    return Matrix(_invert(w), ncols=len(dst)) @ h.gram(p, q).scale(vol_coeff)


def reference_adjoint_matrix(name, s, h, p, q):
    """One Form round trip (star, del or delbar, star) per basis column."""
    form_op = h.del_adjoint if name == "del_adj" else h.delbar_adjoint
    dp, dq = _OP_SHIFT[name]
    n = s.n
    return _matrix_for(
        lambda m: form_op(Form(n, {m: ONE}, _validated=True), s),
        n, _clip(n, p, q), _clip(n, p + dp, q + dq),
    )


def assert_tables_match_references(s, seed):
    n = s.n
    rng = random.Random(seed)
    # the random metrics have non-real entries, so a dropped conjugation shows
    metrics = [HermitianMetric.identity(n)]
    metrics += [random_positive_metric(n, rng) for _ in range(3)]
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


# -- random metric generator ----------------------------------------------------------------


def test_random_metric_positive_and_deterministic():
    a = random_positive_metric(3, random.Random(31))
    b = random_positive_metric(3, random.Random(31))
    assert a == b
    assert a.is_positive()
    ok, minors = a.positivity()
    assert all(m > 0 for m in minors)
