import random
from fractions import Fraction

import pytest

from liecohom.analysis import (
    aeppli_class_vanishes,
    classify_metric,
    closed_p0_forms,
    closed_p0_space,
    generate_skt_family,
    salamon_h10_check,
    skt_condition,
    verify_vanishing_theorem,
)
from liecohom.cohomology import (
    bc_laplacian_matrix,
    decompose_aeppli,
    decompose_bc,
    harmonic_projection,
    harmonic_space,
    operator_matrix,
)
from liecohom.errors import PreconditionError
from liecohom.exterior import Form, basis
from liecohom.hodge import HermitianMetric, random_positive_metric
from liecohom.scalars import I, ONE, Scalar
from liecohom.structure import parse_structure

SL2C = "algebra sl2c\ndim 3\nd f1 = f2^f3\nd f2 = -1*f1^f3\nd f3 = f1^f2\n"
CALABI_ECKMANN = (
    "algebra calabi-eckmann\ndim 3\n"
    "d f1 = 1i*f1^f3 + 1i*f1^F3\nd f2 = f2^f3 - f2^F3\n"
    "d f3 = (0-1i)*f1^F1 + f2^F2\n"
)
KODAIRA = (
    "algebra kodaira-secondary\ndim 2\n"
    "d f1 = -1/2*f1^f2 + 1/2*f1^F2\nd f2 = 1/2i*f1^F1\n"
)
IWASAWA = "algebra iwasawa\ndim 3\nd f3 = f1^f2\n"


def mono(n, h, a, c=ONE):
    return Form.monomial(n, h, a, c)


# -- metric classification -------------------------------------------------------


def test_classify_sl2c_identity():
    s = parse_structure(SL2C)
    mc = classify_metric(s, HermitianMetric.identity(3))
    assert mc.balanced and mc.gauduchon
    assert not mc.kaehler and not mc.skt


def test_classify_skt_family_member():
    s = generate_skt_family(0, 1, I, 0, 0)
    mc = classify_metric(s, HermitianMetric.identity(3))
    assert mc.skt and mc.gauduchon
    assert not mc.kaehler


def test_classify_flat_torus():
    s = parse_structure("algebra torus\ndim 2\n")
    mc = classify_metric(s, HermitianMetric.identity(2))
    assert mc.kaehler and mc.balanced and mc.gauduchon and mc.skt


def test_implication_chain_on_random_metrics():
    rng = random.Random(61)
    for text in (SL2C, CALABI_ECKMANN, KODAIRA, IWASAWA):
        s = parse_structure(text)
        for _ in range(5):
            mc = classify_metric(s, random_positive_metric(s.n, rng))
            if mc.kaehler:
                assert mc.balanced and mc.skt
            if mc.balanced:
                assert mc.gauduchon


# -- Aeppli class decisions ---------------------------------------------------------


def test_sl2c_class_vanishes_with_witness():
    s = parse_structure(SL2C)
    h = HermitianMetric.identity(3)
    decision = aeppli_class_vanishes(s, h, 1)
    assert decision.vanishes
    assert s.del_(decision.mu) + s.delbar(decision.lam) == h.omega_power(2)
    assert decision.mu.pure_bidegree() == (1, 2)
    assert decision.lam.is_zero() or decision.lam.pure_bidegree() == (2, 1)


def test_calabi_eckmann_obstruction_certificate():
    s = parse_structure(CALABI_ECKMANN)
    h = HermitianMetric.identity(3)
    decision = aeppli_class_vanishes(s, h, 1)
    assert not decision.vanishes
    assert decision.obstruction is not None
    assert h.pairing(h.omega_power(2), decision.obstruction) == decision.pairing
    assert decision.pairing != Scalar(0)


def test_kodaira_class_never_vanishes():
    s = parse_structure(KODAIRA)
    rng = random.Random(62)
    for _ in range(5):
        h = random_positive_metric(2, rng)
        decision = aeppli_class_vanishes(s, h, 1)
        assert not decision.vanishes


def test_undefined_class_rejected():
    # del delbar omega != 0 on sl2c, so [omega]_A does not exist (p = n-1)
    s = parse_structure(SL2C)
    h = HermitianMetric.identity(3)
    with pytest.raises(PreconditionError):
        aeppli_class_vanishes(s, h, 2)


def test_p_range_validated():
    s = parse_structure(SL2C)
    h = HermitianMetric.identity(3)
    with pytest.raises(PreconditionError):
        aeppli_class_vanishes(s, h, 0)
    with pytest.raises(PreconditionError):
        aeppli_class_vanishes(s, h, 3)
    # never a vacuous "hypothesis undefined" verdict for a p out of range
    for p in (-1, 0, 3, 4):
        with pytest.raises(PreconditionError, match=r"p must be in 1\.\.2"):
            verify_vanishing_theorem(s, h, p)


@pytest.mark.parametrize(
    "call",
    [
        lambda s, h: classify_metric(s, h),
        lambda s, h: aeppli_class_vanishes(s, h, 1),
        lambda s, h: verify_vanishing_theorem(s, h, 1),
        lambda s, h: harmonic_space("bc", s, h, 1, 1),
        lambda s, h: harmonic_space("a", s, h, 1, 1),
        lambda s, h: harmonic_projection("bc", s, h, mono(s.n, [1], [1])),
        lambda s, h: decompose_bc(s, h, mono(s.n, [1], [1])),
        lambda s, h: decompose_aeppli(s, h, mono(s.n, [1], [1])),
        lambda s, h: operator_matrix("del_adj", s, 1, 1, h),
        lambda s, h: bc_laplacian_matrix(s, h, 1, 1),
    ],
    ids=[
        "classify_metric", "aeppli_class_vanishes", "verify_vanishing_theorem",
        "harmonic_space-bc", "harmonic_space-a", "harmonic_projection",
        "decompose_bc", "decompose_aeppli", "operator_matrix-del_adj",
        "bc_laplacian_matrix",
    ],
)
def test_metric_of_the_wrong_size_is_refused(call):
    # an n=2 metric on the n=3 algebra sl2c: a precondition failure, never a
    # shape error and never a vacuous "hypothesis undefined" verdict
    s = parse_structure(SL2C)
    with pytest.raises(PreconditionError, match="metric and structure sizes differ"):
        call(s, HermitianMetric.identity(2))


# -- the vanishing implication --------------------------------------------------------


def test_vanishing_check_sl2c():
    s = parse_structure(SL2C)
    check = verify_vanishing_theorem(s, HermitianMetric.identity(3), 1)
    assert check.status == "CONSISTENT"
    assert check.hypothesis_vanishes and check.closed_p0_dim == 0


def test_vanishing_check_vacuous_case_notes_sufficiency():
    s = parse_structure(CALABI_ECKMANN)
    check = verify_vanishing_theorem(s, HermitianMetric.identity(3), 1)
    assert check.status == "CONSISTENT"
    assert not check.hypothesis_vanishes and check.closed_p0_dim == 0
    assert "sufficient" in check.note


def test_vanishing_check_undefined_hypothesis():
    s = parse_structure(SL2C)
    check = verify_vanishing_theorem(s, HermitianMetric.identity(3), 2)
    assert check.status == "CONSISTENT" and not check.hypothesis_defined


def test_vanishing_consistency_randomized_metrics():
    rng = random.Random(63)
    for text in (SL2C, CALABI_ECKMANN, KODAIRA, IWASAWA):
        s = parse_structure(text)
        for _ in range(5):
            h = random_positive_metric(s.n, rng)
            for p in range(1, s.n):
                assert verify_vanishing_theorem(s, h, p).status == "CONSISTENT"


# -- closed (p,0)-forms -----------------------------------------------------------------


def test_closed_p0_sl2c():
    s = parse_structure(SL2C)
    assert closed_p0_space(s, 1).dim == 0
    assert closed_p0_space(s, 0).dim == 1
    # every invariant (2,0)-form is closed here
    assert closed_p0_space(s, 2).dim == 3


def test_closed_p0_space_makes_one_elimination(monkeypatch):
    # the kernel comes out canonical, so nothing re-reduces it
    from liecohom import linalg

    calls = []
    rref = linalg.rref
    monkeypatch.setattr(linalg, "rref", lambda m: calls.append(m.shape) or rref(m))
    s = parse_structure(IWASAWA)
    for p, dim in ((0, 1), (1, 2), (2, 3), (3, 1)):
        calls.clear()
        assert closed_p0_space(s, p).dim == dim
        assert len(calls) == 1


def test_closed_p0_space_is_built_once_per_structure_and_p(monkeypatch):
    from liecohom import linalg
    from liecohom.linalg import Subspace

    s, fresh = parse_structure(IWASAWA), parse_structure(IWASAWA)
    calls = []
    rref = linalg.rref
    monkeypatch.setattr(linalg, "rref", lambda m: calls.append(m.shape) or rref(m))
    first = closed_p0_space(s, 1)
    assert len(calls) == 1
    assert closed_p0_space(s, 1) is first
    assert len(calls) == 1
    # a freshly parsed structure computes its own
    assert closed_p0_space(fresh, 1) == first
    assert len(calls) == 2
    # kept apart from the operator matrices
    assert not any(isinstance(v, Subspace) for v in s._op_matrix_cache.values())


def test_closed_p0_skt_family():
    s = generate_skt_family(0, 1, I, 0, 0)
    forms = closed_p0_forms(s, 1)
    assert forms == [mono(3, [1], []), mono(3, [2], [])]


# -- the nilpotent closed-direction check -------------------------------------------------


def test_salamon_iwasawa():
    s = parse_structure(IWASAWA)
    report = salamon_h10_check(s, [HermitianMetric.identity(3)])
    assert report.closed_10_dim == 2
    assert all(c["consistent"] for c in report.metric_checks)


def test_salamon_computes_the_closed_space_once(monkeypatch):
    from liecohom import analysis

    calls = []
    space = analysis.closed_p0_space
    monkeypatch.setattr(
        analysis, "closed_p0_space", lambda s, p: calls.append(p) or space(s, p)
    )
    report = salamon_h10_check(parse_structure(IWASAWA), [HermitianMetric.identity(3)])
    assert report.closed_10_dim == 2
    assert calls == [1]


def test_salamon_refuses_non_nilpotent():
    s = parse_structure(SL2C)
    with pytest.raises(PreconditionError):
        salamon_h10_check(s)


def test_salamon_gauduchon_metrics_keep_class():
    s = generate_skt_family(0, 1, I, 0, 0)
    rng = random.Random(64)
    metrics = [random_positive_metric(3, rng) for _ in range(5)]
    report = salamon_h10_check(s, metrics)
    for entry in report.metric_checks:
        if entry["gauduchon"]:
            assert entry["aeppli_vanishes"] is False


# -- the pluriclosed family ----------------------------------------------------------------


def test_skt_condition_examples():
    assert skt_condition(0, 1, I, 0, 0)
    assert not skt_condition(1, 0, 0, 0, 0)
    assert skt_condition(0, 0, 0, 0, 0)


def test_skt_condition_matches_engine_spot():
    h = HermitianMetric.identity(3)
    s_true = generate_skt_family(0, 1, I, 0, 0)
    assert s_true.del_delbar(h.fundamental_form()).is_zero()
    s_false = generate_skt_family(1, 0, 0, 0, 0)
    assert not s_false.del_delbar(h.fundamental_form()).is_zero()


def test_skt_family_structure():
    s = generate_skt_family(1, 2, I, Scalar(0, -1), Fraction(1, 2))
    assert s.flags.nilpotent and s.flags.integrable and s.flags.unimodular
    assert s.dgen[0].is_zero() and s.dgen[1].is_zero()
    # the A-coefficient lands on f2^F1 with a flipped sign (F1^f2 reordered)
    assert s.dgen[2].coefficient([2], [1]) == -ONE
