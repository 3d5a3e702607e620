import random
from fractions import Fraction

import pytest

from liecohom import corpus
from liecohom.cohomology import (
    _clip,
    _matrix_for,
    _single_matrix,
    aeppli_cohomology,
    bc_cohomology,
    d_matrix_total,
    de_rham_cohomology,
    decompose_aeppli,
    decompose_bc,
    dolbeault_cohomology,
    form_to_row,
    full_report,
    harmonic_forms,
    harmonic_projection,
    harmonic_space,
    operator_matrix,
)
from liecohom.errors import IntegrabilityError, PreconditionError
from liecohom.exterior import Form, basis, total_basis
from liecohom.hodge import HermitianMetric, random_positive_metric
from liecohom.scalars import I, ONE, Scalar
from liecohom.structure import StructureEquations, parse_structure

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
AFFINE = "algebra affine\ndim 1\nd f1 = f1^F1\n"


def mono(n, h, a, c=ONE):
    return Form.monomial(n, h, a, c)


# -- operator matrices ---------------------------------------------------------


def test_delbar_vanishes_on_holomorphic_coframe():
    s = parse_structure(SL2C)
    m = operator_matrix("delbar", s, 1, 0)
    assert m.matrix.is_zero()
    assert m.target == (1, 1)


def test_deldelbar_on_functions_is_zero():
    for text in (SL2C, CALABI_ECKMANN, KODAIRA):
        s = parse_structure(text)
        assert operator_matrix("deldelbar", s, 0, 0).matrix.is_zero()


def test_d_matrix_rank_on_one_forms():
    s = parse_structure(SL2C)
    from liecohom.linalg import rank

    m = operator_matrix("d", s, 1, 0)
    assert rank(m.matrix) == 3


def test_matrix_composition_is_zero_for_del_squared():
    s = parse_structure(CALABI_ECKMANN)
    a = operator_matrix("del", s, 2, 1).matrix
    b = operator_matrix("del", s, 1, 1).matrix
    assert (a @ b).is_zero()


def _reference_structures():
    out = [corpus.get(name).load().structure for name in corpus.names()]
    return out + [parse_structure(AFFINE)]


def form_route(op, n):
    """The image of one basis monomial under a Form-level operator."""
    return lambda m: op(Form(n, {m: ONE}, _validated=True))


def test_deldelbar_entry_matches_form_route():
    # the cached product del . delbar against del_delbar applied to each
    # basis form, including the empty out-of-range bidegrees
    for s in _reference_structures():
        n = s.n
        for p in range(-1, n + 2):
            for q in range(-1, n + 2):
                want = _matrix_for(
                    form_route(s.del_delbar, n), n, _clip(n, p, q), _clip(n, p + 1, q + 1)
                )
                assert _single_matrix("deldelbar", s, p, q, None) == want, (s.name, p, q)
                assert operator_matrix("deldelbar", s, p, q).matrix == want


def test_del_and_delbar_entries_match_form_route():
    # the row blocks of the cached d against del_/delbar applied to each
    # basis form, including the empty out-of-range bidegrees; without
    # integrability both routes refuse a nonempty source space alike
    nonint = parse_structure("algebra nonint\ndim 3\nd f1 = F2^F3\n")
    for s in _reference_structures() + [nonint]:
        n = s.n
        for name, op in (("del", s.del_), ("delbar", s.delbar)):
            dp, dq = (1, 0) if name == "del" else (0, 1)
            for p in range(-1, n + 2):
                for q in range(-1, n + 2):
                    src, dst = _clip(n, p, q), _clip(n, p + dp, q + dq)
                    if src and not s.flags.integrable:
                        for build in (
                            lambda: _single_matrix(name, s, p, q, None),
                            lambda: _matrix_for(form_route(op, n), n, src, dst),
                        ):
                            with pytest.raises(IntegrabilityError):
                                build()
                        continue
                    want = _matrix_for(form_route(op, n), n, src, dst)
                    assert _single_matrix(name, s, p, q, None) == want, (s.name, name, p, q)
                    assert operator_matrix(name, s, p, q).matrix == want


def test_cohomology_groups_never_call_the_form_level_differential(monkeypatch):
    # every operator matrix of the four quotient cohomologies is assembled
    # from per-monomial differentials, never through d/del_/delbar on Forms
    s = parse_structure("algebra heisenberg-4\ndim 4\nd f4 = f1^f2\n")
    calls = []
    for name in ("d", "del_", "delbar"):
        def counting(self, a, _name=name, _op=getattr(StructureEquations, name)):
            calls.append(_name)
            return _op(self, a)

        monkeypatch.setattr(StructureEquations, name, counting)
    n = s.n
    for p in range(n + 1):
        for q in range(n + 1):
            for group in (bc_cohomology, aeppli_cohomology, dolbeault_cohomology):
                group(s, p, q)
    for k in range(2 * n + 1):
        de_rham_cohomology(s, k)
    assert calls == []


def test_de_rham_d_matrix_matches_form_route():
    # the (p, q) blocks of d side by side against d applied to each
    # total-degree basis form, also where del and delbar are undefined
    nonint = parse_structure("algebra nonint\ndim 3\nd f1 = F2^F3\n")
    assert not nonint.flags.integrable
    for s in _reference_structures() + [nonint]:
        n = s.n
        for k in range(2 * n + 1):
            want = _matrix_for(form_route(s.d, n), n, total_basis(n, k), total_basis(n, k + 1))
            assert d_matrix_total(s, k) == want, (s.name, k)


def test_bc_and_aeppli_build_each_deldelbar_product_once(monkeypatch):
    # n = 4 ladder: Bott-Chern's image at (p-1, q-1) and Aeppli's kernel at
    # (p, q) share one del delbar product per bidegree, 25 in all
    from liecohom.linalg import Matrix

    s = parse_structure("algebra heisenberg-4\ndim 4\nd f4 = f1^f2\n")
    calls = []
    matmul = Matrix.__matmul__

    def counting_matmul(a, b):
        calls.append((a.shape, b.shape))
        return matmul(a, b)

    monkeypatch.setattr(Matrix, "__matmul__", counting_matmul)
    full_report(s, groups=("bc", "a"))
    assert len(calls) <= 25


def test_laplacian_needs_metric():
    s = parse_structure(SL2C)
    with pytest.raises(PreconditionError):
        operator_matrix("lap_bc", s, 1, 1)


def test_laplacian_self_adjoint_for_pairing():
    # <<L a, b>> = <<a, L b>> translates to G M = M^H G on coordinates
    s = parse_structure(KODAIRA)
    h = HermitianMetric.identity(2)
    for p, q in ((1, 0), (1, 1)):
        m = operator_matrix("lap_bc", s, p, q, h).matrix
        g = h.gram(p, q)
        assert g @ m == m.transpose().conjugate() @ g


# -- quotient groups ------------------------------------------------------------


def test_sl2c_bott_chern_10_vanishes():
    s = parse_structure(SL2C)
    assert bc_cohomology(s, 1, 0).dim == 0


def test_calabi_eckmann_bc_11():
    s = parse_structure(CALABI_ECKMANN)
    g = bc_cohomology(s, 1, 1)
    assert g.dim == 2
    assert g.representatives == [mono(3, [1], [1]), mono(3, [2], [2])]


def test_kodaira_aeppli_11_representative():
    s = parse_structure(KODAIRA)
    g = aeppli_cohomology(s, 1, 1)
    assert g.dim == 1 and g.representatives == [mono(2, [2], [2])]


def test_sl2c_dolbeault_and_derham():
    s = parse_structure(SL2C)
    assert dolbeault_cohomology(s, 1, 0).dim == 3
    assert de_rham_cohomology(s, 0).dim == 1
    assert de_rham_cohomology(s, 1).dim == 0


def test_derham_works_without_integrability():
    s = parse_structure("algebra nonint\ndim 3\nd f1 = F2^F3\n")
    assert de_rham_cohomology(s, 0).dim == 1


def test_bc_p0_equals_closed_space():
    from liecohom.analysis import closed_p0_space

    for text in (SL2C, CALABI_ECKMANN, KODAIRA):
        s = parse_structure(text)
        for p in range(s.n + 1):
            assert bc_cohomology(s, p, 0).dim == closed_p0_space(s, p).dim


# -- harmonic spaces --------------------------------------------------------------


def test_harmonic_constants():
    s = parse_structure(CALABI_ECKMANN)
    h = HermitianMetric.identity(3)
    space = harmonic_space("bc", s, h, 0, 0)
    assert space.dim == 1


def test_calabi_eckmann_harmonic_21():
    s = parse_structure(CALABI_ECKMANN)
    h = HermitianMetric.identity(3)
    space = harmonic_space("bc", s, h, 2, 1)
    assert space.dim == 1
    rep = mono(3, [2, 3], [2]) + mono(3, [1, 3], [1], I)
    assert space.contains(form_to_row(rep, basis(3, 2, 1)))


def test_harmonic_star_duality():
    s = parse_structure(KODAIRA)
    h = HermitianMetric.identity(2)
    for p in range(3):
        for q in range(3):
            hb = harmonic_forms("bc", s, h, p, q)
            dual = harmonic_space("a", s, h, 2 - p, 2 - q)
            assert len(hb) == dual.dim
            for f in hb:
                assert dual.contains(
                    form_to_row(h.star(f), basis(2, 2 - p, 2 - q))
                )


def test_quotient_vs_harmonic_dims():
    s = parse_structure(CALABI_ECKMANN)
    h = HermitianMetric.identity(3)
    for p in range(4):
        for q in range(4):
            assert harmonic_space("bc", s, h, p, q).dim == bc_cohomology(s, p, q).dim
            assert harmonic_space("a", s, h, p, q).dim == aeppli_cohomology(s, p, q).dim


def test_harmonic_refused_on_non_unimodular():
    s = parse_structure(AFFINE)
    h = HermitianMetric.identity(1)
    with pytest.raises(PreconditionError):
        harmonic_space("bc", s, h, 0, 0)


# -- decompositions -----------------------------------------------------------------


def test_decompose_harmonic_input_is_fixed():
    s = parse_structure(KODAIRA)
    h = HermitianMetric.identity(2)
    a = mono(2, [1], [1])  # Bott-Chern harmonic
    dec = decompose_bc(s, h, a)
    assert dec.harmonic == a
    assert dec.second_order.is_zero()
    assert dec.first_a.is_zero()
    assert dec.first_b.is_zero()


def test_decompose_reassembles_and_orthogonality():
    rng = random.Random(51)
    s = parse_structure(KODAIRA)
    h = random_positive_metric(2, rng)
    for kind, decompose in (("bc", decompose_bc), ("a", decompose_aeppli)):
        for _ in range(6):
            p, q = rng.randint(0, 2), rng.randint(0, 2)
            mons = basis(2, p, q)
            terms = {
                mons[rng.randrange(len(mons))]: Scalar(rng.randint(-2, 2), rng.randint(-2, 2))
                for _ in range(2)
            }
            a = Form(2, terms)
            if a.is_zero():
                continue
            dec = decompose(s, h, a)
            assert dec.total() == a
            # the five orthogonality relations guaranteed by adjointness
            # (the two first-order pieces need not be mutually orthogonal)
            pieces = [dec.harmonic, dec.second_order, dec.first_a, dec.first_b]
            for i in range(4):
                for j in range(i + 1, 4):
                    if (i, j) == (2, 3):
                        continue
                    assert h.pairing(pieces[i], pieces[j]) == Scalar(0)


def test_decompose_witnesses_regenerate_components():
    s = parse_structure(KODAIRA)
    h = HermitianMetric.identity(2)
    a = mono(2, [2], [2]) + mono(2, [1], [2], I)
    dec = decompose_bc(s, h, a)
    assert s.del_delbar(dec.witnesses["gamma"]) == dec.second_order
    assert h.del_adjoint(dec.witnesses["alpha"], s) == dec.first_a
    assert h.delbar_adjoint(dec.witnesses["beta"], s) == dec.first_b


def test_aeppli_decomposition_of_omega_pairs_with_class():
    # the harmonic part of omega keeps a nonzero pairing against f2^F2
    s = parse_structure(KODAIRA)
    h = HermitianMetric.from_form_parameters(2, [2, 1], {(1, 2): Scalar(0, 1)})
    assert h.is_positive()
    dec = decompose_aeppli(s, h, h.fundamental_form())
    assert h.pairing(dec.harmonic, mono(2, [2], [2])) != Scalar(0)


def test_harmonic_projection_of_harmonic_form():
    s = parse_structure(KODAIRA)
    h = HermitianMetric.identity(2)
    a = mono(2, [1], [1], Scalar(3, -2))
    assert harmonic_projection("bc", s, h, a) == a


# -- reports ---------------------------------------------------------------------------


def test_full_report_round_trip():
    import json

    from liecohom.cohomology import CohomologyReport

    s = parse_structure(KODAIRA)
    h = HermitianMetric.identity(2)
    report = full_report(s, h)
    data = json.loads(json.dumps(report.to_dict()))
    again = CohomologyReport.from_dict(data)
    assert again == report


def test_report_star_duality_entries():
    s = parse_structure(CALABI_ECKMANN)
    report = full_report(s, groups=("bc", "a"))
    n = 3
    for p in range(n + 1):
        for q in range(n + 1):
            assert (
                report.groups["bc"][(p, q)][0]
                == report.groups["a"][(n - p, n - q)][0]
            )


def test_quotient_containment_failure_names_kind_bidegree_and_witness():
    from liecohom.cohomology import _quotient
    from liecohom.linalg import Matrix

    # numerator {0}, denominator the whole line: the quotient is undefined
    one = Matrix.identity(1)
    with pytest.raises(PreconditionError, match=r"^bc cohomology at \(1,1\): .*witness"):
        _quotient("bc", 1, 1, 1, basis(1, 1, 1), [one], [one])
