import random
from fractions import Fraction
from math import comb

import pytest

from liecohom import cohomology, corpus
from liecohom.cohomology import (
    _OP_SHIFT,
    _THEORIES,
    _clip,
    _harmonic_guard,
    _matrix_for,
    aeppli_cohomology,
    aeppli_laplacian_matrix,
    bc_cohomology,
    bc_laplacian_matrix,
    chain_matrix,
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
from liecohom.errors import IntegrabilityError, LieCohomError, MetricError, PreconditionError
from liecohom.exterior import Form, basis, total_basis
from liecohom.hodge import HermitianMetric, random_positive_metric
from liecohom.linalg import Matrix, Subspace, kernel_basis, vstack
from liecohom.scalars import I, ONE, ZERO, Scalar
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
    assert isinstance(m, Matrix)
    assert m.is_zero()
    assert m.shape == (9, 3)  # the (1,1) basis by the (1,0) basis


def test_deldelbar_on_functions_is_zero():
    for text in (SL2C, CALABI_ECKMANN, KODAIRA):
        s = parse_structure(text)
        assert operator_matrix("deldelbar", s, 0, 0).is_zero()


def test_d_matrix_rank_on_one_forms():
    s = parse_structure(SL2C)
    from liecohom.linalg import rank

    m = operator_matrix("d", s, 1, 0)
    assert rank(m) == 3


def test_matrix_composition_is_zero_for_del_squared():
    s = parse_structure(CALABI_ECKMANN)
    a = operator_matrix("del", s, 2, 1)
    b = operator_matrix("del", s, 1, 1)
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
                assert operator_matrix("deldelbar", s, p, q) == want, (s.name, p, q)


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
                            lambda: operator_matrix(name, s, p, q),
                            lambda: _matrix_for(form_route(op, n), n, src, dst),
                        ):
                            with pytest.raises(IntegrabilityError):
                                build()
                        continue
                    want = _matrix_for(form_route(op, n), n, src, dst)
                    assert operator_matrix(name, s, p, q) == want, (s.name, name, p, q)


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
    builds = []
    matmul = Matrix.__matmul__

    def counting_matmul(a, b):
        # a deldelbar build: a cached del times a cached delbar; other
        # products (the containment checks) do not count
        names = {id(m): key[0] for key, m in s._op_matrix_cache.items()}
        if (names.get(id(a)), names.get(id(b))) == ("del", "delbar"):
            builds.append((a.shape, b.shape))
        return matmul(a, b)

    monkeypatch.setattr(Matrix, "__matmul__", counting_matmul)
    full_report(s, groups=("bc", "a"))
    cached = [key for key in s._op_matrix_cache if key[0] == "deldelbar"]
    assert len(builds) == len(cached) <= 25


def test_laplacian_needs_metric():
    s = parse_structure(SL2C)
    for laplacian in (bc_laplacian_matrix, aeppli_laplacian_matrix):
        with pytest.raises(PreconditionError, match="needs a metric"):
            laplacian(s, None, 1, 1)


def test_laplacian_self_adjoint_for_pairing():
    # <<L a, b>> = <<a, L b>> translates to G M = M^H G on coordinates
    from liecohom.linalg import Matrix

    s = parse_structure(KODAIRA)
    h = HermitianMetric.identity(2)
    for p, q in ((1, 0), (1, 1)):
        m = bc_laplacian_matrix(s, h, p, q)
        g = h.gram(p, q)
        mh = [{j: x.conjugate() for j, x in row.items()} for row in m.transpose().rows]
        assert g @ m == Matrix.sparse(mh, m.nrows) @ g


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


def test_derham_degree_out_of_range_is_refused():
    s = parse_structure(SL2C)
    assert de_rham_cohomology(s, 6).dim == 1
    for k in (-1, 7):
        with pytest.raises(ValueError, match=f"degree {k} out of range for n=3"):
            de_rham_cohomology(s, k)


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


def test_harmonic_bidegree_out_of_range_is_refused():
    s = parse_structure(SL2C)
    h = HermitianMetric.identity(3)
    for p, q in ((-1, 0), (0, -1), (4, 1), (1, 4)):
        with pytest.raises(ValueError, match=rf"bidegree \({p},{q}\) out of range"):
            harmonic_space("bc", s, h, p, q)


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


def test_report_star_duality_entries():
    s = parse_structure(CALABI_ECKMANN)
    report = full_report(s, groups=("bc", "a"))
    n = 3
    for p in range(n + 1):
        for q in range(n + 1):
            assert (
                report.groups["bc"][f"{p},{q}"]["dim"]
                == report.groups["a"][f"{n - p},{n - q}"]["dim"]
            )


def test_quotient_containment_failure_names_kind_bidegree_and_witness():
    from liecohom.cohomology import _quotient
    from liecohom.linalg import Matrix

    # numerator {0}, denominator the whole line: the quotient is undefined
    one = Matrix.sparse([{0: ONE}], 1)
    with pytest.raises(PreconditionError, match=r"^bc cohomology at \(1,1\): .*witness"):
        _quotient("bc", 1, 1, 1, basis(1, 1, 1), [one], [one])


# -- one pass per report cell ---------------------------------------------------------

_GROUPS = (bc_cohomology, aeppli_cohomology, dolbeault_cohomology)


def _ladder(n):
    return parse_structure(f"algebra heisenberg-{n}\ndim {n}\nd f{n} = f1^f2\n")


def _groups_of(s):
    """Every quotient group of s with its basis; the bigraded ones only on
    integrable structures."""
    n = s.n
    for k in range(2 * n + 1):
        yield de_rham_cohomology(s, k), total_basis(n, k)
    if s.flags.integrable:
        for group in _GROUPS:
            for p in range(n + 1):
                for q in range(n + 1):
                    yield group(s, p, q), basis(n, p, q)


def _image_columns(s, kind, p, q):
    """The columns spanning the denominator, read off the operator matrices."""
    if kind == "derham":
        mats = [d_matrix_total(s, p - 1)] if p else []
    elif kind == "bc":
        mats = [operator_matrix("deldelbar", s, p - 1, q - 1)] if p and q else []
    elif kind == "a":
        mats = [operator_matrix("del", s, p - 1, q)] if p else []
        mats += [operator_matrix("delbar", s, p, q - 1)] if q else []
    else:
        mats = [operator_matrix("delbar", s, p, q - 1)] if q else []
    return [row for m in mats for row in m.transpose().rows]


def test_each_quotient_makes_two_eliminations_and_builds_no_subspace(monkeypatch):
    import liecohom.cohomology as cohomology
    import liecohom.linalg as linalg

    structures = [_ladder(4), parse_structure(CALABI_ECKMANN)]
    structures.append(parse_structure("algebra nonint\ndim 3\nd f1 = F2^F3\n"))
    for s in structures:
        list(_groups_of(s))  # the operator matrices, cached
    rrefs, builds, kernels = [], [], []
    rref, init, kernel = linalg.rref, linalg.Subspace.__init__, cohomology.kernel_basis

    def counting_rref(matrix):
        rrefs.append(matrix.shape)
        return rref(matrix)

    def recording_kernel(matrix):
        kernels.append(matrix)
        return kernel(matrix)

    def counting_init(self, *args):
        builds.append(args)
        init(self, *args)

    monkeypatch.setattr(linalg, "rref", counting_rref)
    monkeypatch.setattr(linalg.Subspace, "__init__", counting_init)
    monkeypatch.setattr(cohomology, "kernel_basis", recording_kernel)
    seen = set()
    for s in structures:
        n = s.n
        calls = [(de_rham_cohomology, (k,)) for k in range(2 * n + 1)]
        if s.flags.integrable:
            calls += [
                (group, (p, q))
                for group in _GROUPS
                for p in range(n + 1)
                for q in range(n + 1)
            ]
        for group, args in calls:
            rrefs.clear()
            kernels.clear()
            g = group(s, *args)
            # the kernel, unless each row of the stacked kernel matrix holds
            # at most one entry, and the images' coordinates in its basis,
            # unless every image is zero
            (stacked,) = kernels
            expected = any(len(row) > 1 for row in stacked.rows) + any(g.images)
            assert len(rrefs) == expected, (s.name, group.__name__, args)
            seen.add(expected)
            assert builds == []
            g.denominator
            assert len(builds) == 1
            builds.clear()
    assert seen == {0, 1, 2}


def test_full_report_renders_without_forms(monkeypatch):
    import liecohom.cohomology as cohomology
    import liecohom.structure as structure

    calls = []
    for module, name in ((cohomology, "row_to_form"), (structure, "render_form")):
        def counting(*args, _name=name, _f=getattr(module, name)):
            calls.append(_name)
            return _f(*args)

        monkeypatch.setattr(module, name, counting)
    for s in (_ladder(4), corpus.get("iwasawa").load().structure):
        full_report(s)
    assert calls == []
    # the Forms are there when asked for
    assert bc_cohomology(_ladder(3), 1, 1).representatives
    assert calls


def test_report_cells_match_the_form_route():
    from test_structure import _random_valid_structures

    from liecohom.cohomology import _cell, row_to_form
    from liecohom.linalg import Subspace
    from liecohom.structure import render_form

    structures = [corpus.get(name).load().structure for name in corpus.names()]
    structures += [_ladder(n) for n in (3, 4, 5)]
    structures += _random_valid_structures(60, 11)
    seen = set()
    for s in structures:
        for group, mons in _groups_of(s):
            want = [render_form(row_to_form(s.n, v, mons)) for v in group.rows]
            assert _cell(group) == {"dim": group.dim, "reps": want}, (
                s.name, group.kind, group.p, group.q
            )
            assert [render_form(f) for f in group.representatives] == want
            images = _image_columns(s, group.kind, group.p, group.q)
            assert group.denominator == Subspace(len(mons), images)
            assert group.dim == group.numerator.dim - group.denominator.dim
            for v in group.rows:
                for j, x in v.items():
                    seen.add("degree-0" if not mons[j].degree else None)
                    seen.add("non-real" if x.im else None)
                    seen.add("non-unit" if x not in (ONE, -ONE, I, -I) else None)
    assert {"degree-0", "non-real", "non-unit"} <= seen


def _change_coframe(s, seed):
    """The structure s in the coframe g = A f for a seeded invertible
    Gaussian-rational A, unit lower triangular times unit upper triangular,
    so that every g_i involves every f_j."""
    from liecohom.linalg import Matrix, solve

    n = s.n
    rng = random.Random(seed)

    def entry():
        return Scalar(Fraction(rng.randint(-3, 3), rng.randint(1, 2)), rng.randint(-2, 2))

    lower = [[ONE if i == j else entry() if j < i else ZERO for j in range(n)] for i in range(n)]
    upper = [[ONE if i == j else entry() if j > i else ZERO for j in range(n)] for i in range(n)]
    a = [
        [sum((lower[i][k] * upper[k][j] for k in range(n)), ZERO) for j in range(n)]
        for i in range(n)
    ]
    rows = Matrix.sparse([{j: x for j, x in enumerate(r) if x} for r in a], n)
    # column k of B = A^-1 solves A x = e_k
    b = [solve(rows, {k: ONE}) for k in range(n)]
    # f_j = sum_k B[j][k] g_k, and F_j the conjugate
    holo = [
        sum((mono(n, [k + 1], [], b[k].get(j, ZERO)) for k in range(n)), Form.zero(n))
        for j in range(n)
    ]
    anti = [h.conjugate() for h in holo]

    def substitute(form):
        out = Form.zero(n)
        for m, c in form.terms.items():
            piece = Form.one(n).scale(c)
            for i in m.holo:
                piece = piece.wedge(holo[i - 1])
            for i in m.anti:
                piece = piece.wedge(anti[i - 1])
            out = out + piece
        return out

    dgen = [
        substitute(sum((s.dgen[j].scale(a[i][j]) for j in range(n)), Form.zero(n)))
        for i in range(n)
    ]
    return StructureEquations(n, dgen, name=f"{s.name}-dense")


def test_dense_coframe_keeps_every_table_dimension():
    for s in (_ladder(4), corpus.get("iwasawa").load().structure):
        dense = _change_coframe(s, 20261018)
        # the equations are dense: each d g_i holds several terms
        assert sum(len(g.terms) for g in dense.dgen) > 3 * sum(len(g.terms) for g in s.dgen)
        assert dense.flags == s.flags
        want, got = full_report(s), full_report(dense)
        for kind, table in want.groups.items():
            assert {k: cell["dim"] for k, cell in table.items()} == {
                k: cell["dim"] for k, cell in got.groups[kind].items()
            }, (s.name, kind)


# -- chains: products of whole factors, applied right to left ---------------------------


# The first- and second-order conditions whose common kernel is each harmonic
# space (Schweitzer, arXiv:0709.3528), as operator chains: the reference for
# harmonic_space, which reads the adjoints' kernels through the star.
_KERNEL_CHAINS = {
    "bc": [["del"], ["delbar"], ["del_adj", "delbar_adj"]],
    "a": [["del_adj"], ["delbar_adj"], ["deldelbar"]],
}


def _fresh(s, h):
    """An equal structure and metric with empty caches."""
    return StructureEquations(s.n, s.dgen, name=s.name), HermitianMetric(h.entries)


def _reference_chain(ops, s, h, p, q):
    """The chain as a left-to-right product of its full factor matrices."""
    sources, cur = [], (p, q)
    for name in reversed(ops):
        sources.append(cur)
        cur = (cur[0] + _OP_SHIFT[name][0], cur[1] + _OP_SHIFT[name][1])
    factors = [operator_matrix(name, s, *src, h) for name, src in zip(ops, sources[::-1])]
    out = factors[0]
    for m in factors[1:]:
        out = out @ m
    return out


def _assert_same_rows(got, want, where):
    assert got.shape == want.shape, where
    for i, (a, b) in enumerate(zip(got.rows, want.rows)):
        assert a == b, (where, i)


_ORACLE_STRUCTURES = {
    name: (lambda e=name: corpus.get(e).load().structure) for name in corpus.names()
}
_ORACLE_STRUCTURES.update({f"ladder-{n}": (lambda n=n: _ladder(n)) for n in (3, 4, 5)})
_ORACLE_STRUCTURES["dense-ladder-4"] = lambda: _change_coframe(_ladder(4), 20261019)
_ORACLE_STRUCTURES["dense-iwasawa"] = lambda: _change_coframe(
    corpus.get("iwasawa").load().structure, 20261019
)


@pytest.mark.parametrize("name", sorted(_ORACLE_STRUCTURES))
def test_chains_and_laplacians_match_products_of_full_factors(name):
    # every chain of both theories and both Laplacians, with the caches the
    # engine fills as it goes, against full factors built on an equal
    # structure and metric
    s = _ORACLE_STRUCTURES[name]()
    n = s.n
    rng = random.Random(f"chain-oracle:{name}")
    metrics = [HermitianMetric.identity(n)] + [random_positive_metric(n, rng) for _ in range(2)]
    chains = [
        ops
        for kind, theory in _THEORIES.items()
        for ops in _KERNEL_CHAINS[kind] + theory["laplacian"] + [o for _, o in theory["blocks"]]
    ]
    for h in metrics:
        ref_s, ref_h = _fresh(s, h)
        for p in range(n + 1):
            for q in range(n + 1):
                want = {tuple(o): _reference_chain(o, ref_s, ref_h, p, q) for o in chains}
                laplacians = {"bc": bc_laplacian_matrix, "a": aeppli_laplacian_matrix}
                for kind, laplacian in laplacians.items():
                    got = laplacian(s, h, p, q)
                    terms = [want[tuple(o)] for o in _THEORIES[kind]["laplacian"]]
                    lap = terms[0]
                    for t in terms[1:]:
                        lap = lap + t
                    _assert_same_rows(got, lap, (name, kind, p, q))
                for ops in chains:
                    got = chain_matrix(ops, s, p, q, h)
                    _assert_same_rows(got, want[tuple(ops)], (name, ops, p, q))


def _non_real_metric(n, rng):
    """The next seeded random metric with a non-real entry."""
    while True:
        h = random_positive_metric(n, rng)
        if not all(x.is_real() for row in h.entries for x in row):
            return h


@pytest.mark.parametrize("name", sorted(set(_ORACLE_STRUCTURES) - {"ladder-5"}))
def test_harmonic_spaces_equal_the_kernels_of_the_three_conditions(name):
    # both kinds at every bidegree, against the stacked chain matrices of
    # the three conditions, built on an equal structure and metric
    s = _ORACLE_STRUCTURES[name]()
    n = s.n
    rng = random.Random(f"harmonic-oracle:{name}")
    metrics = [HermitianMetric.identity(n)] + [_non_real_metric(n, rng) for _ in range(2)]
    for h in metrics:
        ref_s, ref_h = _fresh(s, h)
        for kind, chains in _KERNEL_CHAINS.items():
            for p in range(n + 1):
                for q in range(n + 1):
                    stack = vstack([chain_matrix(o, ref_s, p, q, ref_h) for o in chains])
                    assert harmonic_space(kind, s, h, p, q) == kernel_basis(stack), (
                        name, kind, p, q
                    )


def _n3_guard_cases(seed):
    """(s, h, kind, p, q) at every bidegree of both kinds on each n = 3
    corpus entry, under a seeded metric with a non-real entry."""
    cases = []
    for name in corpus.names():
        s = corpus.get(name).load().structure
        if s.n == 3:
            h = _non_real_metric(3, random.Random(f"{seed}:{name}"))
            for kind in ("bc", "a"):
                for p in range(4):
                    for q in range(4):
                        cases.append((s, h, kind, p, q))
    return cases


def test_a_defect_in_the_star_numerators_fails_the_harmonic_guard(monkeypatch):
    # star numerators conjugated row by row reach the kernel harmonic_space
    # reads through the star, not its guard, which sums Gram entries off the
    # compounds: harmonic_space raises exactly where the corrupted kernel
    # differs from the true space
    cases = [
        (*case, harmonic_space(case[2], *_fresh(*case[:2]), *case[3:]))
        for case in _n3_guard_cases("independence")
    ]
    star_numerators = HermitianMetric._star_numerators

    def conjugated(self, p, q, rows=None):
        block = star_numerators(self, p, q, rows)
        return [r and [(j, x, -y) for j, x, y in r] for r in block]

    seen = []

    def recording(kind, s, h, p, q, space):
        seen.append(space)
        _harmonic_guard(kind, s, h, p, q, space)

    monkeypatch.setattr(HermitianMetric, "_star_numerators", conjugated)
    monkeypatch.setattr(cohomology, "_harmonic_guard", recording)
    raised = 0
    for s, h, kind, p, q, truth in cases:
        s, h = _fresh(s, h)
        try:
            got = harmonic_space(kind, s, h, p, q)
        except RuntimeError as exc:
            assert "mismatch" in str(exc) and "engine defect" in str(exc)
            assert seen[-1] != truth, (s.name, kind, p, q)
            raised += 1
        else:
            assert got == truth == seen[-1], (s.name, kind, p, q)
    assert 0 < raised < len(cases)


def test_a_harmonic_space_guarded_under_another_metric_fails():
    # on the n = 4 ladder, wherever two seeded metrics have different
    # harmonic spaces, the first metric's space fails the second's guard
    s = _ladder(4)
    rng = random.Random("guard-metric")
    first, second = _non_real_metric(4, rng), _non_real_metric(4, rng)
    differ = 0
    for kind in ("bc", "a"):
        for p in range(5):
            for q in range(5):
                space = harmonic_space(kind, s, first, p, q)
                _harmonic_guard(kind, s, first, p, q, space)
                if space != harmonic_space(kind, s, second, p, q):
                    with pytest.raises(RuntimeError, match="mismatch.*engine defect"):
                        _harmonic_guard(kind, s, second, p, q, space)
                    differ += 1
    assert differ >= 20


def test_each_guard_condition_refuses_a_space_the_other_two_pass():
    # at each cell of the n = 4 ladder with a nonzero harmonic space H: a
    # proper subspace of H is contained and orthogonal but too small, and H
    # with one row swapped for a vector w of (im starred)^perp outside H has
    # the right dimension and is orthogonal, but direct does not kill w
    s = _ladder(4)
    h = _non_real_metric(4, random.Random("guard-conditions"))
    refused = {"dimension": 0, "containment": 0}
    for kind in ("bc", "a"):
        _, starred = _THEORIES[kind]["harmonic"]
        for p in range(5):
            for q in range(5):
                space = harmonic_space(kind, s, h, p, q)
                if not space.dim:
                    continue
                width = len(basis(4, p, q))
                smaller = Subspace(width, space.rows[1:])
                with pytest.raises(RuntimeError, match="mismatch.*engine defect"):
                    _harmonic_guard(kind, s, h, p, q, smaller)
                refused["dimension"] += 1
                rows = [
                    r
                    for op in starred
                    for m in [operator_matrix(op, s, 4 - p, 4 - q)]
                    for r in h.adjoint_kernel_rows(m, (p, q))
                ]
                perp = kernel_basis(Matrix.sparse(rows, width))
                outside = [w for w in perp.rows if not space.contains(w)]
                if outside:
                    swapped = Subspace(width, list(space.rows[1:]) + outside[:1])
                    with pytest.raises(RuntimeError, match="mismatch.*engine defect"):
                        _harmonic_guard(kind, s, h, p, q, swapped)
                    refused["containment"] += 1
    assert min(refused.values()) > 0


def test_harmonic_space_builds_no_adjoint_matrix(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("harmonic_space built an adjoint or star matrix")

    monkeypatch.setattr(HermitianMetric, "adjoint_matrix", refused)
    monkeypatch.setattr(HermitianMetric, "_star_matrix", refused)
    dims = 0
    for s, h, kind, p, q in _n3_guard_cases("no-adjoint") + [
        (_ladder(4), HermitianMetric.identity(4), kind, p, q)
        for kind in ("bc", "a") for p in range(5) for q in range(5)
    ]:
        dims += harmonic_space(kind, s, h, p, q).dim
    assert dims > 0


def test_harmonic_space_builds_the_star_on_some_rows_only():
    # the adjoint conditions read the (2,2) star numerators only at the
    # nonzero columns of del, delbar and del delbar out of (2,2)
    h = random_positive_metric(4, random.Random("partial-star"))
    harmonic_space("a", _ladder(4), h, 2, 2)
    block = h._star_rows[2, 2]
    assert len(block) == 36 and 0 < sum(r is not None for r in block) < 36


def test_a_second_metric_computes_no_new_quotient(monkeypatch):
    # the guard's quotient dimension is metric-free: the first metric's
    # harmonic spaces compute it once per cell, a second metric and a
    # structure whose full_report ran compute none
    calls = []
    quotient = cohomology._quotient

    def counting(kind, *args):
        calls.append(kind)
        return quotient(kind, *args)

    monkeypatch.setattr(cohomology, "_quotient", counting)
    s = _ladder(4)
    rng = random.Random("guard-quotient")
    cells = [(kind, p, q) for kind in ("bc", "a") for p in range(5) for q in range(5)]
    for h in (random_positive_metric(4, rng), random_positive_metric(4, rng)):
        for cell in cells:
            harmonic_space(cell[0], s, h, *cell[1:])
        assert len(calls) == len(cells)
    reported = _ladder(4)
    full_report(reported, groups=("bc", "a"))
    calls.clear()
    h = random_positive_metric(4, rng)
    for cell in cells:
        harmonic_space(cell[0], reported, h, *cell[1:])
    assert calls == []


@pytest.mark.parametrize(
    "h, error",
    [
        (None, PreconditionError),
        (HermitianMetric.identity(3), PreconditionError),
        (HermitianMetric([[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]), MetricError),
    ],
    ids=["no-metric", "wrong-size", "not-positive"],
)
def test_chain_refusals_hold_when_the_product_to_their_right_is_zero(h, error):
    # deldelbar is zero on functions, so the chain is zero whatever its
    # adjoint; the adjoint's guards must still refuse
    s = _ladder(4)
    assert chain_matrix(["deldelbar"], s, 0, 0).is_zero()
    with pytest.raises(error):
        chain_matrix(["del_adj", "deldelbar"], s, 0, 0, h)


def test_a_zero_chain_has_the_chain_shape_and_equals_the_reference():
    s = _ladder(4)
    h = random_positive_metric(4, random.Random(49))
    got = chain_matrix(["del_adj", "deldelbar"], s, 0, 0, h)
    assert got == Matrix.zeros(len(basis(4, 0, 1)), 1)
    ref_s, ref_h = _fresh(s, h)
    assert got == _reference_chain(["del_adj", "deldelbar"], ref_s, ref_h, 0, 0)


@pytest.mark.parametrize(
    "ops, error, message",
    [
        (["del", "del_adj"], PreconditionError, "needs a metric"),
        (["del_adj", "del"], IntegrabilityError, "not integrable"),
        (["delbar", "deldelbar", "delbar_adj"], PreconditionError, "needs a metric"),
    ],
)
@pytest.mark.parametrize("p, q", [(1, 1), (2, 1)])
def test_the_rightmost_refusing_factor_raises_its_own_error(ops, error, message, p, q):
    # each factor's guards run as it is built, right to left, in the order
    # the factors apply
    s = parse_structure("algebra ni\ndim 3\nd f3 = F1^F2\n")
    with pytest.raises(error, match=message):
        chain_matrix(ops, s, p, q, None)


@pytest.mark.parametrize("ops", [[], ["d"], ["d", "del"], ["del", "d"]])
def test_a_chain_without_operators_or_with_d_is_refused(ops):
    # d lands in a total degree, where no bigraded factor can follow it
    with pytest.raises(ValueError, match="^a chain takes one or more of del, delbar, "):
        chain_matrix(ops, parse_structure(SL2C), 0, 0)


@pytest.mark.parametrize("ops", [["foo"], ["del", "foo"], ["foo", "del"]])
def test_a_chain_refuses_an_unknown_operator_as_operator_matrix_does(ops):
    s = parse_structure(SL2C)
    with pytest.raises(ValueError, match="^unknown operator 'foo'$"):
        operator_matrix("foo", s, 0, 0)
    with pytest.raises(ValueError, match="^unknown operator 'foo'$"):
        chain_matrix(ops, s, 0, 0)


def _dim(p, q):
    """The size of the (p, q) basis for n = 3, 0 out of range."""
    return comb(3, p) * comb(3, q) if 0 <= p <= 3 and 0 <= q <= 3 else 0


_REFUSAL_METRICS = {
    "none": lambda: None,
    "wrong-size": lambda: HermitianMetric.identity(2),
    "not-positive": lambda: HermitianMetric([[1, 0, 0], [0, -1, 0], [0, 0, 1]]),
    "positive": lambda: random_positive_metric(3, random.Random(30)),
}


def _expected_outcome(name, integrable, metric, p, q):
    """What ``operator_matrix(name, s, p, q, h)`` gives on n = 3, in the
    order the build meets it: an adjoint's metric refusals (a nonpositive
    metric only on a nonempty source), then integrability wherever a del or
    delbar that the operator is made of has a nonempty source; else the
    shape."""
    if name in ("del_adj", "delbar_adj"):
        if metric == "none":
            return PreconditionError, f"operator {name} needs a metric"
        if metric == "wrong-size":
            return (
                PreconditionError,
                "metric and structure sizes differ: metric over n=2, structure over n=3",
            )
        if metric == "not-positive" and _dim(p, q):
            return MetricError, "metric is not positive definite; minors [1, -1, -1]"
    if name != "d" and not integrable and (_dim(p, q) or name == "deldelbar" and _dim(p, q + 1)):
        return IntegrabilityError, "algebra 'ni' is not integrable; del/delbar are undefined"
    if name == "d":
        rows = sum(_dim(b, p + q + 1 - b) for b in range(p + q + 2))
    else:
        rows = _dim(p + _OP_SHIFT[name][0], q + _OP_SHIFT[name][1])
    return rows, _dim(p, q)


@pytest.mark.parametrize("metric", sorted(_REFUSAL_METRICS))
@pytest.mark.parametrize(
    "text, integrable",
    [("algebra ni\ndim 3\nd f3 = F1^F2\n", False), ("algebra iwasawa\ndim 3\nd f3 = f1^f2\n", True)],
    ids=["non-integrable", "iwasawa"],
)
def test_every_operator_refuses_or_builds_as_the_table_says(text, integrable, metric):
    # every operator at every p, q in -1..n+1 on a fresh structure, twice, so
    # that the second sweep reads what the first one cached
    s, h = parse_structure(text), _REFUSAL_METRICS[metric]()
    names = ("d", "del", "delbar", "deldelbar", "del_adj", "delbar_adj")
    cases = [(name, p, q) for name in names for p in range(-1, 5) for q in range(-1, 5)]
    for _ in range(2):
        for name, p, q in cases:
            try:
                got = operator_matrix(name, s, p, q, h).shape
            except LieCohomError as exc:
                got = type(exc), str(exc)
            assert got == _expected_outcome(name, integrable, metric, p, q), (name, p, q)
