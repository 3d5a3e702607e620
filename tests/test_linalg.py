import random
from fractions import Fraction

import pytest

from liecohom.errors import PreconditionError
from liecohom.linalg import (
    Matrix,
    Subspace,
    kernel_basis,
    quotient_representatives,
    rank,
    rref,
    solve,
    vec,
)
from liecohom.scalars import I, ONE, ZERO, Scalar


def test_rref_canonical():
    m = Matrix([[0, 2], [1, 1]])
    reduced, pivots = rref(m)
    assert pivots == [0, 1]
    assert reduced == Matrix.identity(2)


def test_rref_over_gaussian_rationals():
    m = Matrix([[I, 1], [1, -I]])  # second row = -i * first
    reduced, pivots = rref(m)
    assert pivots == [0]
    assert reduced.rows[0] == (ONE, Scalar(0, -1))
    assert reduced.rows[1] == (ZERO, ZERO)


def test_kernel_and_rank():
    m = Matrix([[1, 2, 3], [2, 4, 6]])
    assert rank(m) == 1
    kb = kernel_basis(m)
    assert len(kb) == 2
    for v in kb:
        assert all(not x for x in m.apply(v))


def test_kernel_of_empty_shapes():
    assert kernel_basis(Matrix.zeros(3, 0)) == []
    kb = kernel_basis(Matrix.zeros(0, 2))
    assert len(kb) == 2


def test_solve_consistent_and_inconsistent():
    m = Matrix([[1, 1], [0, 1]])
    x = solve(m, vec([3, 2]))
    assert m.apply(x) == vec([3, 2])
    m2 = Matrix([[1, 1], [2, 2]])
    assert solve(m2, vec([1, 3])) is None


def test_solve_random_roundtrip():
    rng = random.Random(7)
    for _ in range(20):
        rows = [
            [Scalar(rng.randint(-3, 3), rng.randint(-2, 2)) for _ in range(4)]
            for _ in range(3)
        ]
        m = Matrix(rows)
        x = vec([Scalar(rng.randint(-2, 2), rng.randint(-1, 1)) for _ in range(4)])
        b = m.apply(x)
        sol = solve(m, b)
        assert sol is not None and m.apply(sol) == b


def test_subspace_membership_and_equality():
    s = Subspace(3, [vec([1, 0, 1]), vec([0, 1, 0])])
    assert s.dim == 2
    assert s.contains(vec([2, 3, 2]))
    assert not s.contains(vec([1, 0, 0]))
    t = Subspace(3, [vec([1, 1, 1]), vec([1, -1, 1])])
    assert s == t  # same span, same canonical echelon rows


def test_subspace_containment_witness():
    big = Subspace(2, [vec([1, 0]), vec([0, 1])])
    small = Subspace(2, [vec([1, 1])])
    ok, witness = big.contains_subspace(small)
    assert ok and witness is None
    ok, witness = small.contains_subspace(big)
    assert not ok and witness is not None


def test_quotient_representatives():
    numerator = Subspace(3, [vec([1, 0, 0]), vec([0, 1, 0]), vec([0, 0, 1])])
    denominator = Subspace(3, [vec([1, 0, 0]), vec([0, 1, 0])])
    reps = quotient_representatives(numerator, denominator)
    assert reps == [vec([0, 0, 1])]
    assert quotient_representatives(numerator, numerator) == []


def test_quotient_containment_enforced():
    numerator = Subspace(2, [vec([1, 0])])
    denominator = Subspace(2, [vec([0, 1])])
    with pytest.raises(PreconditionError):
        quotient_representatives(numerator, denominator)


def test_matmul_and_shapes():
    a = Matrix([[1, I], [0, 1]])
    b = Matrix([[1], [Fraction(1, 2)]])
    prod = a @ b
    assert prod.shape == (2, 1)
    assert prod.rows[0][0] == Scalar(1, Fraction(1, 2))
    with pytest.raises(ValueError):
        b @ a


# -- quotient representatives against the rebuild-per-acceptance reference ----


def _quotient_reference(numerator, denominator):
    """Reference: one full Subspace rebuild per accepted row."""
    reps, current = [], denominator
    for v in numerator.rows:
        if not current.contains(v):
            reps.append(v)
            current = Subspace(numerator.ambient, list(current.rows) + [v])
    return reps


def _random_scalar(rng, density=1.0):
    if rng.random() >= density:
        return ZERO
    return Scalar(
        Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
        Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
    )


def test_quotient_scales_residues_with_non_unit_leading_entry():
    # the residue of e1 against (1, 2, 0) is (0, -2, 0); left unscaled, it
    # would fail to eliminate e2, which lies in the span
    numerator = Subspace(3, [vec([1, 0, 0]), vec([0, 1, 0]), vec([0, 0, 1])])
    denominator = Subspace(3, [vec([1, 2, 0])])
    assert denominator.reduce(numerator.rows[0]) == vec([0, -2, 0])
    reps = quotient_representatives(numerator, denominator)
    assert reps == [vec([1, 0, 0]), vec([0, 0, 1])]
    assert reps == _quotient_reference(numerator, denominator)


def test_quotient_matches_rebuild_reference_on_random_pairs():
    rng = random.Random(20261018)
    seen_zero_denominator = seen_equal = seen_non_unit_residue = False
    for trial in range(60):
        ambient = rng.randint(1, 7)
        gens = [
            vec([_random_scalar(rng, 0.6) for _ in range(ambient)])
            for _ in range(rng.randint(1, ambient + 1))
        ]
        numerator = Subspace(ambient, gens)
        if trial % 10 == 0:
            denominator = numerator
        else:
            combos = []
            for _ in range(rng.randint(0, len(gens))):
                coeffs = [_random_scalar(rng, 0.5) for _ in gens]
                combos.append(
                    vec(sum((c * x for c, x in zip(coeffs, col)), ZERO) for col in zip(*gens))
                )
            denominator = Subspace(ambient, combos)
        expected = _quotient_reference(numerator, denominator)
        assert quotient_representatives(numerator, denominator) == expected
        assert len(expected) == numerator.dim - denominator.dim
        seen_zero_denominator |= denominator.dim == 0
        seen_equal |= denominator == numerator
        seen_non_unit_residue |= any(
            next(x for x in denominator.reduce(v) if x) != ONE for v in expected
        )
    assert seen_zero_denominator and seen_equal and seen_non_unit_residue


def test_quotient_builds_no_echelon_per_representative(monkeypatch):
    import liecohom.linalg as linalg

    numerator = Subspace(4, [vec([1, 2, 0, I]), vec([0, 3, 1, 0]), vec([1, 0, 0, 1])])
    denominator = Subspace(4, [vec([2, 7, 1, 2 * I])])
    calls = []

    def counting_rref(matrix):
        calls.append(matrix.shape)
        return rref(matrix)

    monkeypatch.setattr(linalg, "rref", counting_rref)
    reps = quotient_representatives(numerator, denominator)
    assert len(reps) == 2
    assert calls == []


# -- rref and kernel_basis against an independent oracle (sympy, test-only) -----


def _to_sympy(sympy, m):
    def entry(z):
        return sympy.Rational(z.re.numerator, z.re.denominator) + sympy.I * sympy.Rational(
            z.im.numerator, z.im.denominator
        )

    return sympy.Matrix(m.nrows, m.ncols, [entry(x) for row in m.rows for x in row])


def _from_sympy(sympy, e):
    re, im = sympy.re(e), sympy.im(e)
    return Scalar(Fraction(int(re.p), int(re.q)), Fraction(int(im.p), int(im.q)))


def _assert_rref_matches_sympy(sympy, m):
    reduced, pivots = rref(m)
    theirs, their_pivots = _to_sympy(sympy, m).rref()
    assert pivots == list(their_pivots)
    assert reduced == Matrix(
        [[_from_sympy(sympy, theirs[i, j]) for j in range(m.ncols)] for i in range(m.nrows)],
        ncols=m.ncols,
    )


def _assert_kernel_matches_sympy(sympy, m):
    ours = kernel_basis(m)
    theirs = _to_sympy(sympy, m)
    assert len(ours) == m.ncols - theirs.rank()
    for v in ours:
        assert all(not x for x in m.apply(v))
    # same span: the two row sets have the same canonical RREF
    nullspace = theirs.nullspace()
    assert len(nullspace) == len(ours)
    if ours:
        ours_rref = _to_sympy(sympy, Matrix(ours, ncols=m.ncols)).rref()[0]
        assert ours_rref == sympy.Matrix.hstack(*nullspace).T.rref()[0]


def _sparse_random_matrices():
    # 40 seeded sparse matrices, each with a zero row and a zero column
    rng = random.Random(4)
    for _ in range(40):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 8)
        rows = [[_random_scalar(rng, 0.3) for _ in range(ncols)] for _ in range(nrows)]
        rows[rng.randrange(nrows)] = [ZERO] * ncols
        zero_col = rng.randrange(ncols)
        for row in rows:
            row[zero_col] = ZERO
        yield Matrix(rows, ncols=ncols)


def _corpus_operator_matrices(ops):
    # the nonzero operator matrices of every corpus entry at every bidegree
    from liecohom import corpus
    from liecohom.cohomology import operator_matrix

    for name in corpus.names():
        s = corpus.get(name).load().structure
        for p in range(s.n + 1):
            for q in range(s.n + 1):
                for op in ops:
                    m = operator_matrix(op, s, p, q).matrix
                    if m.nrows and m.ncols and not m.is_zero():
                        yield m


def test_rref_matches_sympy_on_sparse_random_matrices():
    sympy = pytest.importorskip("sympy")
    for m in _sparse_random_matrices():
        _assert_rref_matches_sympy(sympy, m)


def test_rref_matches_sympy_on_corpus_operator_matrices():
    sympy = pytest.importorskip("sympy")
    checked = 0
    for m in _corpus_operator_matrices(("d", "del", "delbar")):
        _assert_rref_matches_sympy(sympy, m)
        checked += 1
    assert checked > 0


def test_kernel_basis_matches_sympy_on_sparse_random_matrices():
    sympy = pytest.importorskip("sympy")
    for m in _sparse_random_matrices():
        _assert_kernel_matches_sympy(sympy, m)


def test_kernel_basis_matches_sympy_on_corpus_operator_matrices():
    sympy = pytest.importorskip("sympy")
    checked = 0
    for m in _corpus_operator_matrices(("d", "del", "delbar", "deldelbar")):
        _assert_kernel_matches_sympy(sympy, m)
        checked += 1
    assert checked > 0
