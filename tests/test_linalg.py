import random
from fractions import Fraction
from math import gcd

import pytest

from liecohom.errors import PreconditionError
from liecohom.linalg import (
    Matrix,
    Subspace,
    hstack,
    kernel_basis,
    quotient_representatives,
    rank,
    rref,
    solve,
    vstack,
)
from liecohom.scalars import I, ONE, ZERO, Scalar, format_scalar, parts


def _row(values):
    """A sparse row from dense values."""
    return {j: y for j, x in enumerate(values) if (y := Scalar.coerce(x))}


def dense(rows, ncols=None):
    """A Matrix from dense rows of values ``Scalar.coerce`` takes, zeros
    dropped; ``ncols`` is needed only when there are no rows."""
    return Matrix.sparse([_row(r) for r in rows], len(rows[0]) if ncols is None else ncols)


def _conjugate(m):
    return Matrix.sparse([{j: x.conjugate() for j, x in row.items()} for row in m.rows], m.ncols)


def test_rref_canonical():
    m = dense([[0, 2], [1, 1]])
    reduced, pivots = rref(m)
    assert pivots == [0, 1]
    assert reduced == dense([[1, 0], [0, 1]])


def test_rref_over_gaussian_rationals():
    m = dense([[I, 1], [1, -I]])  # second row = -i * first
    reduced, pivots = rref(m)
    assert pivots == [0]
    assert reduced.rows[0] == {0: ONE, 1: Scalar(0, -1)}
    assert reduced.rows[1] == {}


def test_kernel_and_rank():
    m = dense([[1, 2, 3], [2, 4, 6]])
    assert rank(m) == 1
    kb = kernel_basis(m)
    assert (kb.ambient, kb.dim) == (3, 2)
    assert kb.rows == (_row([1, 0, Fraction(-1, 3)]), _row([0, 1, Fraction(-2, 3)]))
    assert all(m.apply(row) == {} for row in kb.rows)


def test_kernel_of_empty_shapes():
    nothing = kernel_basis(Matrix.zeros(3, 0))
    assert (nothing.ambient, nothing.dim, nothing.rows) == (0, 0, ())
    everything = kernel_basis(Matrix.zeros(0, 2))
    assert (everything.ambient, everything.dim) == (2, 2)
    assert everything.rows == (_row([1, 0]), _row([0, 1]))
    assert all(Matrix.zeros(0, 2).apply(row) == {} for row in everything.rows)


def test_solve_consistent_and_inconsistent():
    m = dense([[1, 1], [0, 1]])
    x = solve(m, _row([3, 2]))
    assert x == _row([1, 2])
    assert m.apply(x) == _row([3, 2])
    m2 = dense([[1, 1], [2, 2]])
    assert solve(m2, _row([1, 3])) is None
    # free variables are 0, so absent from the solution row
    assert solve(m2, _row([0, 0])) == {}
    assert solve(dense([[1, 1], [0, 0]]), _row([2, 0])) == {0: Scalar(2)}


def test_apply_and_solve_reject_keys_outside_the_shape():
    m = dense([[1, 1, 0], [0, 1, 1]])
    for bad in ({3: ONE}, {-1: ONE}, {0: ONE, 5: ONE}):
        with pytest.raises(ValueError):
            m.apply(bad)
    for bad in ({2: ONE}, {-1: ONE}):
        with pytest.raises(ValueError):
            solve(m, bad)
    assert m.apply({2: ONE}) == {1: ONE}
    assert solve(m, {1: ONE}) == {0: -ONE, 1: ONE}


def test_solve_random_roundtrip():
    rng = random.Random(7)
    for _ in range(20):
        rows = [
            [Scalar(rng.randint(-3, 3), rng.randint(-2, 2)) for _ in range(4)]
            for _ in range(3)
        ]
        m = dense(rows)
        x = _row([Scalar(rng.randint(-2, 2), rng.randint(-1, 1)) for _ in range(4)])
        b = m.apply(x)
        assert b == _dense_apply(m, x)
        sol = solve(m, b)
        assert sol is not None and m.apply(sol) == b
        assert all(sol.values())  # the nonzero entries only


def test_subspace_membership_and_equality():
    s = Subspace(3, [_row([1, 0, 1]), _row([0, 1, 0])])
    assert s.dim == 2
    assert s.contains(_row([2, 3, 2]))
    assert not s.contains(_row([1, 0, 0]))
    t = Subspace(3, [_row([1, 1, 1]), _row([1, -1, 1])])
    assert s == t  # same span, same canonical echelon rows


def test_quotient_representatives():
    numerator = Subspace(3, [_row([1, 0, 0]), _row([0, 1, 0]), _row([0, 0, 1])])
    denominator = Subspace(3, [_row([1, 0, 0]), _row([0, 1, 0])])
    reps = quotient_representatives(numerator, denominator.rows)
    assert reps == [_row([0, 0, 1])]
    assert quotient_representatives(numerator, numerator.rows) == []


def test_quotient_skips_zero_image_rows():
    numerator = Subspace(3, [_row([1, 0, 0]), _row([0, 1, 0]), _row([0, 0, 1])])
    assert quotient_representatives(numerator, []) == list(numerator.rows)
    assert quotient_representatives(numerator, [{}, {}]) == list(numerator.rows)
    reps = quotient_representatives(numerator, [{}, _row([0, 1, 0]), {}])
    assert reps == [_row([1, 0, 0]), _row([0, 0, 1])]
    # zero rows are in every subspace, the zero one too
    assert quotient_representatives(Subspace(3), [{}, {}]) == []


def test_quotient_of_dependent_image_columns():
    # five images spanning a plane of the 3-dimensional numerator: the
    # repeated, scaled and summed columns leave one representative
    numerator = Subspace(4, [_row([1, 0, 0, 1]), _row([0, 1, 0, 0]), _row([0, 0, 1, I])])
    a, b = _row([1, 2, 0, 1]), _row([0, 1, 1, I])
    images = [a, _row([2, 4, 0, 2]), b, _row([1, 3, 1, 1 + I]), a]
    reps = quotient_representatives(numerator, images)
    assert reps == [_row([1, 0, 0, 1])]
    assert reps == _quotient_reference(numerator, Subspace(4, images))
    assert len(reps) == numerator.dim - Subspace(4, images).dim


def test_quotient_containment_enforced():
    numerator = Subspace(2, [_row([1, 0])])
    denominator = Subspace(2, [_row([0, 1])])
    with pytest.raises(PreconditionError) as info:
        quotient_representatives(numerator, denominator.rows)
    # the witness prints its nonzero entries in .lie scalar syntax
    assert str(info.value) == "denominator is not contained in numerator; witness {1: 1}"
    numerator = Subspace(3, [_row([1, 0, 0])])
    denominator = Subspace(3, [_row([0, 2, Scalar(1, 2)])])
    with pytest.raises(PreconditionError) as info:
        quotient_representatives(numerator, denominator.rows)
    assert str(info.value) == (
        "denominator is not contained in numerator; witness {1: 1, 2: (1/2+1i)}"
    )


def test_matmul_and_shapes():
    a = dense([[1, I], [0, 1]])
    b = dense([[1], [Fraction(1, 2)]])
    prod = a @ b
    assert prod.shape == (2, 1)
    assert prod.rows[0][0] == Scalar(1, Fraction(1, 2))
    with pytest.raises(ValueError):
        b @ a


def test_hstack_matches_the_transposed_vstack():
    # blocks of every width, zero-width ones included, against stacking the
    # transposes and transposing back
    rng = random.Random(5)
    blocks = [m for m in _sparse_random_matrices() if m.nrows == 3]
    assert len(blocks) >= 4
    blocks.insert(1, Matrix.zeros(3, 0))
    for k in range(1, len(blocks) + 1):
        mats = rng.sample(blocks, min(k, 4))
        want = vstack([m.transpose() for m in mats]).transpose()
        got = hstack(mats)
        assert got == want
    assert hstack([Matrix.zeros(0, 2), Matrix.zeros(0, 3)]).shape == (0, 5)
    with pytest.raises(ValueError):
        hstack([Matrix.zeros(2, 1), Matrix.zeros(3, 1)])


# -- quotient representatives against the rebuild-per-acceptance reference ----


def _quotient_reference(numerator, denominator):
    """Reference: one full Subspace rebuild per accepted row."""
    reps, current = [], denominator
    for v in numerator.rows:
        if not current.contains(v):
            reps.append(v)
            current = Subspace(numerator.ambient, list(current.rows) + [v])
    return reps


def _reduce_reference(space, v):
    """The residue of v in Scalar arithmetic over dense coordinates: v minus
    v[c] times the echelon row of each pivot c, with v's entries at keys
    outside range(ambient) kept.  v lies in the space exactly when it is
    empty."""
    out = [v.get(j, ZERO) for j in range(space.ambient)]
    for row in space.rows:
        factor = v.get(min(row), ZERO)
        for j, y in row.items():
            out[j] = out[j] - factor * y
    outside = {j: x for j, x in v.items() if j not in range(space.ambient)}
    return {j: x for j, x in enumerate(out) if x} | outside


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
    numerator = Subspace(3, [_row([1, 0, 0]), _row([0, 1, 0]), _row([0, 0, 1])])
    denominator = Subspace(3, [_row([1, 2, 0])])
    assert _reduce_reference(denominator, numerator.rows[0]) == _row([0, -2, 0])
    reps = quotient_representatives(numerator, denominator.rows)
    assert reps == [_row([1, 0, 0]), _row([0, 0, 1])]
    assert reps == _quotient_reference(numerator, denominator)


def test_quotient_matches_rebuild_reference_on_random_pairs():
    rng = random.Random(20261018)
    seen_zero_denominator = seen_equal = seen_non_unit_residue = False
    for trial in range(60):
        ambient = rng.randint(1, 7)
        gens = [
            [_random_scalar(rng, 0.6) for _ in range(ambient)]
            for _ in range(rng.randint(1, ambient + 1))
        ]
        numerator = Subspace(ambient, [_row(g) for g in gens])
        if trial % 10 == 0:
            denominator = numerator
            images = list(numerator.rows)
        else:
            combos = []
            for _ in range(rng.randint(0, len(gens))):
                coeffs = [_random_scalar(rng, 0.5) for _ in gens]
                combos.append(
                    _row(sum((c * x for c, x in zip(coeffs, col)), ZERO) for col in zip(*gens))
                )
            denominator = Subspace(ambient, combos)
            images = combos
        expected = _quotient_reference(numerator, denominator)
        assert quotient_representatives(numerator, denominator.rows) == expected
        # the raw, possibly dependent or zero, image rows give the same rows
        assert quotient_representatives(numerator, images) == expected
        assert len(expected) == numerator.dim - denominator.dim
        seen_zero_denominator |= denominator.dim == 0
        seen_equal |= denominator == numerator
        seen_non_unit_residue |= any(
            (r := _reduce_reference(denominator, v))[min(r)] != ONE for v in expected
        )
    assert seen_zero_denominator and seen_equal and seen_non_unit_residue


def test_quotient_builds_no_echelon_per_representative(monkeypatch):
    import liecohom.linalg as linalg

    numerator = Subspace(4, [_row([1, 2, 0, I]), _row([0, 3, 1, 0]), _row([1, 0, 0, 1])])
    spanning = [_row([2, 7, 1, 2 * I]), _row([1, 2, 0, I]), _row([1, 0, 0, 1])]
    # denominators of dim 0..3, leaving 3, 2, 1 and 0 representatives
    denominators = [Subspace(4, spanning[:d]) for d in range(4)]
    calls = []

    def counting_rref(matrix):
        calls.append(matrix.shape)
        return rref(matrix)

    monkeypatch.setattr(linalg, "rref", counting_rref)
    for d, denominator in enumerate(denominators):
        calls.clear()
        reps = quotient_representatives(numerator, denominator.rows)
        assert len(reps) == 3 - d
        # one RREF, of the denominator's coordinates in the numerator basis;
        # with no image there are no coordinates and none
        assert calls == ([(d, 3)] if d else [])


def _unit_rows(ambient):
    return [{j: ONE} for j in range(ambient)]


def test_kernel_of_a_zero_matrix_is_the_whole_space_without_elimination(monkeypatch):
    import liecohom.linalg as linalg

    shapes = [(0, k) for k in range(4)] + [(k, 0) for k in range(4)]
    shapes += [(k, k) for k in range(1, 4)]
    wholes = {k: Subspace(k, _unit_rows(k)) for k in range(4)}
    calls = []
    monkeypatch.setattr(linalg, "rref", lambda m: calls.append(m.shape) or rref(m))
    for nrows, ncols in shapes:
        kb = kernel_basis(Matrix.zeros(nrows, ncols))
        whole = wholes[ncols]
        assert kb == whole
        assert kb._index == whole._index == {j: j for j in range(ncols)}
        assert (kb.ambient, kb.dim) == (ncols, ncols)
    assert calls == []
    # one nonzero row takes the elimination again
    assert kernel_basis(Matrix.sparse([{}, {1: I}, {}], 3)).dim == 2
    assert calls == [(1, 3)]


def test_whole_space_quotient_matches_reference_and_reduces_nothing(monkeypatch):
    import liecohom.linalg as linalg

    rng = random.Random(20261020)
    cases = []
    for trial in range(40):
        ambient = rng.randint(1, 6)
        # the whole space from a zero matrix's kernel, or from a spanning set
        # with extra random rows, which RREF brings to the unit rows
        if trial % 2:
            numerator = kernel_basis(Matrix.zeros(rng.randint(0, 2), ambient))
        else:
            extra = [[_random_scalar(rng, 0.5) for _ in range(ambient)] for _ in range(2)]
            numerator = Subspace(ambient, [_row(r) for r in extra] + _unit_rows(ambient))
        assert numerator.rows == tuple(_unit_rows(ambient))
        images = [
            _row([_random_scalar(rng, 0.4) for _ in range(ambient)])
            for _ in range(rng.randint(0, ambient + 1))
        ]
        if trial % 5 == 0:
            images += [images[0] if images else {}, {}]
        expected = _quotient_reference(numerator, Subspace(ambient, images))
        cases.append((numerator, images, expected))
    assert any(expected == [] for _, _, expected in cases)
    assert any(0 < len(expected) < n.dim for n, _, expected in cases)

    def no_product(a, b):
        raise AssertionError("a product against a whole-space numerator")

    # the whole space's rows are the unit rows: only the keys are checked
    monkeypatch.setattr(linalg.Matrix, "__matmul__", no_product)
    for numerator, images, expected in cases:
        assert quotient_representatives(numerator, images) == expected


def test_whole_space_numerator_refuses_keys_outside_its_range():
    whole = Subspace(3, _unit_rows(3))
    # the messages are those of the full reduction, whose residue is the
    # entries at keys outside range(3)
    for image, witness in (
        ({0: ONE, 3: Scalar(1, 2)}, "{0: 1, 3: (1+2i)}"),
        ({-1: ONE}, "{-1: 1}"),
        ({1: I, 5: Scalar(2)}, "{1: 1i, 5: 2}"),
    ):
        assert _reduce_reference(whole, image) == {
            j: x for j, x in image.items() if j not in range(3)
        }
        assert not whole.contains(image)
        with pytest.raises(PreconditionError) as info:
            quotient_representatives(whole, [{1: ONE}, image])
        assert str(info.value) == (
            f"denominator is not contained in numerator; witness {witness}"
        )


def _random_subspaces(rng, count):
    """Seeded (kind, Subspace) pairs: sparse and dense spans, the zero
    space and the whole space, in turn."""
    kinds = ("sparse", "dense", "zero", "whole")
    for trial in range(count):
        kind, ambient = kinds[trial % 4], rng.randint(1, 7)
        if kind == "zero":
            yield kind, Subspace(ambient)
        elif kind == "whole":
            yield kind, kernel_basis(Matrix.zeros(rng.randint(0, 2), ambient))
        else:
            density = 0.3 if kind == "sparse" else 1.0
            rows = [
                _row([_random_scalar(rng, density) for _ in range(ambient)])
                for _ in range(rng.randint(1, ambient))
            ]
            yield kind, Subspace(ambient, rows)


def _cancelling_member(rng, space):
    """A combination of two echelon rows whose entries at a column they share
    (not a pivot) cancel, so its rebuild sums to zero there; or None."""
    shared = [
        (r, s, j)
        for k, r in enumerate(space.rows)
        for s in space.rows[k + 1 :]
        for j in sorted(r.keys() & s.keys())
    ]
    if not shared:
        return None
    r, s, j = rng.choice(shared)
    a = _random_scalar(rng) or ONE
    b = -a * r[j] / s[j]
    keys = sorted(r.keys() | s.keys())
    v = {k: x for k in keys if (x := a * r.get(k, ZERO) + b * s.get(k, ZERO))}
    assert j not in v
    return v


def test_subspace_contains_matches_reference_on_random_subspaces():
    rng = random.Random(20261019)
    seen = set()
    for kind, space in _random_subspaces(rng, 120):
        ambient = space.ambient
        member = _combination(rng, space.rows, ambient)
        unit = {rng.randrange(ambient): ONE}
        vectors = [
            {},
            member,
            # a member plus a unit vector, in the space only when the unit is
            {j: x for j in range(ambient) if (x := member.get(j, ZERO) + unit.get(j, ZERO))},
            _row([_random_scalar(rng, 0.4) for _ in range(ambient)]),
            # keys below 0 and at or above ambient are never in the space
            {**member, -1 - rng.randrange(2): _random_scalar(rng) or ONE},
            {**member, ambient + rng.randrange(2): _random_scalar(rng) or ONE},
        ]
        if (cancelling := _cancelling_member(rng, space)) is not None:
            vectors.append(cancelling)
            seen.add("cancelling")
        for v in vectors:
            contained = space.contains(v)
            assert contained == (not _reduce_reference(space, v)), (kind, v)
            if all(j in range(ambient) for j in v):
                # membership by an independent route: a rebuild keeps the dim
                assert contained == (Subspace(ambient, list(space.rows) + [v]).dim == space.dim)
            seen.add((kind, contained and bool(v)))
        # the quotient's witness is the first nonzero image not in the space
        # (the vectors with keys out of range never are), after any number
        # of zero and contained images
        images = [{}, member] + rng.sample(vectors, len(vectors))
        witness = next(v for v in images if _reduce_reference(space, v))
        with pytest.raises(PreconditionError) as info:
            quotient_representatives(space, images)
        entries = ", ".join(f"{j}: {format_scalar(x)}" for j, x in sorted(witness.items()))
        assert str(info.value) == (
            f"denominator is not contained in numerator; witness {{{entries}}}"
        )
        if member and images.index(witness) > 1:
            seen.add("witness after a member")
    assert {(kind, c) for kind in ("sparse", "dense", "whole") for c in (True, False)} <= seen
    assert {("zero", False), "cancelling", "witness after a member"} <= seen


# -- rref and kernel_basis against an independent oracle (sympy, test-only) -----


def _to_sympy(sympy, m):
    def entry(z):
        return sympy.Rational(z.re.numerator, z.re.denominator) + sympy.I * sympy.Rational(
            z.im.numerator, z.im.denominator
        )

    return sympy.Matrix(
        m.nrows, m.ncols, [entry(row.get(j, ZERO)) for row in m.rows for j in range(m.ncols)]
    )


def _from_sympy(sympy, e):
    re, im = sympy.re(e), sympy.im(e)
    return Scalar(Fraction(int(re.p), int(re.q)), Fraction(int(im.p), int(im.q)))


def _sympy_domain(sympy, m):
    """m as a sympy DomainMatrix over QQ_I, the Gaussian rationals: its
    rref and nullspace are exact, and fast on dense rows."""
    from sympy.polys.matrices import DomainMatrix

    return DomainMatrix.from_Matrix(_to_sympy(sympy, m)).convert_to(sympy.QQ_I)


def _assert_rref_matches_sympy(sympy, m):
    reduced, pivots = rref(m)
    theirs, their_pivots = _sympy_domain(sympy, m).rref()
    theirs = theirs.to_Matrix()
    assert pivots == list(their_pivots)
    assert reduced == dense(
        [[_from_sympy(sympy, theirs[i, j]) for j in range(m.ncols)] for i in range(m.nrows)],
        ncols=m.ncols,
    )


def _assert_kernel_matches_sympy(sympy, m):
    ours = kernel_basis(m)
    theirs = _sympy_domain(sympy, m)
    assert (ours.ambient, ours.dim) == (m.ncols, m.ncols - theirs.rank())
    assert all(m.apply(row) == {} for row in ours.rows)
    # same span, and ours is already canonical: our rows are the RREF of
    # sympy's null space basis (one vector per row)
    nullspace = theirs.nullspace()
    assert nullspace.shape[0] == ours.dim
    if ours.dim:
        their_rref = nullspace.rref()[0].to_Matrix()
        assert ours.rows == dense(
            [[_from_sympy(sympy, their_rref[i, j]) for j in range(m.ncols)] for i in range(ours.dim)]
        ).rows


def _assert_rref_canonical_under_row_permutations(sympy, m, rng):
    # the pivot row rref picks depends on row order and row lengths; the
    # result must not
    for a in (m, m.transpose()):
        order = list(range(a.nrows))
        rng.shuffle(order)
        shuffled = Matrix.sparse([a.rows[i] for i in order], a.ncols)
        assert rref(shuffled) == rref(a)
        _assert_rref_matches_sympy(sympy, shuffled)


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
        yield dense(rows, ncols)


def _corpus_operator_matrices(ops):
    # the nonzero operator matrices of every corpus entry at every bidegree
    from liecohom import corpus
    from liecohom.cohomology import operator_matrix

    for name in corpus.names():
        s = corpus.get(name).load().structure
        for p in range(s.n + 1):
            for q in range(s.n + 1):
                for op in ops:
                    m = operator_matrix(op, s, p, q)
                    if m.nrows and m.ncols and not m.is_zero():
                        yield m


# -- the sparse product against the dense triple loop ---------------------------


def _matmul_reference(a, b):
    """Reference: the dense triple loop, accumulating over k in order."""
    a_rows = [[row.get(k, ZERO) for k in range(a.ncols)] for row in a.rows]
    b_rows = [[row.get(j, ZERO) for j in range(b.ncols)] for row in b.rows]
    out = []
    for i in range(a.nrows):
        row = []
        for j in range(b.ncols):
            acc = ZERO
            for k in range(a.ncols):
                acc = acc + a_rows[i][k] * b_rows[k][j]
            row.append(acc)
        out.append(row)
    return dense(out, b.ncols)


def _dense_apply(m, v):
    """Reference for ``m.apply(v)``: the column v through the dense triple
    loop, with its zero entries dropped."""
    column = dense([[v.get(j, ZERO)] for j in range(m.ncols)], 1)
    product = _matmul_reference(m, column).transpose()
    return dict(sorted(product.rows[0].items()))


def _assert_products_match_reference(m):
    for other in (m.transpose(), _conjugate(m).transpose()):
        for left, right in ((m, other), (other, m)):
            assert left @ right == _matmul_reference(left, right)
    v = {j: ONE for j in range(1, m.ncols, 2)}
    assert m.apply(v) == _dense_apply(m, v)


def test_matmul_matches_dense_reference_on_sparse_random_matrices():
    matrices = list(_sparse_random_matrices())
    for m in matrices:
        _assert_products_match_reference(m)
    for a, b in zip(matrices, matrices[1:]):
        if a.ncols == b.nrows:
            assert a @ b == _matmul_reference(a, b)


def test_matmul_matches_dense_reference_on_corpus_operator_matrices():
    checked = 0
    for m in _corpus_operator_matrices(("d", "del", "delbar", "deldelbar")):
        _assert_products_match_reference(m)
        checked += 1
    assert checked > 0


def test_matmul_zero_tests_each_entry_once(monkeypatch):
    rng = random.Random(40)
    a, b = (
        dense([[_random_scalar(rng, 0.1) for _ in range(40)] for _ in range(40)])
        for _ in range(2)
    )
    expected = _matmul_reference(a, b)
    original = Scalar.__bool__
    calls = []

    def counting_bool(z):
        calls.append(None)
        return original(z)

    monkeypatch.setattr(Scalar, "__bool__", counting_bool)
    product = a @ b
    monkeypatch.undo()
    assert len(calls) <= a.nrows * a.ncols + b.nrows * b.ncols
    assert product == expected


# -- the integer kernel: common denominators, cancellation, empty shapes --------
# Matrix equality compares the canonical triples of the entries, so a product
# entry left unreduced by the kernel fails these comparisons.


def _distinct_primes(rng, count, low=10**5, high=10**6):
    found: list[int] = []
    while len(found) < count:
        x = rng.randrange(low, high) | 1
        if x not in found and all(x % k for k in range(3, int(x**0.5) + 1, 2)):
            found.append(x)
    return found


def _coprime_scalars(rng, count):
    # each value over its own prime up to 10^6: pairwise coprime denominators
    big = 10**6
    return [
        Scalar(Fraction(rng.randint(-big, big), p), Fraction(rng.randint(-big, big), p))
        for p in _distinct_primes(rng, count)
    ]


def _coprime_denominator_matrix(rng, nrows, ncols):
    entries = [x if rng.random() < 0.8 else ZERO for x in _coprime_scalars(rng, nrows * ncols)]
    return dense([entries[i : i + ncols] for i in range(0, len(entries), ncols)], ncols)


def test_matmul_matches_reference_with_large_coprime_denominators():
    rng = random.Random(43)
    for _ in range(6):
        m, k, n = rng.randint(1, 5), rng.randint(1, 6), rng.randint(1, 5)
        a = _coprime_denominator_matrix(rng, m, k)
        b = _coprime_denominator_matrix(rng, k, n)
        for left, right in ((a, b), (b.transpose(), _conjugate(a).transpose())):
            product = left @ right
            _assert_sparse_rows(product)
            assert product == _matmul_reference(left, right)


def test_matmul_stores_no_entry_that_cancels_to_zero():
    u, v, w, x = _coprime_scalars(random.Random(44), 4)
    # row 0 cancels everywhere, row 1 at column 1 only
    a = dense([[x, -x, 0], [1, 0, -1]])
    b = dense([[u, w], [u, w], [v, w]])
    product = a @ b
    assert product.rows == ({}, {0: u - v})
    assert product == _matmul_reference(a, b)
    # row 0 cancels across the different denominators of u, v and u + v
    c = dense([[u], [v], [u + v]])
    d = dense([[1, 1, -1], [1, 0, 0]])
    assert (d @ c).rows == ({}, {0: u})
    assert d @ c == _matmul_reference(d, c)


def test_matmul_of_empty_shapes():
    a = _coprime_denominator_matrix(random.Random(45), 3, 4)
    for left, right in (
        (Matrix.zeros(0, 3), a),
        (Matrix.zeros(3, 0), Matrix.zeros(0, 4)),
        (a, Matrix.zeros(4, 0)),
    ):
        product = left @ right
        assert product.shape == (left.nrows, right.ncols)
        assert product.rows == tuple({} for _ in range(left.nrows))
        assert product == _matmul_reference(left, right)


def test_matmul_matches_reference_on_random_metric_adjoint_and_star_matrices():
    # dense Gaussian-rational matrices: the adjoints -S' conj(D) conj(S) and
    # the stars of three seeded random metrics on every unimodular entry
    from liecohom import corpus
    from liecohom.cohomology import operator_matrix
    from liecohom.hodge import random_positive_metric

    rng = random.Random(46)
    checked = 0
    for name in corpus.names():
        s = corpus.get(name).load().structure
        if not s.flags.unimodular:
            continue
        for h in [random_positive_metric(s.n, rng) for _ in range(3)]:
            for p in range(s.n + 1):
                for q in range(s.n + 1):
                    mats = [h._star_matrix(p, q)]
                    mats += [
                        operator_matrix(op, s, p, q, h) for op in ("del_adj", "delbar_adj")
                    ]
                    for m in mats:
                        if m.nrows and m.ncols and not m.is_zero():
                            _assert_products_match_reference(m)
                            checked += 1
    assert checked > 0


# -- the storage invariant: rows hold their nonzero entries only ----------------


def _assert_sparse_rows(m):
    assert len(m.rows) == m.nrows
    for row in m.rows:
        assert all(x for x in row.values())
        assert all(j in range(m.ncols) for j in row)


def _assert_echelon_rows(space):
    # row k is 1 at its pivot (its smallest key) and 0 at every other pivot
    _assert_sparse_rows(Matrix.sparse(space.rows, space.ambient))
    pivots = [min(row) for row in space.rows]
    assert pivots == sorted(set(pivots))
    assert space._index == {c: k for k, c in enumerate(pivots)}
    for row, c in zip(space.rows, pivots):
        assert row[c] == ONE and not any(d in row for d in pivots if d != c)


def test_every_result_keeps_only_nonzero_entries_in_range():
    matrices = list(_sparse_random_matrices())
    matrices += _corpus_operator_matrices(("del", "delbar"))
    for m in matrices:
        t = m.transpose()
        minus = Matrix.sparse([{j: -x for j, x in row.items()} for row in m.rows], m.ncols)
        results = [
            m, t, m @ t, t @ m, m + m, m + minus, vstack([m, _conjugate(m)]), hstack([m, m]),
            rref(m)[0],
        ]
        for result in results:
            _assert_sparse_rows(result)
        _assert_echelon_rows(kernel_basis(m))
        for ambient, rows in ((m.ncols, m.rows), (m.nrows, t.rows)):
            _assert_echelon_rows(Subspace(ambient, rows))
        assert (m + minus).is_zero()
        assert (m + minus).rows == tuple({} for _ in range(m.nrows))
    # dense rows that cancel in the product leave empty rows behind
    a = dense([[1, 1], [I, 0]])
    b = dense([[1, 2], [-1, -2]])
    product = a @ b
    _assert_sparse_rows(product)
    assert product.rows[0] == {}
    assert product.rows[1] == {0: I, 1: 2 * I}
    assert dense([[0, 0, 5]]).rows == ({2: Scalar(5)},)
    # solve on empty shapes: no equations, no unknowns
    assert solve(Matrix.zeros(0, 2), {}) == {}
    assert solve(Matrix.zeros(2, 0), _row([1, 0])) is None
    assert solve(Matrix.zeros(2, 0), _row([0, 0])) == {}


def test_rref_is_canonical_under_row_permutations():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(11)
    matrices = list(_sparse_random_matrices())
    matrices += _corpus_operator_matrices(("d", "del", "delbar"))
    for m in matrices:
        _assert_rref_canonical_under_row_permutations(sympy, m, rng)


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


def _dense_gaussian_matrices():
    # a few seeded dense matrices of Gaussian rationals, some rank-deficient
    rng = random.Random(23)
    for nrows, ncols in ((3, 5), (4, 4), (2, 6), (5, 3)):
        rows = [[_random_scalar(rng) for _ in range(ncols)] for _ in range(nrows)]
        rows.append([x + I * y for x, y in zip(rows[0], rows[-1])])
        yield dense(rows)


def test_kernel_basis_is_already_the_canonical_subspace():
    # re-reducing the kernel rows changes nothing: not the rows, not the
    # pivot index
    matrices = list(_sparse_random_matrices()) + list(_dense_gaussian_matrices())
    matrices += _corpus_operator_matrices(("d", "del", "delbar", "deldelbar"))
    for m in matrices:
        kb = kernel_basis(m)
        rebuilt = Subspace(m.ncols, kb.rows)
        assert kb == rebuilt
        assert kb._index == rebuilt._index
        assert kb.ambient == m.ncols


# -- elimination on dense rows: the inputs the integer-triple updates serve ------


def _coprime_dense_matrices():
    # dense rows over large pairwise coprime denominators, the last row a
    # combination of the first two, so entries cancel in the elimination
    rng = random.Random(47)
    for nrows, ncols in ((3, 4), (4, 6), (5, 5), (2, 7)):
        rows = [_coprime_scalars(rng, ncols) for _ in range(nrows)]
        u, v = _coprime_scalars(rng, 2)
        rows.append([u * x + v * y for x, y in zip(rows[0], rows[1])])
        yield dense(rows)


def _harmonic_stacks():
    """The stacks ``harmonic_space`` hands to ``kernel_basis`` on the n=4
    ladder at Aeppli (3,3) and (2,2), under three seeded random metrics."""
    from test_cohomology import _ladder

    from liecohom import cohomology
    from liecohom.hodge import random_positive_metric

    s = _ladder(4)
    rng = random.Random(48)
    seen, stacks = [], []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cohomology, "kernel_basis", lambda m: seen.append(m) or kernel_basis(m))
        for h in [random_positive_metric(4, rng) for _ in range(3)]:
            for p, q in ((3, 3), (2, 2)):
                start = len(seen)
                cohomology.harmonic_space("a", s, h, p, q)
                stacks.append(seen[start])  # the stack comes before the guard's work
    # the (2,2) stacks hold the dense conj(M N) rows
    assert any(len(row) == 36 for m in stacks for row in m.rows)
    return stacks


def test_rref_and_kernel_match_sympy_on_dense_rows():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(12)
    matrices = list(_dense_gaussian_matrices()) + list(_coprime_dense_matrices())
    matrices += _harmonic_stacks()
    for m in matrices:
        _assert_rref_matches_sympy(sympy, m)
        _assert_kernel_matches_sympy(sympy, m)
        _assert_rref_canonical_under_row_permutations(sympy, m, rng)


def _assert_canonical_entries(row, size):
    # every stored entry is a nonzero Scalar in lowest terms, keyed in range
    for j, x in row.items():
        a, b, d = parts(x)
        assert type(x) is Scalar and 0 <= j < size, (j, x)
        assert (a or b) and d > 0 and gcd(a, b, d) == 1, (j, a, b, d)


def _rank_reference(rows, ambient):
    """Rank by dense Gaussian elimination in Scalar arithmetic."""
    work = [[r.get(j, ZERO) for j in range(ambient)] for r in rows]
    rank = 0
    for c in range(ambient):
        p = next((i for i in range(rank, len(work)) if work[i][c]), None)
        if p is None:
            continue
        work[rank], work[p] = work[p], work[rank]
        for i in range(rank + 1, len(work)):
            f = work[i][c] / work[rank][c]
            work[i] = [x - f * y for x, y in zip(work[i], work[rank])]
        rank += 1
    return rank


def _representatives_reference(numerator, images):
    # numerator row k is a representative when it raises the rank of the
    # images and rows 0..k-1
    ambient, rows = numerator.ambient, list(numerator.rows)
    return [
        v
        for k, v in enumerate(rows)
        if _rank_reference(images + rows[: k + 1], ambient)
        > _rank_reference(images + rows[:k], ambient)
    ]


def _dense_rows(rng, count, ambient, coprime):
    if coprime:
        return [_row(_coprime_scalars(rng, ambient)) for _ in range(count)]
    return [_row([_random_scalar(rng) for _ in range(ambient)]) for _ in range(count)]


def _combination(rng, rows, ambient):
    coeffs = [_random_scalar(rng) for _ in rows]
    return _row(
        [sum((c * r.get(j, ZERO) for c, r in zip(coeffs, rows)), ZERO) for j in range(ambient)]
    )


def test_contains_and_quotients_match_scalar_reference_on_dense_rows():
    rng = random.Random(20261021)
    seen = set()
    for trial in range(30):
        ambient = rng.randint(2, 7)
        gens = _dense_rows(rng, rng.randint(1, ambient - 1), ambient, trial % 3 == 0)
        space = Subspace(ambient, gens)
        member = _combination(rng, gens, ambient)
        unit = {rng.randrange(ambient): ONE}
        # a member plus a unit vector: the member's entries all cancel
        shifted = {
            j: x for j in range(ambient) if (x := member.get(j, ZERO) + unit.get(j, ZERO))
        }
        for v in (member, shifted, *_dense_rows(rng, 2, ambient, trial % 2 == 0)):
            residue = _reduce_reference(space, v)
            in_span = _rank_reference(gens + [v], ambient) == space.dim
            assert space.contains(v) == (not residue) == in_span, trial
            if v and len(residue) < len(v):
                seen.add("cancelled" if residue else "member")
        numerator = Subspace(ambient, gens + _dense_rows(rng, 1, ambient, False))
        images = [_combination(rng, gens, ambient) for _ in range(rng.randint(0, 3))]
        reps = quotient_representatives(numerator, images)
        assert reps == _representatives_reference(numerator, images), trial
        for v in reps:
            _assert_canonical_entries(v, ambient)
    assert {"member", "cancelled"} <= seen


def test_rref_builds_no_scalar_per_update(monkeypatch):
    # the updates run on integer triples: a dense elimination calls none of
    # Scalar's arithmetic
    rng = random.Random(49)
    m = dense([[_random_scalar(rng) for _ in range(9)] for _ in range(7)])
    expected = rref(m)
    calls = []
    names = ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__", "__rsub__")
    for name in names + ("__truediv__", "__rtruediv__", "__neg__"):
        original = getattr(Scalar, name)
        monkeypatch.setattr(
            Scalar, name, lambda *args, f=original, name=name: calls.append(name) or f(*args)
        )
    got = rref(m)
    monkeypatch.undo()
    assert calls == []
    assert got == expected
    assert expected[1]  # it did work
