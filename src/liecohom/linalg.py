"""Exact linear algebra over the Gaussian rationals.

Everything here is deterministic: row reduction picks the first nonzero
pivot, so echelon bases come out in a canonical form (RREF is unique),
and Subspace equality is literal row equality.  Arithmetic is exact, so no
pivoting heuristics are needed; sizes grow as binomials in the coframe size
(n = 5 reaches C(10, 5) = 252 columns in de Rham degree 5).

Matrices are stored as dense rows, but the operator matrices are sparse,
so products and eliminations touch nonzero entries only.  The product
``A @ B`` lists the nonzero ``(column, entry)`` pairs of each row of B
once; each nonzero ``A[i][k]`` then meets just the pairs of row k, and
row i of the product accumulates in a dict from zero, over increasing k as
the dense triple loop would.  So each entry of A and B is zero-tested once.
``apply`` likewise finds the support of the vector once.  ``rref`` scales
each pivot row once, collects its nonzero columns (all at or right of the
pivot) and updates only those entries of the rows that are nonzero in the
pivot column; ``Subspace.reduce`` and the quotient loop skip echelon rows
whose pivot entry in the vector is zero and zero entries of the rows they
do use.  Since ``x - f*0 == x`` and ``x + 0 == x`` exactly and RREF is
unique, the results are those of dense arithmetic.

``quotient_representatives`` keeps a running echelon: the denominator's
rows, then the residue of each accepted numerator row, scaled to 1 at its
first nonzero entry (its pivot).  A residue is zero at every earlier
pivot, so reducing in insertion order decides span membership exactly as
a freshly row-reduced basis would, with no RREF per accepted row.
"""

from __future__ import annotations

from typing import Sequence

from .scalars import ONE, ZERO, Scalar

Vector = tuple[Scalar, ...]


def vec(values) -> Vector:
    return tuple(Scalar.coerce(v) for v in values)


def zero_vector(k: int) -> Vector:
    return tuple([ZERO] * k)


def vec_add(a: Vector, b: Vector) -> Vector:
    return tuple(x + y for x, y in zip(a, b))


def vec_is_zero(a: Vector) -> bool:
    return all(not x for x in a)


class Matrix:
    """An exact matrix held as dense rows, with an explicit shape (rows may
    be empty); the product and ``apply`` skip zero entries."""

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, rows: Sequence[Sequence], ncols: int | None = None):
        rows = [tuple(Scalar.coerce(x) for x in row) for row in rows]
        if rows:
            ncols_found = len(rows[0])
            if any(len(r) != ncols_found for r in rows):
                raise ValueError("ragged rows")
            if ncols is not None and ncols != ncols_found:
                raise ValueError("ncols does not match row length")
            ncols = ncols_found
        elif ncols is None:
            raise ValueError("empty matrix needs an explicit ncols")
        self.rows = tuple(rows)
        self.nrows = len(rows)
        self.ncols = ncols

    @staticmethod
    def zeros(nrows: int, ncols: int) -> "Matrix":
        return Matrix([[ZERO] * ncols for _ in range(nrows)], ncols=ncols)

    @staticmethod
    def identity(k: int) -> "Matrix":
        return Matrix(
            [[ONE if i == j else ZERO for j in range(k)] for i in range(k)], ncols=k
        )

    @staticmethod
    def from_columns(cols: Sequence[Vector], nrows: int) -> "Matrix":
        return Matrix(
            [[col[i] for col in cols] for i in range(nrows)], ncols=len(cols)
        )

    def column(self, j: int) -> Vector:
        return tuple(row[j] for row in self.rows)

    def transpose(self) -> "Matrix":
        return Matrix(
            [[self.rows[i][j] for i in range(self.nrows)] for j in range(self.ncols)],
            ncols=self.nrows,
        )

    def conjugate(self) -> "Matrix":
        return Matrix(
            [[x.conjugate() if x else ZERO for x in row] for row in self.rows],
            ncols=self.ncols,
        )

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        # the nonzero (column, entry) pairs of each right row, found once
        right = [[(j, y) for j, y in enumerate(row) if y] for row in other.rows]
        out = []
        for left in self.rows:
            acc: dict[int, Scalar] = {}
            for k, x in enumerate(left):
                if x:
                    for j, y in right[k]:
                        acc[j] = acc.get(j, ZERO) + x * y
            out.append([acc.get(j, ZERO) for j in range(other.ncols)])
        return Matrix(out, ncols=other.ncols)

    def __add__(self, other: "Matrix") -> "Matrix":
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} + {other.shape}")
        return Matrix(
            [vec_add(a, b) for a, b in zip(self.rows, other.rows)], ncols=self.ncols
        )

    def __neg__(self) -> "Matrix":
        return self.scale(-1)

    def scale(self, c) -> "Matrix":
        c = Scalar.coerce(c)
        return Matrix(
            [[c * x if x else ZERO for x in row] for row in self.rows], ncols=self.ncols
        )

    def apply(self, v: Vector) -> Vector:
        if len(v) != self.ncols:
            raise ValueError("vector length does not match ncols")
        support = [(k, x) for k, x in enumerate(v) if x]
        return tuple(sum((row[k] * x for k, x in support), ZERO) for row in self.rows)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def is_zero(self) -> bool:
        return all(vec_is_zero(r) for r in self.rows)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.shape == other.shape and self.rows == other.rows

    def __hash__(self):
        return hash((self.shape, self.rows))

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols})"


def vstack(mats: Sequence[Matrix]) -> Matrix:
    ncols = mats[0].ncols
    if any(m.ncols != ncols for m in mats):
        raise ValueError("vstack needs equal ncols")
    rows: list[Sequence] = []
    for m in mats:
        rows.extend(m.rows)
    return Matrix(rows, ncols=ncols)


def hstack(mats: Sequence[Matrix]) -> Matrix:
    nrows = mats[0].nrows
    if any(m.nrows != nrows for m in mats):
        raise ValueError("hstack needs equal nrows")
    rows = []
    for i in range(nrows):
        row: list[Scalar] = []
        for m in mats:
            row.extend(m.rows[i])
        rows.append(row)
    return Matrix(rows, ncols=sum(m.ncols for m in mats))


def rref(matrix: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form with first-nonzero pivoting; returns
    (canonical RREF, pivot column indices)."""
    rows = [list(r) for r in matrix.rows]
    nrows, ncols = matrix.shape
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if rows[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        prow = rows[r]
        inv = ONE / prow[c]
        # prow is zero left of c: earlier pivots were eliminated from it and
        # the other columns had no nonzero in rows r.. (else they would pivot)
        support = [j for j in range(c, ncols) if prow[j]]
        for j in support:
            prow[j] = inv * prow[j]
        for i in range(nrows):
            row = rows[i]
            factor = row[c]
            if factor and i != r:
                for j in support:
                    row[j] = row[j] - factor * prow[j]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return Matrix(rows, ncols=ncols), pivots


def rank(matrix: Matrix) -> int:
    return len(rref(matrix)[1])


def kernel_basis(matrix: Matrix) -> list[Vector]:
    """Deterministic basis of the null space (one vector per free column)."""
    reduced, pivots = rref(matrix)
    pivot_set = set(pivots)
    free = [c for c in range(matrix.ncols) if c not in pivot_set]
    out = []
    for f in free:
        v = [ZERO] * matrix.ncols
        v[f] = ONE
        for r, c in enumerate(pivots):
            v[c] = -reduced.rows[r][f]
        out.append(tuple(v))
    return out


def solve(matrix: Matrix, b: Vector):
    """One exact solution of M x = b with free variables set to 0, or None."""
    if len(b) != matrix.nrows:
        raise ValueError("right-hand side has wrong length")
    aug = hstack([matrix, Matrix([[x] for x in b], ncols=1) if b else Matrix([], ncols=1)])
    if matrix.nrows == 0:
        return zero_vector(matrix.ncols)
    reduced, pivots = rref(aug)
    for r in range(len(pivots)):
        if pivots[r] == matrix.ncols:
            return None  # pivot in the augmented column: inconsistent
    x = [ZERO] * matrix.ncols
    for r, c in enumerate(pivots):
        x[c] = reduced.rows[r][matrix.ncols]
    return tuple(x)


def _eliminate(v: list, rows: Sequence[Vector], pivots: Sequence[int]) -> None:
    """Reduce v in place against rows taken in order.

    Row k must be 1 at pivots[k], zero left of it and zero at every earlier
    pivot; then v ends zero at every pivot.
    """
    for row, c in zip(rows, pivots):
        factor = v[c]
        if factor:
            for j in range(c, len(v)):
                y = row[j]
                if y:
                    v[j] = v[j] - factor * y


class Subspace:
    """A subspace of Scalar^ambient held as canonical echelon rows."""

    __slots__ = ("ambient", "rows", "_pivots")

    def __init__(self, ambient: int, vectors: Sequence[Vector] = ()):
        self.ambient = ambient
        if vectors:
            reduced, pivots = rref(Matrix(list(vectors), ncols=ambient))
            self.rows = tuple(reduced.rows[: len(pivots)])
            self._pivots = tuple(pivots)
        else:
            self.rows = ()
            self._pivots = ()

    @property
    def dim(self) -> int:
        return len(self.rows)

    def basis_vectors(self) -> tuple[Vector, ...]:
        return self.rows

    def reduce(self, v: Vector) -> Vector:
        """Residue of v after elimination against the echelon basis."""
        v = list(v)
        _eliminate(v, self.rows, self._pivots)
        return tuple(v)

    def contains(self, v: Vector) -> bool:
        return vec_is_zero(self.reduce(v))

    def contains_subspace(self, other: "Subspace"):
        """(True, None) or (False, witness vector in other but not self)."""
        for v in other.rows:
            if not self.contains(v):
                return False, v
        return True, None

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient == other.ambient and self.rows == other.rows

    def __hash__(self):
        return hash((self.ambient, self.rows))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.ambient})"


def quotient_representatives(
    numerator: Subspace, denominator: Subspace
) -> list[Vector]:
    """Vectors from the numerator's echelon basis completing the denominator.

    Raises PreconditionError (with a witness) if the denominator is not
    contained in the numerator.
    """
    from .errors import PreconditionError

    ok, witness = numerator.contains_subspace(denominator)
    if not ok:
        raise PreconditionError(
            f"denominator is not contained in numerator; witness {witness}"
        )
    rows = list(denominator.rows)
    pivots = list(denominator._pivots)
    reps = []
    for v in numerator.rows:
        residue = list(v)
        _eliminate(residue, rows, pivots)
        c = next((j for j, x in enumerate(residue) if x), None)
        if c is not None:
            reps.append(v)
            inv = ONE / residue[c]
            rows.append([inv * x if x else x for x in residue])
            pivots.append(c)
    return reps

