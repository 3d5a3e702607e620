"""Exact linear algebra over the Gaussian rationals.

Everything here is deterministic: row reduction picks the first nonzero
pivot, so echelon bases come out in a canonical form (RREF is unique),
and Subspace equality is literal row equality.  Arithmetic is exact, so no
pivoting heuristics are needed; sizes grow as binomials in the coframe size
(n = 5 reaches C(10, 5) = 252 columns in de Rham degree 5).

A Matrix stores each row as a dict ``{column: entry}`` holding its nonzero
entries only; every operation keeps that invariant, dropping any entry
that cancels to zero, so the sparse operator matrices cost in proportion
to their nonzeros.  The product ``A @ B`` meets each nonzero ``A[i][k]``
with the stored entries of row k of B and accumulates row i of the
product in a dict; ``rref`` scales each pivot row once and updates only
the rows holding an entry in the pivot column, and only at the pivot
row's columns.  The public constructor takes dense rows, coerces and
drops zeros; the engine's own results go through the trusted
``Matrix.sparse``.  Vectors, and ``Subspace`` rows, stay dense tuples;
``Subspace.reduce`` and the quotient loop skip echelon rows whose pivot
entry in the vector is zero and zero entries of the rows they do use.
Since ``x - f*0 == x`` and ``x + 0 == x`` exactly and RREF is unique, the
results are those of dense arithmetic.

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


def vec_is_zero(a: Vector) -> bool:
    return all(not x for x in a)


class Matrix:
    """An exact matrix with an explicit shape (it may have no rows) whose
    rows are dicts ``{column: entry}`` holding the nonzero entries only.
    Rows are never changed once a Matrix holds them, so results may share
    them."""

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, rows: Sequence[Sequence], ncols: int | None = None):
        rows = [tuple(row) for row in rows]
        if rows:
            ncols_found = len(rows[0])
            if any(len(r) != ncols_found for r in rows):
                raise ValueError("ragged rows")
            if ncols is not None and ncols != ncols_found:
                raise ValueError("ncols does not match row length")
            ncols = ncols_found
        elif ncols is None:
            raise ValueError("empty matrix needs an explicit ncols")
        self.rows = tuple(
            {j: y for j, x in enumerate(row) if (y := Scalar.coerce(x))} for row in rows
        )
        self.nrows = len(rows)
        self.ncols = ncols

    @staticmethod
    def sparse(rows: Sequence[dict[int, Scalar]], ncols: int) -> "Matrix":
        """Trusted constructor: rows of nonzero Scalars keyed in range(ncols),
        taken as they are, with no check and no coercion."""
        m = Matrix.__new__(Matrix)
        m.rows, m.nrows, m.ncols = tuple(rows), len(rows), ncols
        return m

    @staticmethod
    def zeros(nrows: int, ncols: int) -> "Matrix":
        return Matrix.sparse([{} for _ in range(nrows)], ncols)

    @staticmethod
    def identity(k: int) -> "Matrix":
        return Matrix.sparse([{i: ONE} for i in range(k)], k)

    def row(self, i: int) -> Vector:
        """Row i as a dense vector."""
        row = self.rows[i]
        return tuple(row.get(j, ZERO) for j in range(self.ncols))

    def transpose(self) -> "Matrix":
        cols: list[dict[int, Scalar]] = [{} for _ in range(self.ncols)]
        for i, row in enumerate(self.rows):
            for j, x in row.items():
                cols[j][i] = x
        return Matrix.sparse(cols, self.nrows)

    def conjugate(self) -> "Matrix":
        return Matrix.sparse(
            [{j: x.conjugate() for j, x in row.items()} for row in self.rows], self.ncols
        )

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        out = []
        for left in self.rows:
            acc: dict[int, Scalar] = {}
            for k, x in left.items():
                for j, y in other.rows[k].items():
                    acc[j] = acc.get(j, ZERO) + x * y
            out.append({j: z for j, z in acc.items() if z})
        return Matrix.sparse(out, other.ncols)

    def __add__(self, other: "Matrix") -> "Matrix":
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} + {other.shape}")
        out = []
        for a, b in zip(self.rows, other.rows):
            row = dict(a)
            for j, y in b.items():
                z = row.pop(j, ZERO) + y
                if z:
                    row[j] = z
            out.append(row)
        return Matrix.sparse(out, self.ncols)

    def __neg__(self) -> "Matrix":
        return self.scale(-1)

    def scale(self, c) -> "Matrix":
        c = Scalar.coerce(c)
        return Matrix.sparse(
            [{j: y for j, x in row.items() if (y := c * x)} for row in self.rows],
            self.ncols,
        )

    def apply(self, v: Vector) -> Vector:
        if len(v) != self.ncols:
            raise ValueError("vector length does not match ncols")
        support = {k: x for k, x in enumerate(v) if x}
        return tuple(
            sum((y * support[k] for k, y in row.items() if k in support), ZERO)
            for row in self.rows
        )

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def is_zero(self) -> bool:
        return not any(self.rows)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.shape == other.shape and self.rows == other.rows

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols})"


def vstack(mats: Sequence[Matrix]) -> Matrix:
    ncols = mats[0].ncols
    if any(m.ncols != ncols for m in mats):
        raise ValueError("vstack needs equal ncols")
    return Matrix.sparse([row for m in mats for row in m.rows], ncols)


def hstack(mats: Sequence[Matrix]) -> Matrix:
    nrows = mats[0].nrows
    if any(m.nrows != nrows for m in mats):
        raise ValueError("hstack needs equal nrows")
    return vstack([m.transpose() for m in mats]).transpose()


def rref(matrix: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form with first-nonzero pivoting; returns
    (canonical RREF, pivot column indices)."""
    rows = [dict(r) for r in matrix.rows]
    nrows, ncols = matrix.shape
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if c in rows[i]), None)
        if pivot_row is None:
            continue
        inv = ONE / rows[pivot_row][c]
        prow = {j: inv * x for j, x in rows[pivot_row].items()}
        rows[pivot_row], rows[r] = rows[r], prow
        for i, row in enumerate(rows):
            factor = row.get(c)
            if factor is not None and i != r:
                for j, y in prow.items():
                    z = row.pop(j, ZERO) - factor * y
                    if z:
                        row[j] = z
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return Matrix.sparse(rows, ncols), pivots


def rank(matrix: Matrix) -> int:
    return len(rref(matrix)[1])


def kernel_basis(matrix: Matrix) -> list[Vector]:
    """Deterministic basis of the null space (one vector per free column)."""
    reduced, pivots = rref(matrix)
    pivot_set = set(pivots)
    out = []
    for f in range(matrix.ncols):
        if f in pivot_set:
            continue
        v = [ZERO] * matrix.ncols
        v[f] = ONE
        for row, c in zip(reduced.rows, pivots):
            v[c] = -row.get(f, ZERO)
        out.append(tuple(v))
    return out


def solve(matrix: Matrix, b: Vector):
    """One exact solution of M x = b with free variables set to 0, or None."""
    if len(b) != matrix.nrows:
        raise ValueError("right-hand side has wrong length")
    n = matrix.ncols
    aug = Matrix.sparse(
        [{**row, n: x} if x else row for row, x in zip(matrix.rows, b)], n + 1
    )
    reduced, pivots = rref(aug)
    if pivots and pivots[-1] == n:
        return None  # pivot in the augmented column: inconsistent
    x = [ZERO] * n
    for row, c in zip(reduced.rows, pivots):
        x[c] = row.get(n, ZERO)
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
            self.rows = tuple(reduced.row(i) for i in range(len(pivots)))
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

