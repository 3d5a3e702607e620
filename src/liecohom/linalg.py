"""Exact linear algebra over the Gaussian rationals.

Everything here is deterministic and canonical: RREF is unique, so echelon
bases come out the same whatever pivot rows the elimination picks, and
Subspace equality is literal row equality.  Arithmetic is exact, so no
pivoting is needed for stability; sizes grow as binomials in the coframe
size (n = 6 reaches C(12, 6) = 924 columns in de Rham degree 6).

A Matrix stores each row as a sparse dict ``{column: entry}`` (a ``Row``)
holding its nonzero entries only; every operation keeps that invariant,
dropping any entry that cancels to zero, so the sparse operator matrices
cost in proportion to their nonzeros.  ``rref`` keeps an index from each
column to the rows holding an entry there: at column c it picks the
shortest free row holding c as the pivot row, scales it once and updates
only the other rows that hold c, and only at the pivot row's columns.  Every
Matrix is built by the trusted ``Matrix.sparse``: the engine's rows hold
nonzero Scalars only, so there is nothing to coerce or check.

The product ``A @ B`` sums Gaussian integers.  A row of A with one entry
x at k has nothing to sum: its product row is x times row k of B.  For the
rows with two or more entries, it puts the rows of B they meet over one
common denominator e and row i of A over its own d, meets each nonzero
``A[i][k]`` with the stored entries of row k of B, and accumulates the real
and imaginary parts of row i as plain ``int`` sums (``_gaussian_sums``).
Each nonzero sum then becomes one entry ``(re + im*i)/(d*e)``, reduced to
lowest terms once; a Scalar is canonical, so the entries are those of Scalar
arithmetic.  The sparse operator products are mostly one-entry rows.  The
metric layer sums its adjoint kernel rows from integer rows it already
holds (``hodge.HermitianMetric.adjoint_kernel_rows``) with the same
``_gaussian_sums``, so there is one product kernel.

Null spaces, subspaces and quotients stay in sparse rows from end to end.
``kernel_basis`` returns the null space as its canonical ``Subspace`` from
at most one ``rref``: it reduces M with its columns reversed, so that each
free column's kernel vector has that column as its smallest key, with value
1, and no other vector holds it.  Those vectors, by free column, are already
the echelon rows of the null space, and nothing reduces them again.
``Subspace`` reduces any other rows once with ``rref`` and keeps the echelon
rows.  Since ``x - f*0 == x`` and ``x + 0 == x`` exactly and RREF is
unique, the results are those of dense arithmetic.  Vectors are sparse rows
everywhere: ``Matrix.apply`` and ``solve`` take and return a ``Row``
holding the nonzero coordinates only.

``rref`` is the only elimination; containment is a rebuild through the
product.  An echelon row is 1 at its pivot and 0 at every other pivot, so a
vector lies in the span exactly when its entries at the pivots, its
coordinates, times the echelon rows give the vector back (``_coordinates``,
one product for a whole batch).  ``Subspace.contains`` and
``quotient_representatives`` share that check; the quotient takes the raw
image rows, checks them against the numerator and row-reduces their
coordinates once, so the span of the images is never reduced on its own.
The operators are mostly zero on a bidegree, so known answers skip the
work: a matrix with no nonzero row has the whole space (the unit rows) as
kernel, no nonzero image keeps every numerator row, and against the whole
space a vector is its own coordinates and lies in it exactly when its keys
lie in ``range(ambient)``.

``rref`` updates entries as canonical triples ``(a, b, d)`` = (a + b*i)/d,
read with ``scalars.parts`` when an update first reaches an entry.  Every
update ``x - f*y``, pivot scaling included, runs in ``_subtract``: int
products and one gcd per entry, an entry that cancels deleted.  Each
updated entry becomes a Scalar once, through ``from_parts``; entries no
update reaches stay as they were.
"""

from __future__ import annotations

from collections import defaultdict
from math import gcd
from typing import Sequence

from .errors import PreconditionError
from .scalars import (
    ONE, ZERO, Scalar, common_denominator, format_scalar, from_parts, numerators, parts
)

Row = dict[int, Scalar]
# a row of Gaussian integers over a denominator kept elsewhere: (column, re, im)
IntRow = list[tuple[int, int, int]]


def _require_keys(v: Row, size: int, what: str):
    if v and not (0 <= min(v) and max(v) < size):
        raise ValueError(f"{what} has a key outside range({size})")


def _gaussian_sums(left: IntRow, right) -> IntRow:
    """The row sum over (k, a, b) in ``left`` of (a + bi) times the integer
    row ``right[k]``, accumulated as plain ints; the nonzero sums only, keyed
    in order of first product."""
    re: dict[int, int] = {}
    im: dict[int, int] = {}
    for k, a, b in left:
        for j, c, f in right[k]:
            re[j] = re.get(j, 0) + a * c - b * f
            im[j] = im.get(j, 0) + a * f + b * c
    # re and im share their keys, in the same order
    return [(j, x, y) for (j, x), y in zip(re.items(), im.values()) if x or y]


class Matrix:
    """An exact matrix with an explicit shape (it may have no rows) whose
    rows are dicts ``{column: entry}`` holding the nonzero entries only.
    Rows are never changed once a Matrix holds them, so results may share
    them."""

    __slots__ = ("nrows", "ncols", "rows")

    @staticmethod
    def sparse(rows: Sequence[Row], ncols: int) -> "Matrix":
        """Trusted constructor: rows of nonzero Scalars keyed in range(ncols),
        taken as they are, with no check and no coercion."""
        m = Matrix.__new__(Matrix)
        m.rows, m.nrows, m.ncols = tuple(rows), len(rows), ncols
        return m

    @staticmethod
    def zeros(nrows: int, ncols: int) -> "Matrix":
        return Matrix.sparse([{} for _ in range(nrows)], ncols)

    def transpose(self) -> "Matrix":
        cols: list[dict[int, Scalar]] = [{} for _ in range(self.ncols)]
        for i, row in enumerate(self.rows):
            for j, x in row.items():
                cols[j][i] = x
        return Matrix.sparse(cols, self.nrows)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        brows = other.rows
        right = None
        out = []
        for left in self.rows:
            if len(left) < 2:
                # nothing to sum: x times row k of B, products of nonzeros
                out.append({j: x * y for k, x in left.items() for j, y in brows[k].items()})
                continue
            if right is None:
                # the rows of B that rows with sums meet, over one denominator e
                used = set().union(*(row for row in self.rows if len(row) > 1))
                e = common_denominator(y for k in used for y in brows[k].values())
                right = {k: [(j, *numerators(y, e)) for j, y in brows[k].items()] for k in used}
            d = common_denominator(left.values())
            sums = _gaussian_sums([(k, *numerators(x, d)) for k, x in left.items()], right)
            # entry j is (x + y*i)/(d*e)
            de = d * e
            out.append({j: from_parts(x, y, de) for j, x, y in sums})
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

    def apply(self, v: Row) -> Row:
        """The product M v of the sparse column vector v, as a Row."""
        _require_keys(v, self.ncols, "vector")
        out = {}
        for i, row in enumerate(self.rows):
            x = sum((y * z for k, z in v.items() if (y := row.get(k)) is not None), ZERO)
            if x:
                out[i] = x
        return out

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
    """The blocks side by side: row i joins the i-th rows of the blocks,
    each block's columns shifted by the widths of the blocks before it."""
    nrows = mats[0].nrows
    if any(m.nrows != nrows for m in mats):
        raise ValueError("hstack needs equal nrows")
    rows: list[Row] = [{} for _ in range(nrows)]
    offset = 0
    for m in mats:
        for row, block_row in zip(rows, m.rows):
            for j, x in block_row.items():
                row[offset + j] = x
        offset += m.ncols
    return Matrix.sparse(rows, offset)


def _triple(x) -> tuple[int, int, int]:
    """The canonical triple of an entry held as a Scalar or as its triple."""
    return x if type(x) is tuple else parts(x)


def _subtract(row: dict, fa: int, fb: int, fd: int, other: list) -> list[int]:
    """``row -= f*other`` in place, for f = (fa + fb*i)/fd and ``other``
    the nonzero ``(column, a, b, d)``; each updated entry of ``row`` (a
    Scalar or a triple) is written as a triple.  Returns the columns filled
    in, and ``~j`` for each column j emptied."""
    changed = []
    for j, ya, yb, yd in other:
        re = fa * ya - fb * yb
        im = fa * yb + fb * ya
        e = fd * yd
        x = row.get(j)
        if x is None:
            a, b, d = -re, -im, e
            changed.append(j)
        else:
            a, b, d = x if type(x) is tuple else parts(x)
            a = a * e - re * d
            b = b * e - im * d
            if not (a or b):
                del row[j]
                changed.append(~j)
                continue
            d *= e
        g = gcd(a, b, d)
        row[j] = (a // g, b // g, d // g) if g != 1 else (a, b, d)
    return changed


def rref(matrix: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (canonical RREF, pivot column
    indices).  The pivot rows come first, in pivot order, then the zero
    rows."""
    # rows are shared until changed, then copied (their index in ``mine``)
    rows = list(matrix.rows)
    mine: set[int] = set()
    # column -> indices of the rows holding an entry there
    holders: defaultdict[int, set[int]] = defaultdict(set)
    for i, row in enumerate(rows):
        for j in row:
            holders[j].add(i)
    pivots: list[int] = []
    pivot_rows: list[int] = []
    done: set[int] = set()
    for c in range(matrix.ncols):
        if len(pivots) == matrix.nrows:
            break
        hold = holders.pop(c, None)
        free = hold - done if hold else None
        if not free:
            continue
        # RREF is unique, so any row not yet a pivot row will do; the
        # shortest fills in least
        p = min(free, key=lambda i: (len(rows[i]), i)) if len(free) > 1 else free.pop()
        prow = rows[p]
        pa, pb, pd = _triple(prow[c])
        if pb or pa != pd:
            # scaled row: {} - (-1/pivot)*row, 1/pivot = pd*(pa - pb*i)/(pa^2 + pb^2)
            entries = [(j, *_triple(x)) for j, x in prow.items()]
            prow = rows[p] = {}
            mine.add(p)
            _subtract(prow, -pd * pa, pd * pb, pa * pa + pb * pb, entries)
        hold.discard(p)
        if hold:
            rest = [(j, *_triple(x)) for j, x in prow.items() if j != c]
            for i in hold:
                row = rows[i]
                if i not in mine:
                    row = rows[i] = dict(row)
                    mine.add(i)
                for j in _subtract(row, *_triple(row.pop(c)), rest):
                    if j < 0:
                        holders[~j].discard(i)
                    else:
                        holders[j].add(i)
        pivots.append(c)
        pivot_rows.append(p)
        done.add(p)
    # each updated entry becomes its Scalar once (the rows left over are empty)
    for i in mine:
        rows[i] = {j: from_parts(*x) if type(x) is tuple else x for j, x in rows[i].items()}
    echelon = [rows[i] for i in pivot_rows]
    echelon += [{} for _ in range(matrix.nrows - len(pivots))]
    return Matrix.sparse(echelon, matrix.ncols), pivots


def rank(matrix: Matrix) -> int:
    return len(rref(matrix)[1])


def kernel_basis(matrix: Matrix) -> "Subspace":
    """The null space, as its canonical ``Subspace``, from at most one
    ``rref``: none when no row is nonzero, as every column is then free.

    The rref runs on M with its columns reversed (column j at ncols-1-j).
    There a reduced row holds its pivot and free columns to the right of
    it, so the kernel vector of a free column f (1 at f, minus the reduced
    column f at the pivots) holds f and pivots to the left of f only.
    Mapped back, f is that vector's smallest key, with value 1, and no other
    vector holds f: the vectors, by f ascending, are the canonical echelon
    rows of ker M, with the free columns as pivots."""
    last = matrix.ncols - 1
    # zero rows leave the kernel as it is, and most rows of the stacked
    # operator matrices are zero
    flipped = [{last - j: x for j, x in row.items()} for row in matrix.rows if row]
    reduced, pivots = (), []
    if flipped:
        echelon, pivots = rref(Matrix.sparse(flipped, matrix.ncols))
        reduced = echelon.rows[: len(pivots)]
    pivot_set = set(pivots)
    out = {f: {f: ONE} for f in range(matrix.ncols) if last - f not in pivot_set}
    # the reduced rows backwards, so each vector is keyed ascending
    for row, c in zip(reversed(reduced), reversed(pivots)):
        for j, x in row.items():
            if j != c:
                out[last - j][last - c] = -x
    return Subspace._echelon(matrix.ncols, list(out.values()), list(out))


def solve(matrix: Matrix, b: Row) -> Row | None:
    """One exact solution of M x = b with free variables set to 0, as a
    Row, or None."""
    _require_keys(b, matrix.nrows, "right-hand side")
    n = matrix.ncols
    aug = Matrix.sparse(
        [{**row, n: b[i]} if i in b else row for i, row in enumerate(matrix.rows)], n + 1
    )
    reduced, pivots = rref(aug)
    if pivots and pivots[-1] == n:
        return None  # pivot in the augmented column: inconsistent
    return {c: x for row, c in zip(reduced.rows, pivots) if (x := row.get(n)) is not None}


class Subspace:
    """A subspace of Scalar^ambient held as its canonical echelon rows:
    sparse rows, each 1 at its pivot (its smallest key) and zero at every
    other pivot.  A null space is built as one by ``kernel_basis``, whose
    reversed-column reduction yields these rows directly; any other span
    is reduced here."""

    __slots__ = ("ambient", "rows", "_index")

    def __init__(self, ambient: int, rows: Sequence[Row] = ()):
        """The span of the sparse rows (dicts of nonzero entries keyed in
        range(ambient))."""
        self.ambient = ambient
        self.rows, pivots = (), []
        if rows:
            reduced, pivots = rref(Matrix.sparse(rows, ambient))
            self.rows = reduced.rows[: len(pivots)]
        self._index = {c: k for k, c in enumerate(pivots)}  # pivot -> row

    @classmethod
    def _echelon(cls, ambient: int, rows: Sequence[Row], pivots: Sequence[int]) -> "Subspace":
        """Trusted constructor: rows that are already the canonical echelon
        rows of their span, with their pivots in order, taken as they are."""
        space = cls.__new__(cls)
        space.ambient, space.rows = ambient, tuple(rows)
        space._index = {c: k for k, c in enumerate(pivots)}
        return space

    @property
    def dim(self) -> int:
        return len(self.rows)

    def contains(self, v: Row) -> bool:
        return _coordinates(self, [v])[1] is None

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient == other.ambient and self.rows == other.rows

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.ambient})"


def _coordinates(space: Subspace, vectors: Sequence[Row]) -> tuple[list[Row], int | None]:
    """The coordinates of each vector in the echelon rows of the space, the
    coordinate of row k keyed m-1-k (m = space.dim), and the index of the
    first vector not in the space, or None.

    A vector's coordinates are its entries at the pivots, and it lies in
    the space exactly when they rebuild it: one product for the batch.  The
    whole space's rows are the unit rows, so there only the keys are
    checked."""
    m, index = space.dim, space._index
    coords = [
        {m - 1 - k: x for c, x in v.items() if (k := index.get(c)) is not None} for v in vectors
    ]
    if m == space.ambient:
        # the unit rows rebuild a vector exactly when each of its keys is a pivot
        missing = (i for i, (v, c) in enumerate(zip(vectors, coords)) if len(v) != len(c))
    else:
        rebuilt = Matrix.sparse(coords, m) @ Matrix.sparse(space.rows[::-1], space.ambient)
        missing = (i for i, (v, w) in enumerate(zip(vectors, rebuilt.rows)) if v != w)
    return coords, next(missing, None)


def quotient_representatives(numerator: Subspace, images: Sequence[Row]) -> list[Row]:
    """Rows of the numerator's echelon basis completing the span of the
    image rows (sparse rows keyed in range(numerator.ambient)), from at most
    one ``rref``; the quotient's dimension is the length of the list.

    The nonzero images are checked against the numerator together
    (``_coordinates``): the first one not in it raises PreconditionError
    as the witness.  One ``rref`` of their coordinates, if any, picks the
    rows they do not reach.
    """
    images = [d for d in images if d]
    if not images:
        return list(numerator.rows)
    coords, missing = _coordinates(numerator, images)
    if missing is not None:
        entries = ", ".join(f"{j}: {format_scalar(x)}" for j, x in sorted(images[missing].items()))
        raise PreconditionError(
            f"denominator is not contained in numerator; witness {{{entries}}}"
        )
    # numerator row k is in the span of the images and rows 0..k-1 exactly
    # when some image's last nonzero coordinate is at k; with coordinate k
    # in column m-1-k that is a pivot of one RREF
    m = numerator.dim
    taken = {m - 1 - p for p in rref(Matrix.sparse(coords, m))[1]}
    return [v for k, v in enumerate(numerator.rows) if k not in taken]
