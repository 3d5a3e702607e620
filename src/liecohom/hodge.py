"""Hermitian metrics, inner products, volume, and the anti-linear Hodge star.

A metric is a Hermitian positive-definite matrix h over the declared
coframe; its fundamental form is

    omega = (i/2) * sum_{j,k} h[j][k] f_j ^ F_k.

Conventions (all exact over the Gaussian rationals):

  * the induced product on (1,0)-forms is <f_j, f_k> = 2 * (h^-1)[k][j]
    (the conjugate of h^-1; the index order matters for non-real h), so a
    coframe with h = identity has |f_j|^2 = 2;
  * products on (p,q)-monomials are determinants of Gram minors, with the
    holomorphic and anti-holomorphic blocks paired independently, so the
    (p,q) Gram matrix is the Kronecker product of the p-th compound matrix
    of the (1,0) Gram matrix with the conjugate of its q-th compound;
  * vol = omega^n / n!, which gives <vol, vol> = 1;
  * the star of a (p,q)-form a is the unique (n-p, n-q)-form with
    alpha ^ (*a) = <alpha, a> vol for every (p,q)-form alpha, and it is
    conjugate-linear in a.  On the monomial basis that relation pairs each
    monomial only with its complement, so the star matrix is the Gram
    matrix times vol with its rows signed and permuted by the wedge
    signs, never taken from hand-derived sign tables.

Every metric table is read off one table of minors.  With D the common
denominator of h's entries, H = D*h has Gaussian-integer entries, and each
metric builds once the determinants det H[I, J] of all its square
submatrices (Laplace expansion along the first row of I).  Then, for
index sets I, J of size k (0-based, complements I^c, J^c):

  * omega^k = k! (i/2)^k (-1)^(k(k-1)/2) sum_{J,L} det h[J,L] f_J ^ F_L;
  * the k-th Gram compound is, by Jacobi's complementary-minor identity
    with g1 = 2 (h^-1)^T,
    2^k (-1)^(sum I + sum J) det h[I^c, J^c] / det h;
  * vol = (-1)^(n(n-1)/2) (i/2)^n det h f_1..f_n ^ F_1..F_n.

So omega powers, the volume, Gram and star entries are integer products
over one known denominator, each built as a Scalar once.  The compound
numerators C_k are held once, each row as {column: (re, im)}; the (p,q)
Gram entry at monomials (a, b), (a', b') (holomorphic and anti-holomorphic
subset positions) is (2D)^(p+q) C_p[a][a'] conj(C_q[b][b']) / t^2,
t = det H.  The star matrix of the (p,q) space is S = N / (t (2D)^n), and
each metric keeps its integer numerators N per (p,q), built row by row as
rows are read, and no other copy of its stars.  Row c of N is
sign * i^(n^2) (2D)^(p+q) times the Kronecker product of row a of C_p with
the conjugate of row b of C_q; (sign, a, b) does not depend on the metric
and is computed once per (n, p, q) (``_star_layout``).  The Form-level
``star`` reads complete blocks of N: it sums a form's conjugated
coordinates against the rows of N in Gaussian integers.  ``_star_matrix``
is the Scalar matrix S, built from N on each call.

The adjoints.  Let P be del or delbar with matrix M out of the
(n-p, n-q) space.  The adjoint a -> -*(P *a) out of the (p,q) space into
(p', q') has the matrix

    -S' conj(M S),

with S the star matrix of (p, q) and S' that of (n-p', n-q'), the star
back from P's target; the star is conjugate-linear, hence the conjugate.
``adjoint_matrix`` builds it whole with two Matrix products, only for
``cohomology.operator_matrix``, which keeps each once per metric and which
the decompositions and the tests' Laplacians read.

  * S' is invertible, so the adjoint's kernel is that of conj(M S), and
    so of conj(M N).  The harmonic spaces read those rows alone
    (``adjoint_kernel_rows``), summed in Gaussian integers
    (``linalg._gaussian_sums``) with N built only on the rows at M's
    nonzero columns, and with P = del delbar too (del_adj delbar_adj is
    +-*(del delbar)*).  Their guard reads Gram entries (``_gram_sums``),
    not N: no adjoint matrix is built for them.

The table's full minor det H / D^n must equal the last leading minor that
``positivity`` computes by elimination; a mismatch is an engine defect.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import factorial, gcd
from typing import Optional, Sequence

from . import linalg
from .errors import MetricError, PreconditionError
from .exterior import BasisMonomial, Form, basis, basis_index, monomial_wedge
from .linalg import IntRow, Matrix, Row, _gaussian_sums
from .scalars import ONE, ZERO, I, Scalar, common_denominator, from_parts, numerators
from .structure import StructureEquations

# No table here needs an elimination, but ``hodge.rref`` stays bound: the
# benchmark's tracer test (perfbench/tests) checks that the tracer also
# wraps ``rref`` under this second module's name.
rref = linalg.rref


def _det(rows: list[list[Scalar]]) -> Scalar:
    """Exact determinant via Gaussian elimination with pivot tracking."""
    k = len(rows)
    if k == 0:
        return ONE
    rows = [list(r) for r in rows]
    det = ONE
    for c in range(k):
        pivot = None
        for r in range(c, k):
            if rows[r][c]:
                pivot = r
                break
        if pivot is None:
            return ZERO
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            det = -det
        det = det * rows[c][c]
        inv = ONE / rows[c][c]
        for r in range(c + 1, k):
            if rows[r][c]:
                factor = rows[r][c] * inv
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[c])]
    return det


def _integer_matrix(rows) -> tuple[int, list[list[tuple[int, int]]]]:
    """(D, H) for a matrix of Scalars: D is the common denominator of its
    entries and H = D * rows, each entry as its integer pair (re, im)."""
    den = common_denominator(x for row in rows for x in row)
    return den, [[numerators(x, den) for x in row] for row in rows]


def _leading_minors(h):
    """Yield the leading principal minors of a Hermitian Gaussian-integer
    matrix h (rows of (re, im) pairs), smallest first, as ints.

    One fraction-free (Bareiss) elimination without row swaps: after the
    k-th step, each entry right of and below the k-th pivot is the minor of
    h on the first k rows and columns plus its own row and column, so the
    next pivot is the next leading minor and each division by the last
    pivot is exact.  The minors of a Hermitian matrix are real; a non-real
    one raises MetricError.  The elimination stops after the first zero
    minor, past which it would need a row swap, and a caller that stops
    reading early skips the remaining steps."""
    a = [list(row) for row in h]
    n = len(a)
    last = 1
    for k in range(n):
        p, im = a[k][k]
        if im:
            raise MetricError("principal minor is not real; matrix corrupt")
        yield p
        if not p:
            return
        top = a[k]
        for row in a[k + 1 :]:
            x, y = row[k]
            for j in range(k + 1, n):
                (u, v), (s, t) = row[j], top[j]
                # ((u + vi) p - (x + yi)(s + ti)) / last
                row[j] = ((u * p - x * s + y * t) // last, (v * p - x * t - y * s) // last)
        last = p


@lru_cache(maxsize=None)
def _laplace_plan(n: int, k: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """For each k-subset S of range(n), in ``combinations`` order: the pairs
    (S[t], position of S minus S[t] among the (k-1)-subsets), t ascending.
    Expanding det H[I, J] along row I[0] pairs the first pair of I with
    every pair of J, with sign (-1)^t."""
    below = {s: r for r, s in enumerate(combinations(range(n), k - 1))}
    return tuple(
        tuple((x, below[s[:t] + s[t + 1 :]]) for t, x in enumerate(s))
        for s in combinations(range(n), k)
    )


@lru_cache(maxsize=None)
def _star_layout(n: int, p: int, q: int) -> tuple[tuple[int, int, int], ...]:
    """For each monomial m'_c of the (n-p, n-q) basis, in basis order: the
    (sign, a, b) of row c of the (p, q) star numerators.  The (p, q)
    monomial m_a' with m_a' ^ m'_c nonzero is the complement of m'_c, at
    a' = a * C(n, q) + b, and m_a' ^ m'_c = sign f_1..f_n ^ F_1..F_n; none of
    it depends on the metric.  Complementing both blocks reverses the
    position in the basis."""
    src = basis(n, p, q)
    width = len(basis(n, 0, q))
    last = len(src) - 1
    layout = []
    for c, mc in enumerate(basis(n, n - p, n - q)):
        sign, _ = monomial_wedge(src[last - c], mc)
        layout.append((sign, *divmod(last - c, width)))
    return tuple(layout)


def _minor_table(rows) -> tuple[int, list[list[list[tuple[int, int]]]]]:
    """(D, table) for a square matrix of Scalars: D is the common
    denominator of its entries and table[k][r][c] = (re, im) of
    det H[I_r, J_c] for H = D * rows, with I_r, J_c the r-th and c-th
    k-subsets of range(n) in ``combinations`` order (table[0] = [[(1, 0)]]).
    Each k-minor expands along row I_r[0] over the (k-1)-minors, in
    Gaussian-integer arithmetic: C(2n, n) entries, k multiply-adds each."""
    n = len(rows)
    den, hint = _integer_matrix(rows)
    table = [[[(1, 0)]]]
    for k in range(1, n + 1):
        lower = table[-1]
        plan = _laplace_plan(n, k)
        level = []
        for row_plan in plan:
            i, r = row_plan[0]
            hi, sub = hint[i], lower[r]
            row = []
            for col_plan in plan:
                re = im = 0
                for t, (j, c) in enumerate(col_plan):
                    a, b = hi[j]
                    if a or b:
                        x, y = sub[c]
                        if t & 1:
                            a, b = -a, -b
                        re += a * x - b * y
                        im += a * y + b * x
                row.append((re, im))
            level.append(row)
        table.append(level)
    return den, table


class HermitianMetric:
    """A Hermitian matrix in the declared coframe plus its derived geometry.

    Derived tables (Gram matrices, volume form, star numerators) are built
    lazily and cached; construction of each table is idempotent, so lazy
    initialization is safe under concurrent first access.  The star
    numerators are cached row by row: each (p, q) block is one list,
    inserted once with ``dict.setdefault``, and a missing row is written
    with the same value by whichever caller builds it, so a caller that has
    asked for a row finds it built.
    """

    def __init__(self, rows):
        entries = [[Scalar.coerce(x) for x in row] for row in rows]
        n = len(entries)
        if n < 1 or any(len(row) != n for row in entries):
            raise MetricError("metric must be a square matrix")
        for j in range(n):
            for k in range(n):
                if entries[j][k] != entries[k][j].conjugate():
                    raise MetricError(
                        f"matrix is not Hermitian at entry ({j + 1},{k + 1})"
                    )
        self.n = n
        self.entries = tuple(tuple(row) for row in entries)
        self._hash = hash(self.entries)  # the entries never change
        self._table: Optional[tuple[int, int, list]] = None
        self._compounds: Optional[list[list[dict[int, tuple[int, int]]]]] = None
        self._gram_cache: dict[tuple[int, int], Matrix] = {}
        self._star_rows: dict[tuple[int, int], list[Optional[IntRow]]] = {}
        self._omega_powers: dict[int, Form] = {}
        self._positive: Optional[bool] = None
        self._minors: Optional[list[Fraction]] = None

    # -- constructors -------------------------------------------------------

    @staticmethod
    def identity(n: int) -> "HermitianMetric":
        return HermitianMetric(
            [[ONE if j == k else ZERO for k in range(n)] for j in range(n)]
        )

    @staticmethod
    def from_form_parameters(n: int, squares, offdiag=None) -> "HermitianMetric":
        """Metric with 2*omega = i*sum squares_j f_j^F_j
        + sum_{j<k} (z_{jk} f_j^F_k - conj(z_{jk}) f_k^F_j).

        ``squares`` are the diagonal parameters (r^2, s^2, ...);
        ``offdiag`` maps (j, k) with j < k to the parameter z_{jk}.
        """
        if len(squares) != n:
            raise MetricError(f"need {n} diagonal parameters")
        rows = [[ZERO] * n for _ in range(n)]
        for j, s in enumerate(squares):
            rows[j][j] = Scalar.coerce(s)
        for (j, k), z in (offdiag or {}).items():
            if not (1 <= j < k <= n):
                raise MetricError("off-diagonal parameters need 1 <= j < k <= n")
            z = Scalar.coerce(z)
            # coefficient of f_j^F_k in omega is (i/2) h[j][k] = z/2
            rows[j - 1][k - 1] = -I * z
            rows[k - 1][j - 1] = (-I * z).conjugate()
        return HermitianMetric(rows)

    # -- positivity ----------------------------------------------------------

    def positivity(self) -> tuple[bool, list[Fraction]]:
        """Leading-principal-minor test; returns (positive?, minors).

        The minors are read off one elimination: with D the common
        denominator of h's entries, the k-th pivot of the fraction-free
        elimination of D*h (``_leading_minors``) is D^k times the k-th
        minor.  After a zero pivot that elimination would need a row swap,
        so each later minor is computed by its own ``_det`` elimination;
        the minors are the same either way.  ``_minors_of_h`` checks the
        last minor, det h, against its table of minors built by Laplace
        expansion.  The minors are real by Hermitian symmetry; for n = 3
        their positivity is exactly the classical three-inequality
        criterion on the fundamental-form parameters.
        """
        if self._positive is None:
            den, ints = _integer_matrix(self.entries)
            minors = [Fraction(t, den**k) for k, t in enumerate(_leading_minors(ints), 1)]
            for k in range(len(minors) + 1, self.n + 1):
                m = _det([list(row[:k]) for row in self.entries[:k]])
                if not m.is_real():
                    raise MetricError("principal minor is not real; matrix corrupt")
                minors.append(m.re)
            self._minors = minors
            self._positive = all(m > 0 for m in minors)
        return self._positive, list(self._minors)

    def is_positive(self) -> bool:
        return self.positivity()[0]

    def require_positive(self):
        ok, minors = self.positivity()
        if not ok:
            shown = ", ".join(str(m) for m in minors)
            raise MetricError(f"metric is not positive definite; minors [{shown}]")

    def require_size(self, n: int):
        """Refuse a structure over n whose coframe size is not the metric's."""
        if self.n != n:
            raise PreconditionError(
                f"metric and structure sizes differ: metric over n={self.n}, "
                f"structure over n={n}"
            )

    # -- fundamental form and volume -----------------------------------------

    def fundamental_form(self) -> Form:
        """omega = (i/2) sum h[j][k] f_j ^ F_k, a real (1,1)-form."""
        return self.omega_power(1)

    def omega_power(self, k: int) -> Form:
        """omega^k = k! i^(k^2) sum_{J,L} det H[J,L] f_J ^ F_L / (2D)^k, read
        off the k-minors ((i/2)^k (-1)^(k(k-1)/2) = i^(k^2) / 2^k); the zero
        form for k > n."""
        if k < 0:
            raise ValueError("omega power must be non-negative")
        if k == 0:
            return Form.one(self.n)
        cached = self._omega_powers.get(k)
        if cached is None:
            terms = {}
            if k <= self.n:
                den, _, table = self._minors_of_h()
                f, d = factorial(k), (2 * den) ** k
                subsets = [m.holo for m in basis(self.n, k, 0)]
                for holo, row in zip(subsets, table[k]):
                    for anti, (a, b) in zip(subsets, row):
                        if a or b:
                            if k & 1:  # times i
                                a, b = -b, a
                            terms[BasisMonomial(holo, anti)] = from_parts(f * a, f * b, d)
            cached = Form(self.n, terms, _validated=True)
            self._omega_powers[k] = cached
        return cached

    def volume_form(self) -> Form:
        """vol = omega^n / n! = i^(n^2) det h f_1..f_n ^ F_1..F_n / 2^n;
        nonzero exactly when the metric is nondegenerate."""
        self.require_positive()
        den, t, _ = self._minors_of_h()
        a, b = (0, t) if self.n & 1 else (t, 0)
        full = tuple(range(1, self.n + 1))
        top = BasisMonomial(full, full)
        return Form(self.n, {top: from_parts(a, b, (2 * den) ** self.n)}, _validated=True)

    # -- the minor table --------------------------------------------------------

    def _minors_of_h(self) -> tuple[int, int, list[list[list[tuple[int, int]]]]]:
        """(D, det H, table): ``_minor_table`` of h, built once, with its
        full minor checked against the last leading minor, which
        ``positivity`` computes by elimination."""
        if self._table is None:
            den, table = _minor_table(self.entries)
            t, im = table[self.n][0][0]
            if im or Fraction(t, den**self.n) != self.positivity()[1][-1]:
                raise RuntimeError("minor table disagrees with det h; engine defect")
            self._table = (den, t, table)
        return self._table

    # -- inner products --------------------------------------------------------

    def _gram_compounds(self) -> list[list[dict[int, tuple[int, int]]]]:
        """N with the k-th compound of the Gram matrix of f_1..f_n equal to
        (2D)^k N[k] / det H, k = 0..n, built once; N[k] holds each row's
        nonzero entries as {column: (re, im)}.

        With g1 = 2 (h^-1)^T, Jacobi's complementary-minor identity gives
        N[k][I][J] = (-1)^(sum I + sum J) det H[I^c, J^c].  Complementing
        reverses a subset's position in ``combinations`` order, so row I is
        row I^c of the (n-k)-minors read backwards.  A singular h raises
        MetricError."""
        if self._compounds is None:
            n = self.n
            _, t, table = self._minors_of_h()
            if not t:
                raise MetricError("matrix is singular")
            compounds = []
            for k in range(n + 1):
                signs = [-1 if sum(s) & 1 else 1 for s in combinations(range(n), k)]
                last = len(signs) - 1
                rows = []
                for r, sr in enumerate(signs):
                    minors = table[n - k][last - r]
                    row = {}
                    for c, sc in enumerate(signs):
                        a, b = minors[last - c]
                        if a or b:
                            row[c] = (sr * sc * a, sr * sc * b)
                    rows.append(row)
                compounds.append(rows)
            self._compounds = compounds
        return self._compounds

    def gram(self, p: int, q: int) -> Matrix:
        """Gram matrix of <.,.> on the canonical (p,q)-monomial basis, read
        off ``_gram_sums`` on the unit rows.  No engine code calls it; it
        stays for the tests' reference routes and the benchmark's tracer."""
        cached = self._gram_cache.get((p, q))
        if cached is None:
            k = len(basis(self.n, p, q))  # rejects an out-of-range bidegree
            units = [{i: ONE} for i in range(k)]
            sums = self._gram_sums(p, q, units, units)
            rows = [
                {j: from_parts(*x) for j, x in enumerate(sums[i * k : (i + 1) * k]) if x[0] or x[1]}
                for i in range(k)
            ]
            cached = self._gram_cache[p, q] = Matrix.sparse(rows, k)
        return cached

    def _gram_sums(self, p: int, q: int, rows_a, rows_b) -> list[tuple[int, int, int]]:
        """<a, b> for each a of `rows_a` and b of `rows_b`, a-major, as the
        ints (re, im, d) of (re + im i) / d; a and b are sparse coordinate
        rows of (p, q)-forms.  No Gram matrix is built: each pair's
        coordinates, over their common denominators, are summed as plain
        ints against the Gram entries they meet, read off the compound
        numerators (module docstring)."""
        compounds = self._gram_compounds()
        den, t, _ = self._minors_of_h()
        scale = (2 * den) ** (p + q)
        holo, anti = compounds[p], compounds[q]
        width = len(anti)
        rights = []
        for b in rows_b:
            eb = common_denominator(b.values())
            rights.append((eb, [(*divmod(j, width), *numerators(z, eb)) for j, z in b.items()]))
        out = []
        for a in rows_a:
            ea = common_denominator(a.values())
            left = [(holo[i // width], anti[i % width], *numerators(z, ea)) for i, z in a.items()]
            for eb, right in rights:
                re = im = 0
                for hrow, arow, x, y in left:
                    for r, c, u, v in right:
                        g = hrow.get(r)
                        if g is not None:
                            k = arow.get(c)
                            if k is not None:
                                # (x + yi) conj(u + vi) g conj(k)
                                (g1, g2), (k1, k2) = g, k
                                s1, s2 = x * u + y * v, y * u - x * v
                                w1, w2 = g1 * k1 + g2 * k2, g2 * k1 - g1 * k2
                                re += s1 * w1 - s2 * w2
                                im += s1 * w2 + s2 * w1
                out.append((scale * re, scale * im, ea * eb * t * t))
        return out

    def inner(self, a: Form, b: Form) -> Scalar:
        """Pointwise Hermitian product; componentwise over bidegrees, each
        read off ``_gram_sums`` with one ``from_parts``.  Linear in the first
        slot, conjugate-linear in the second."""
        if a.n != self.n or b.n != self.n:
            raise MetricError("form coframe size does not match the metric")
        total = ZERO
        comps_b = b.components()
        for (p, q), ca in a.components().items():
            cb = comps_b.get((p, q))
            if cb is None:
                continue
            idx = basis_index(self.n, p, q)
            rows = [{idx[m]: z for m, z in f.terms.items()} for f in (ca, cb)]
            ((re, im, d),) = self._gram_sums(p, q, rows[:1], rows[1:])
            if re or im:
                part = from_parts(re, im, d)
                total = total + part if total else part
        return total

    def pairing(self, a: Form, b: Form) -> Scalar:
        """Global pairing <<a, b>>; the total volume is normalized to 1, so
        this equals the pointwise product on invariant forms."""
        return self.inner(a, b)

    # -- Hodge star -------------------------------------------------------------

    def _star_numerators(
        self, p: int, q: int, rows: Optional[Sequence[int]] = None
    ) -> list[Optional[IntRow]]:
        """The star numerators N of the (p, q) space, the star matrix being
        S = N / (t (2D)^n), t = det H, with at least the rows `rows` built
        (the whole block when None) and the others None.  One block per
        (p, q) is kept, and each row is built once per metric.  S[:, b]
        holds the coordinates of *(m_b) over the (n-p, n-q) basis, and each
        row of N its nonzero entries as (column, re, im).

        The defining relation on monomials reads  W @ S = vol_coeff * Gram
        with W[a][c] f_top = m_a ^ m'_c.  m_a ^ m'_c vanishes unless m_a is
        the complement of m'_c, so W is a signed permutation and
        S = W^T @ (vol_coeff * Gram): row c of S is sign * vol_coeff times
        Gram row a, with m_a the complement of m'_c and sign the sign of
        m_a ^ m'_c (``_star_layout``).  That Gram row is the Kronecker
        product of a row of the p-th compound with a conjugate row of the
        q-th, so N is built from the compound numerators directly: with
        vol_coeff = i^(n^2) t / (2D)^n, each entry is
        sign * i^(n^2) (2D)^(p+q) times one integer product.  No Gram matrix
        is built."""
        block = self._star_rows.get((p, q))
        if block is None:
            self.require_positive()
            block = self._star_rows.setdefault(
                (p, q), [None] * len(basis(self.n, self.n - p, self.n - q))
            )
        if rows is None:
            if None not in block:
                return block
            rows = range(len(block))
        missing = [c for c in rows if block[c] is None]
        if missing:
            n = self.n
            compounds = self._gram_compounds()
            den, _, _ = self._minors_of_h()
            scale = (2 * den) ** (p + q)
            holo, anti = compounds[p], compounds[q]
            width = len(anti)
            layout = _star_layout(n, p, q)
            for c in missing:
                sign, a, b = layout[c]
                u = sign * scale
                if n & 1:  # i^(n^2) = i
                    hnz = [(i * width, -u * y, u * x) for i, (x, y) in holo[a].items()]
                else:
                    hnz = [(i * width, u * x, u * y) for i, (x, y) in holo[a].items()]
                # hnz times the conjugate compound row anti[b]; products of nonzeros are nonzero
                block[c] = [
                    (i + j, x * v + y * w, y * v - x * w)
                    for i, x, y in hnz
                    for j, (v, w) in anti[b].items()
                ]
        return block

    def _star_denominator(self) -> int:
        """t (2D)^n, the denominator of every star numerator; positive once
        ``_star_numerators`` has required a positive metric."""
        den, t, _ = self._minors_of_h()
        return t * (2 * den) ** self.n

    def _star_matrix(self, p: int, q: int) -> Matrix:
        """The star matrix S = N / (t (2D)^n) of the (p, q) space, one
        ``from_parts`` per entry of the numerators N, built anew on each
        call.  ``adjoint_matrix`` composes it; the Form-level ``star`` and
        ``adjoint_kernel_rows`` read N itself."""
        ints = self._star_numerators(p, q)
        d = self._star_denominator()
        rows = [{j: from_parts(a, b, d) for j, a, b in row} for row in ints]
        return Matrix.sparse(rows, len(basis(self.n, p, q)))

    def star(self, a: Form) -> Form:
        """The conjugate-linear Hodge star, componentwise over bidegrees.

        Each (p,q)-component, over the common denominator e of its
        coefficients (u + wi) / e, goes through the star numerators N of
        ``_star_numerators``, the same integers ``_star_matrix`` reads:
        row c of N is summed against the conjugated coordinates as plain
        ints, (x + yi)(u - wi) = (xu + yw) + (yu - xw)i, and each nonzero
        term is built once over t (2D)^n e.  The terms come in basis order
        of each component's target space."""
        if a.n != self.n:
            raise MetricError("form coframe size does not match the metric")
        n = self.n
        terms = {}
        for (p, q), comp in a.components().items():
            ints = self._star_numerators(p, q)
            idx = basis_index(n, p, q)
            e = common_denominator(comp.terms.values())
            coords = {idx[m]: numerators(c, e) for m, c in comp.terms.items()}
            d = self._star_denominator() * e
            dst = basis(n, n - p, n - q)
            for c, row in enumerate(ints):
                re = im = 0
                for j, x, y in row:
                    v = coords.get(j)
                    if v is not None:
                        u, w = v
                        re += x * u + y * w
                        im += y * u - x * w
                if re or im:
                    terms[dst[c]] = from_parts(re, im, d)
        return Form(n, terms, _validated=True)

    # -- adjoints and Lefschetz ---------------------------------------------------

    def del_adjoint(self, a: Form, s: StructureEquations) -> Form:
        """-star del star; drops the holomorphic degree by one."""
        return -self.star(s.del_(self.star(a)))

    def delbar_adjoint(self, a: Form, s: StructureEquations) -> Form:
        """-star delbar star; drops the anti-holomorphic degree by one."""
        return -self.star(s.delbar(self.star(a)))

    def adjoint_matrix(
        self, op: Matrix, source: tuple[int, int], target: tuple[int, int]
    ) -> Matrix:
        """The matrix -S' conj(op S) of a -> -*(op *a) from the `source` space
        (p, q) to the `target` space (p', q'), for op the matrix of del or
        delbar out of the (n-p, n-q) space, S the star matrix of (p, q) and
        S' that of (n-p', n-q')."""
        forth = op @ self._star_matrix(*source)
        back = [{j: -x.conjugate() for j, x in row.items()} for row in forth.rows]
        n = self.n
        return self._star_matrix(n - target[0], n - target[1]) @ Matrix.sparse(back, forth.ncols)

    def adjoint_kernel_rows(self, op: Matrix, source: tuple[int, int]) -> list[Row]:
        """Rows whose common kernel is that of the adjoint a -> -*(op *a) out
        of the `source` space (p, q), for op the matrix M of del, delbar or
        del delbar out of the (n-p, n-q) space: per nonzero row of M, its row
        of conj(M N) (module docstring) divided by the gcd of its integer
        parts.  N is built on M's nonzero columns only, and no adjoint matrix
        is built."""
        e = common_denominator(x for row in op.rows for x in row.values())
        forth = self._star_numerators(*source, sorted(set().union(*op.rows)))
        out = []
        for row in op.rows:
            if row:
                sums = _gaussian_sums([(j, *numerators(x, e)) for j, x in row.items()], forth)
                g = gcd(*(x for _, a, b in sums for x in (a, b)))
                out.append({j: from_parts(x // g, -y // g, 1) for j, x, y in sums})
        return out

    def lefschetz(self, a: Form, k: int) -> Form:
        """Wedge with omega^k."""
        return self.omega_power(k).wedge(a)

    def __eq__(self, other):
        if not isinstance(other, HermitianMetric):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"HermitianMetric(n={self.n})"


def _minors_positive(rows) -> bool:
    """Whether every leading minor of the Hermitian matrix of Scalars `rows`
    is positive; the elimination stops at the first that is not."""
    return all(m > 0 for m in _leading_minors(_integer_matrix(rows)[1]))


def _random_gaussian(rng: random.Random, bound: int, den: int) -> Scalar:
    """The seeded Gaussian rational a/d + (b/e) i, with a, b drawn from
    [-bound, bound] and d, e from [1, den] in the order a, d, b, e, built
    from those ints with ``from_parts``."""
    a, d = rng.randint(-bound, bound), rng.randint(1, den)
    b, e = rng.randint(-bound, bound), rng.randint(1, den)
    return from_parts(a * e, b * d, d * e)


def random_positive_metric(n: int, rng: random.Random) -> HermitianMetric:
    """A random rational Hermitian positive-definite matrix.

    Draws Hermitian candidates with bounded entries, each built from the
    drawn ints with ``from_parts``, and rejects a candidate as soon as a
    leading minor of D*h (D its common denominator) is not positive: the
    fraction-free elimination ``_leading_minors`` stops at that minor.  The
    diagonal is boosted after each rejection, so termination is
    guaranteed.  Only the accepted candidate becomes a HermitianMetric,
    and its own ``positivity`` must agree that it is positive, or the draw
    raises an engine defect.
    """
    boost = 0
    while True:
        rows = [[ZERO] * n for _ in range(n)]
        for j in range(n):
            rows[j][j] = from_parts(rng.randint(1, 4) + boost, 0, rng.randint(1, 2))
            for k in range(j + 1, n):
                rows[j][k] = _random_gaussian(rng, 2, 3)
                rows[k][j] = rows[j][k].conjugate()
        if _minors_positive(rows):
            metric = HermitianMetric(rows)
            if not metric.is_positive():
                raise RuntimeError("accepted random metric is not positive; engine defect")
            return metric
        boost += 2
