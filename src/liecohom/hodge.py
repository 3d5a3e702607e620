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
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

from .errors import MetricError, PreconditionError
from .exterior import BasisMonomial, Form, basis, monomial_wedge
from .linalg import Matrix, rref
from .scalars import I_HALF, ONE, ZERO, I, Scalar
from .structure import StructureEquations


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


def _invert(rows: Sequence[Sequence[Scalar]]) -> list[list[Scalar]]:
    k = len(rows)
    aug = Matrix(
        [list(rows[i]) + [ONE if i == j else ZERO for j in range(k)] for i in range(k)],
        ncols=2 * k,
    )
    reduced, pivots = rref(aug)
    if pivots != list(range(k)):
        raise MetricError("matrix is singular")
    return [list(reduced.row(i)[k:]) for i in range(k)]


def _compound(g: Sequence[Sequence[Scalar]], k: int) -> list[list[Scalar]]:
    """The k-th compound matrix: k x k minors of g over k-subsets of indices,
    in ``combinations`` order (the order ``basis`` uses)."""
    subsets = list(combinations(range(len(g)), k))
    return [[_det([[g[x][y] for y in b] for x in a]) for b in subsets] for a in subsets]


class HermitianMetric:
    """A Hermitian matrix in the declared coframe plus its derived geometry.

    Derived tables (Gram matrices, volume form, star matrices) are built
    lazily and cached; construction of each table is idempotent, so lazy
    initialization is safe under concurrent first access.
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
        self._compounds: Optional[list[list[list[Scalar]]]] = None
        self._gram_cache: dict[tuple[int, int], Matrix] = {}
        self._star_cache: dict[tuple[int, int], Matrix] = {}
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

        The minors are real by Hermitian symmetry; for n = 3 their
        positivity is exactly the classical three-inequality criterion on
        the fundamental-form parameters.
        """
        if self._positive is None:
            minors: list[Fraction] = []
            positive = True
            for k in range(1, self.n + 1):
                sub = [list(self.entries[i][:k]) for i in range(k)]
                m = _det(sub)
                if not m.is_real():
                    raise MetricError("principal minor is not real; matrix corrupt")
                minors.append(m.re)
                if m.re <= 0:
                    positive = False
            self._minors = minors
            self._positive = positive
        return self._positive, list(self._minors or [])

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
        cached = self._omega_powers.get(1)
        if cached is not None:
            return cached
        terms = {}
        for j in range(self.n):
            for k in range(self.n):
                c = self.entries[j][k]
                if c:
                    terms[BasisMonomial((j + 1,), (k + 1,))] = I_HALF * c
        omega = Form(self.n, terms, _validated=True)
        self._omega_powers[1] = omega
        return omega

    def omega_power(self, k: int) -> Form:
        if k < 0:
            raise ValueError("omega power must be non-negative")
        if k == 0:
            return Form.one(self.n)
        cached = self._omega_powers.get(k)
        if cached is None:
            cached = self.omega_power(k - 1).wedge(self.fundamental_form())
            self._omega_powers[k] = cached
        return cached

    def volume_form(self) -> Form:
        """vol = omega^n / n!; nonzero exactly when the metric is nondegenerate."""
        self.require_positive()
        return self.omega_power(self.n).scale(Fraction(1, math.factorial(self.n)))

    # -- inner products --------------------------------------------------------

    def _gram_compounds(self) -> list[list[list[Scalar]]]:
        """The k-th compounds of the Gram matrix of f_1..f_n, k = 0..n, built
        once: every Gram matrix is assembled from two of them."""
        if self._compounds is None:
            inv = _invert(self.entries)
            # <f_j, f_k> = 2 * (h^-1)[k][j]
            g1 = [[Scalar(2) * inv[k][j] for k in range(self.n)] for j in range(self.n)]
            self._compounds = [_compound(g1, k) for k in range(self.n + 1)]
        return self._compounds

    def _conjugate_compound(self, q: int) -> list[list[tuple[int, Scalar]]]:
        """The conjugate of the q-th compound as rows of (column, entry)
        pairs over the nonzero entries: the anti-holomorphic factor of
        every (p, q) Gram row."""
        return [
            [(j, x.conjugate()) for j, x in enumerate(row) if x]
            for row in self._gram_compounds()[q]
        ]

    def gram(self, p: int, q: int) -> Matrix:
        """Gram matrix of <.,.> on the canonical (p,q)-monomial basis."""
        key = (p, q)
        cached = self._gram_cache.get(key)
        if cached is not None:
            return cached
        dim = len(basis(self.n, p, q))  # rejects an out-of-range bidegree
        compounds = self._gram_compounds()
        # entry ((a, b), (a', b')) is holo[a][a'] * conj(anti[b][b']), at
        # column a' * width + b'; products of nonzeros are nonzero
        anti = self._conjugate_compound(q)
        width = len(anti)
        rows = []
        for hrow in compounds[p]:
            hnz = [(i * width, x) for i, x in enumerate(hrow) if x]
            for arow in anti:
                rows.append({i + j: x * y for i, x in hnz for j, y in arow})
        out = Matrix.sparse(rows, dim)
        self._gram_cache[key] = out
        return out

    def inner(self, a: Form, b: Form) -> Scalar:
        """Pointwise Hermitian product; componentwise over bidegrees.

        Linear in the first slot, conjugate-linear in the second.
        """
        if a.n != self.n or b.n != self.n:
            raise MetricError("form coframe size does not match the metric")
        total = ZERO
        comps_b = b.components()
        for bd, ca in a.components().items():
            cb = comps_b.get(bd)
            if cb is None:
                continue
            mons = basis(self.n, *bd)
            gram = self.gram(*bd)
            idx = {m: i for i, m in enumerate(mons)}
            for ma, xa in ca.terms.items():
                row = gram.rows[idx[ma]]
                for mb, xb in cb.terms.items():
                    g = row.get(idx[mb])
                    if g is not None:
                        total = total + xa * xb.conjugate() * g
        return total

    def pairing(self, a: Form, b: Form) -> Scalar:
        """Global pairing <<a, b>>; the total volume is normalized to 1, so
        this equals the pointwise product on invariant forms."""
        return self.inner(a, b)

    # -- Hodge star -------------------------------------------------------------

    def _star_matrix(self, p: int, q: int) -> Matrix:
        """Matrix S with S[:, b] = coordinates of *(m_b) over the (n-p, n-q)
        basis.

        The defining relation on monomials reads  W @ S = vol_coeff * Gram
        with W[a][c] f_top = m_a ^ m'_c.  m_a ^ m'_c vanishes unless m_a is
        the complement of m'_c, so W is a signed permutation and
        S = W^T @ (vol_coeff * Gram): row c of S is sign * vol_coeff times
        Gram row a, with m_a the complement of m'_c and sign the sign of
        m_a ^ m'_c.  That Gram row is the Kronecker product of a row of the
        p-th compound with a conjugate row of the q-th, so S is built from
        the compounds directly: sign * vol_coeff scales the C(n, p) entries
        of the holomorphic row, and each entry of S is one product of that
        row with the anti-holomorphic row.  No Gram matrix is built."""
        key = (p, q)
        cached = self._star_cache.get(key)
        if cached is not None:
            return cached
        self.require_positive()
        n = self.n
        full = tuple(range(1, n + 1))
        vol_coeff = self.volume_form().terms.get(BasisMonomial(full, full), ZERO)
        holo = self._gram_compounds()[p]
        anti = self._conjugate_compound(q)
        width = len(anti)
        # Gram row a * width + b pairs holomorphic row a with anti row b
        index = {m: i for i, m in enumerate(basis(n, p, q))}
        rows = []
        for mc in basis(n, n - p, n - q):
            ma = BasisMonomial(
                tuple(j for j in full if j not in mc.holo),
                tuple(j for j in full if j not in mc.anti),
            )
            sign, _ = monomial_wedge(ma, mc)
            c = Scalar(sign) * vol_coeff
            a, b = divmod(index[ma], width)
            hnz = [(i * width, c * x) for i, x in enumerate(holo[a]) if x]
            rows.append({i + j: x * y for i, x in hnz for j, y in anti[b]})
        out = Matrix.sparse(rows, len(index))
        self._star_cache[key] = out
        return out

    def star(self, a: Form) -> Form:
        """The conjugate-linear Hodge star, componentwise over bidegrees."""
        if a.n != self.n:
            raise MetricError("form coframe size does not match the metric")
        out = Form.zero(self.n)
        for (p, q), comp in a.components().items():
            mat = self._star_matrix(p, q)
            src = basis(self.n, p, q)
            dst = basis(self.n, self.n - p, self.n - q)
            coords = [comp.terms.get(m, ZERO).conjugate() for m in src]
            image = mat.apply(tuple(coords))
            terms = {m: c for m, c in zip(dst, image) if c}
            out = out + Form(self.n, terms, _validated=True)
        return out

    # -- adjoints and Lefschetz ---------------------------------------------------

    def del_adjoint(self, a: Form, s: StructureEquations) -> Form:
        """-star del star; drops the holomorphic degree by one."""
        return -self.star(s.del_(self.star(a)))

    def delbar_adjoint(self, a: Form, s: StructureEquations) -> Form:
        """-star delbar star; drops the anti-holomorphic degree by one."""
        return -self.star(s.delbar(self.star(a)))

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


def random_positive_metric(n: int, rng: random.Random) -> HermitianMetric:
    """A random rational Hermitian positive-definite matrix.

    Draws Hermitian candidates with bounded entries and rejects those
    failing the leading-minor test; the diagonal is boosted after repeated
    rejections so termination is guaranteed.
    """
    boost = 0
    while True:
        rows = [[ZERO] * n for _ in range(n)]
        for j in range(n):
            rows[j][j] = Scalar(Fraction(rng.randint(1, 4) + boost, rng.randint(1, 2)))
            for k in range(j + 1, n):
                re = Fraction(rng.randint(-2, 2), rng.randint(1, 3))
                im = Fraction(rng.randint(-2, 2), rng.randint(1, 3))
                rows[j][k] = Scalar(re, im)
                rows[k][j] = Scalar(re, -im)
        metric = HermitianMetric(rows)
        if metric.is_positive():
            return metric
        boost += 2
