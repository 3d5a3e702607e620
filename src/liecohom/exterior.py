"""Sparse exterior algebra of invariant complex forms.

A form on a coframe ``f1 .. fn`` (holomorphic) and ``F1 .. Fn`` (their
conjugates) is stored as a sparse map from canonical wedge monomials to
Gaussian-rational coefficients.  The canonical monomial order puts every
holomorphic factor before every anti-holomorphic factor, each block with
strictly increasing indices:

    f_{i1} ^ ... ^ f_{ip} ^ F_{j1} ^ ... ^ F_{jq},   i1 < ... < ip,  j1 < ... < jq

All Koszul signs are computed against this normal form, so there is a
single sign convention engine-wide.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import Iterable, NamedTuple

from .errors import DimensionMismatch
from .scalars import ONE, Scalar


class BasisMonomial(NamedTuple):
    """A canonical wedge monomial; ``holo``/``anti`` are ascending index tuples."""

    holo: tuple[int, ...]
    anti: tuple[int, ...]

    @property
    def bidegree(self) -> tuple[int, int]:
        return (len(self.holo), len(self.anti))

    @property
    def degree(self) -> int:
        return len(self.holo) + len(self.anti)

    def sort_key(self):
        return (self.degree, len(self.anti), self.holo, self.anti)


def _check_index_tuple(indices, n, label):
    last = 0
    for i in indices:
        if not isinstance(i, int) or i < 1 or i > n:
            raise ValueError(f"{label} index {i} out of range 1..{n}")
        if i <= last:
            raise ValueError(f"{label} indices must be strictly increasing")
        last = i


def _merge(a: tuple[int, ...], b: tuple[int, ...]):
    """Merge two ascending tuples; return (koszul sign, merged) or None on a
    duplicate index (which annihilates the wedge term)."""
    if not a:
        return 1, b
    if not b:
        return 1, a
    out = []
    swaps = 0
    i = j = 0
    la, lb = len(a), len(b)
    while i < la and j < lb:
        x, y = a[i], b[j]
        if x == y:
            return None
        if x < y:
            out.append(x)
            i += 1
        else:
            out.append(y)
            swaps += la - i
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return (1 if swaps % 2 == 0 else -1), tuple(out)


def monomial_wedge(m1: BasisMonomial, m2: BasisMonomial):
    """Wedge of canonical monomials: (sign, monomial) or None if it vanishes."""
    # m2's holomorphic block crosses m1's anti-holomorphic block
    sign = -1 if (len(m1.anti) * len(m2.holo)) % 2 else 1
    h = _merge(m1.holo, m2.holo)
    if h is None:
        return None
    a = _merge(m1.anti, m2.anti)
    if a is None:
        return None
    return sign * h[0] * a[0], BasisMonomial(h[1], a[1])


def monomial_conjugate(m: BasisMonomial):
    """Conjugate swaps the blocks; reordering them back costs (-1)^(p*q)."""
    p, q = m.bidegree
    sign = -1 if (p * q) % 2 else 1
    return sign, BasisMonomial(m.anti, m.holo)


class Form:
    """A sparse complex invariant form over a coframe of size ``n``.

    Immutable by convention: every operation returns a new Form, and stored
    coefficient maps are never exposed for mutation.  Mixed-bidegree forms
    are first class (the differential of a pure form is mixed in general).

    ``terms`` holds nonzero ``Scalar`` coefficients under ``BasisMonomial``
    keys.  The public constructor checks and coerces each entry and drops
    zeros; ``_validated=True`` is the engine's trusted path, which takes a
    dict already in that shape as it is, with no per-entry work.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms=None, _validated: bool = False):
        if not isinstance(n, int) or n < 1:
            raise ValueError("coframe size n must be a positive integer")
        self.n = n
        if _validated:
            self.terms = {} if terms is None else terms
            return
        clean: dict[BasisMonomial, Scalar] = {}
        for mono, coeff in (terms or {}).items():
            if not isinstance(mono, BasisMonomial):
                mono = BasisMonomial(tuple(mono[0]), tuple(mono[1]))
            _check_index_tuple(mono.holo, n, "holomorphic")
            _check_index_tuple(mono.anti, n, "anti-holomorphic")
            coeff = Scalar.coerce(coeff)
            if coeff:
                clean[mono] = coeff
        self.terms = clean

    # -- constructors --------------------------------------------------

    @staticmethod
    def zero(n: int) -> "Form":
        return Form(n)

    @staticmethod
    def one(n: int) -> "Form":
        return Form(n, {BasisMonomial((), ()): ONE}, _validated=True)

    @staticmethod
    def monomial(n: int, holo: Iterable[int], anti: Iterable[int], coeff=ONE) -> "Form":
        return Form(n, {BasisMonomial(tuple(holo), tuple(anti)): coeff})

    # -- inspection ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, holo, anti) -> Scalar:
        return self.terms.get(BasisMonomial(tuple(holo), tuple(anti)), Scalar(0))

    def bidegrees(self) -> set[tuple[int, int]]:
        return {m.bidegree for m in self.terms}

    def pure_bidegree(self):
        """The (p, q) of a nonzero single-bidegree form, else None."""
        degs = self.bidegrees()
        if len(degs) == 1:
            return next(iter(degs))
        return None

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0].sort_key())

    # -- linear structure ------------------------------------------------

    def _require_same_n(self, other: "Form"):
        if self.n != other.n:
            raise DimensionMismatch(
                f"forms over different coframes (n={self.n} vs n={other.n})"
            )

    def __add__(self, other: "Form") -> "Form":
        if not isinstance(other, Form):
            return NotImplemented
        self._require_same_n(other)
        terms = dict(self.terms)
        for mono, coeff in other.terms.items():
            acc = terms.get(mono)
            acc = coeff if acc is None else acc + coeff
            if acc:
                terms[mono] = acc
            elif mono in terms:
                del terms[mono]
        return Form(self.n, terms, _validated=True)

    def __sub__(self, other: "Form") -> "Form":
        return self + (-other)

    def __neg__(self) -> "Form":
        return Form(self.n, {m: -c for m, c in self.terms.items()}, _validated=True)

    def scale(self, value) -> "Form":
        value = Scalar.coerce(value)
        if not value:
            return Form.zero(self.n)
        return Form(self.n, {m: value * c for m, c in self.terms.items()}, _validated=True)

    def __mul__(self, value):
        if isinstance(value, Form):
            return NotImplemented
        return self.scale(value)

    __rmul__ = __mul__

    # -- algebra -----------------------------------------------------------

    def wedge(self, other: "Form") -> "Form":
        if not isinstance(other, Form):
            raise TypeError("wedge expects a Form")
        self._require_same_n(other)
        terms: dict[BasisMonomial, Scalar] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                hit = monomial_wedge(m1, m2)
                if hit is None:
                    continue
                sign, mono = hit
                coeff = c1 * c2
                if sign < 0:
                    coeff = -coeff
                acc = terms.get(mono)
                acc = coeff if acc is None else acc + coeff
                if acc:
                    terms[mono] = acc
                elif mono in terms:
                    del terms[mono]
        return Form(self.n, terms, _validated=True)

    __xor__ = wedge

    def conjugate(self) -> "Form":
        terms: dict[BasisMonomial, Scalar] = {}
        for m, c in self.terms.items():
            sign, mono = monomial_conjugate(m)
            coeff = c.conjugate()
            terms[mono] = -coeff if sign < 0 else coeff
        return Form(self.n, terms, _validated=True)

    def project(self, p: int, q: int) -> "Form":
        """The (p, q)-component; summing over all bidegrees reassembles the form."""
        return Form(
            self.n,
            {m: c for m, c in self.terms.items() if m.bidegree == (p, q)},
            _validated=True,
        )

    def components(self) -> dict[tuple[int, int], "Form"]:
        out: dict[tuple[int, int], Form] = {}
        for m, c in self.terms.items():
            key = m.bidegree
            bucket = out.get(key)
            if bucket is None:
                out[key] = Form(self.n, {m: c}, _validated=True)
            else:
                bucket.terms[m] = c
        return out

    # -- comparison ---------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def __repr__(self):
        from .structure import render_form  # local import: rendering lives with the DSL

        return f"Form({self.n}, {render_form(self)!r})"


@lru_cache(maxsize=None)
def basis(n: int, p: int, q: int) -> tuple[BasisMonomial, ...]:
    """All C(n,p)*C(n,q) canonical (p,q)-monomials, holomorphic-major
    lexicographic.  This order fixes matrix coordinates engine-wide.
    Memoized, so the tuple is shared by every caller."""
    if not (0 <= p <= n and 0 <= q <= n):
        raise ValueError(f"bidegree ({p},{q}) out of range for n={n}")
    rng = range(1, n + 1)
    return tuple(
        BasisMonomial(h, a)
        for h in combinations(rng, p)
        for a in combinations(rng, q)
    )


@lru_cache(maxsize=None)
def basis_index(n: int, p: int, q: int) -> dict[BasisMonomial, int]:
    """Each (p,q)-monomial's position in ``basis(n, p, q)``; memoized and
    shared, so callers must not mutate it."""
    return {m: i for i, m in enumerate(basis(n, p, q))}


def bidegrees_of_total(n: int, k: int) -> list[tuple[int, int]]:
    """The (p, q) with p+q = k, in descending-p order."""
    return [(p, k - p) for p in range(min(k, n), max(0, k - n) - 1, -1)]


def total_basis(n: int, k: int) -> list[BasisMonomial]:
    """Canonical basis of all degree-k monomials (grouped by bidegree)."""
    out: list[BasisMonomial] = []
    for p, q in bidegrees_of_total(n, k):
        out.extend(basis(n, p, q))
    return out
