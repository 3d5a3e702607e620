"""Exact Gaussian-rational arithmetic.

Every coefficient in the engine is a number ``re + im*i`` with ``re`` and
``im`` rational.  This field contains every constant that appears in the
computations in scope (1/2, i/2, powers of -i, factorials), so equality
tests throughout the engine are exact, never approximate.

A Scalar is one integer triple ``(a, b, d)`` meaning ``(a + b*i)/d``, kept
canonical: ``d > 0`` and ``gcd(a, b, d) = 1``.  So zero is ``(0, 0, 1)``
and equal values have equal triples.  Each of ``+ - * /`` takes a few
integer products and one three-argument ``math.gcd``; no Fraction is built.
``re`` and ``im`` are read-only Fraction views of the triple.

The triple stays private to this module; other code reads it only through
``parts``.  Two kernels compute on plain integers and build each result
once with ``from_parts``: the product ``linalg.Matrix.__matmul__`` (inputs
over a common denominator, via ``common_denominator`` and ``numerators``)
and the elimination ``linalg.rref`` (triples).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as a rational number")


class Scalar:
    """An immutable Gaussian rational ``re + im*i``.

    Like Fraction, it is immutable by having only read-only public
    attributes; the slots hold the canonical triple.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        re, im = _frac(re), _frac(im)
        p, q = re.denominator, im.denominator
        # over the least common denominator the triple is already reduced:
        # a prime of d divides a denominator to d's full power, so it
        # misses that part's numerator scaled by d/denominator
        d = p * q // gcd(p, q)
        self._a = re.numerator * (d // p)
        self._b = im.numerator * (d // q)
        self._d = d

    # -- constructors -------------------------------------------------

    @staticmethod
    def coerce(value) -> "Scalar":
        if isinstance(value, Scalar):
            return value
        return Scalar(value)

    # -- structure ----------------------------------------------------

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    def conjugate(self) -> "Scalar":
        return from_parts(self._a, -self._b, self._d)

    def abs2(self) -> Fraction:
        """|z|^2 = re^2 + im^2, a non-negative rational."""
        a, b, d = self._a, self._b, self._d
        return Fraction(a * a + b * b, d * d)

    def is_zero(self) -> bool:
        return not self._a and not self._b

    def is_real(self) -> bool:
        return not self._b

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        if type(other) is not Scalar:
            other = _coerce_or_none(other)
            if other is None:
                return NotImplemented
        d, e = self._d, other._d
        if d == e:
            return from_parts(self._a + other._a, self._b + other._b, d)
        return from_parts(self._a * e + other._a * d, self._b * e + other._b * d, d * e)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not Scalar:
            other = _coerce_or_none(other)
            if other is None:
                return NotImplemented
        d, e = self._d, other._d
        if d == e:
            return from_parts(self._a - other._a, self._b - other._b, d)
        return from_parts(self._a * e - other._a * d, self._b * e - other._b * d, d * e)

    def __rsub__(self, other):
        other = _coerce_or_none(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if type(other) is not Scalar:
            other = _coerce_or_none(other)
            if other is None:
                return NotImplemented
        a, b, c, e = self._a, self._b, other._a, other._b
        return from_parts(a * c - b * e, a * e + b * c, self._d * other._d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not Scalar:
            other = _coerce_or_none(other)
            if other is None:
                return NotImplemented
        a, b, c, e = self._a, self._b, other._a, other._b
        n = c * c + e * e
        if not n:
            raise ZeroDivisionError("division by zero Scalar")
        # (a + bi)/d * f/(c + ei) = (a + bi)(c - ei) f / (d (c^2 + e^2))
        f = other._d
        return from_parts((a * c + b * e) * f, (b * c - a * e) * f, self._d * n)

    def __rtruediv__(self, other):
        other = _coerce_or_none(other)
        if other is None:
            return NotImplemented
        return other / self

    def __neg__(self):
        return from_parts(-self._a, -self._b, self._d)

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("Scalar powers must be non-negative integers")
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- comparison / hashing ------------------------------------------

    def __eq__(self, other):
        if type(other) is not Scalar:
            other = _coerce_or_none(other)
            if other is None:
                return NotImplemented
        return self._a == other._a and self._b == other._b and self._d == other._d

    def __hash__(self):
        # a real value equals its int or Fraction, so it hashes like one
        return hash(self.re) if self._b == 0 else hash((self.re, self.im))

    def __bool__(self):
        return self._a != 0 or self._b != 0

    def __repr__(self):
        return f"Scalar({self.re!r}, {self.im!r})"

    def __str__(self):
        return format_scalar(self)


_new = object.__new__


def from_parts(a: int, b: int, d: int) -> Scalar:
    """The Scalar ``(a + b*i)/d`` for integers with ``d > 0``, in lowest terms."""
    g = gcd(a, b, d)
    if g != 1:
        a //= g
        b //= g
        d //= g
    z = _new(Scalar)
    z._a = a
    z._b = b
    z._d = d
    return z


def parts(z: Scalar) -> tuple[int, int, int]:
    """The canonical triple ``(a, b, d)`` of ``z == (a + b*i)/d``."""
    return z._a, z._b, z._d


def common_denominator(values) -> int:
    """The least common multiple of the values' denominators (1 for none)."""
    return lcm(*(z._d for z in values))


def numerators(z: Scalar, d: int) -> tuple[int, int]:
    """The integers ``(a, b)`` with ``z == (a + b*i)/d``, for a multiple d
    of z's denominator."""
    m = d // z._d
    return z._a * m, z._b * m


def _coerce_or_none(value):
    if isinstance(value, Scalar):
        return value
    if isinstance(value, (int, Fraction)):
        return Scalar(value)
    return None


ZERO = Scalar(0)
ONE = Scalar(1)
I = Scalar(0, 1)
HALF = Scalar(Fraction(1, 2))


def format_scalar(z: Scalar) -> str:
    """Render in the `.lie` coefficient syntax: ``A``, ``Bi`` or ``(A+Bi)``.

    The output parses back to the same value (see structure.parse_scalar).
    """
    if z.is_zero():
        return "0"
    if not z.im:
        return str(z.re)
    if not z.re:
        return f"{z.im}i"
    sign = "+" if z.im > 0 else "-"
    return f"({z.re}{sign}{abs(z.im)}i)"