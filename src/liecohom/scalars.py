"""Exact Gaussian-rational arithmetic.

Every coefficient in the engine is a number ``re + im*i`` with ``re`` and
``im`` rational.  This field contains every constant that appears in the
computations in scope (1/2, i/2, powers of -i, factorials), so equality
tests throughout the engine are exact, never approximate.
"""

from __future__ import annotations

from fractions import Fraction


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as a rational number")


class Scalar:
    """An immutable Gaussian rational ``re + im*i``."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _frac(re))
        object.__setattr__(self, "im", _frac(im))

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def coerce(value) -> "Scalar":
        if isinstance(value, Scalar):
            return value
        return Scalar(_frac(value))

    @staticmethod
    def _mk(re: Fraction, im: Fraction) -> "Scalar":
        # fast path for arithmetic: arguments are already Fractions
        z = Scalar.__new__(Scalar)
        object.__setattr__(z, "re", re)
        object.__setattr__(z, "im", im)
        return z

    # -- structure ----------------------------------------------------

    def conjugate(self) -> "Scalar":
        return Scalar._mk(self.re, -self.im)

    def abs2(self) -> Fraction:
        """|z|^2 = re^2 + im^2, a non-negative rational."""
        return self.re * self.re + self.im * self.im

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def is_real(self) -> bool:
        return not self.im

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        other = _coerce_or_none(other)
        if other is None:
            return NotImplemented
        return Scalar._mk(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce_or_none(other)
        if other is None:
            return NotImplemented
        return Scalar._mk(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _coerce_or_none(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _coerce_or_none(other)
        if other is None:
            return NotImplemented
        a, b, c, d = self.re, self.im, other.re, other.im
        return Scalar._mk(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce_or_none(other)
        if other is None:
            return NotImplemented
        n = other.abs2()
        if not n:
            raise ZeroDivisionError("division by zero Scalar")
        return Scalar._mk(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def __rtruediv__(self, other):
        other = _coerce_or_none(other)
        if other is None:
            return NotImplemented
        return other / self

    def __neg__(self):
        return Scalar._mk(-self.re, -self.im)

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
        other = _coerce_or_none(other)
        if other is None:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        return f"Scalar({self.re!r}, {self.im!r})"

    def __str__(self):
        return format_scalar(self)


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
I_HALF = Scalar(0, Fraction(1, 2))


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
