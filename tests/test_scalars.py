from fractions import Fraction

import pytest

from liecohom.errors import ParseError
from liecohom.scalars import HALF, I, ONE, Scalar, format_scalar
from liecohom.structure import parse_scalar


def test_exact_arithmetic():
    assert Scalar(Fraction(1, 3)) + Scalar(Fraction(1, 6)) == HALF
    assert I * I == Scalar(-1)
    assert (ONE + I) ** 2 == 2 * I
    assert Scalar(2, 1) * Scalar(2, -1) == Scalar(5)


def test_division_is_exact():
    z = Scalar(1, 2)
    w = Scalar(3, -1)
    assert (z / w) * w == z
    with pytest.raises(ZeroDivisionError):
        z / Scalar(0)


def test_conjugation_and_norm():
    z = Scalar(Fraction(-1, 2), Fraction(3, 4))
    assert z.conjugate() == Scalar(Fraction(-1, 2), Fraction(-3, 4))
    assert z.conjugate().conjugate() == z
    assert z.abs2() == Fraction(1, 4) + Fraction(9, 16)
    assert z.abs2() >= 0


def test_coercion_and_equality():
    assert Scalar(3) == 3
    assert Scalar(Fraction(1, 2)) == Fraction(1, 2)
    assert Scalar(0, 1) != 1
    assert hash(Scalar(2)) == hash(Scalar(2, 0))


def test_equal_values_share_one_hash_slot():
    # equal objects must hash alike, so a set holds each value once
    for value in (0, 1, -7, Fraction(1, 2), Fraction(-5, 3)):
        assert Scalar(value) == value and hash(Scalar(value)) == hash(value)
        assert len({Scalar(value), value}) == 1
    assert len({1, Fraction(1), Scalar(1), Scalar(Fraction(2, 2))}) == 1
    assert len({Scalar(1), Scalar(1, 1), I}) == 3
    assert {Scalar(Fraction(1, 2)): "half"}[Fraction(1, 2)] == "half"


def test_powers():
    assert Scalar(0, -1) ** 2 == Scalar(-1)
    assert Scalar(0, -1) ** 3 == I
    assert Scalar(5, 7) ** 0 == ONE


@pytest.mark.parametrize(
    "text",
    ["0", "3", "-1/2", "1i", "-1/2i", "(1/2-3i)", "(0-1i)", "(-2+1i)"],
)
def test_format_parses_back(text):
    value = parse_scalar(text)
    assert parse_scalar(format_scalar(value)) == value


def test_format_canonical():
    assert format_scalar(Scalar(0)) == "0"
    assert format_scalar(Scalar(Fraction(-1, 2))) == "-1/2"
    assert format_scalar(Scalar(0, Fraction(1, 2))) == "1/2i"
    assert format_scalar(Scalar(Fraction(1, 2), -3)) == "(1/2-3i)"


def test_immutability():
    z = Scalar(1, 1)
    with pytest.raises(AttributeError):
        z.re = Fraction(2)


def test_constructor_input_contract():
    with pytest.raises(ZeroDivisionError):
        Scalar("1/0")
    with pytest.raises(ParseError):
        parse_scalar("1/0")
    with pytest.raises(TypeError):
        Scalar(0.5)


# -- the triple against the pair-of-Fractions formulas it replaced ------------


class _PairReference:
    """re + im*i held as two Fractions, with the formulas of the previous
    Scalar: the test-side oracle for the integer-triple representation."""

    def __init__(self, re, im=0):
        self.re, self.im = Fraction(re), Fraction(im)

    def __add__(self, o):
        return _PairReference(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        return _PairReference(self.re - o.re, self.im - o.im)

    def __mul__(self, o):
        a, b, c, d = self.re, self.im, o.re, o.im
        return _PairReference(a * c - b * d, a * d + b * c)

    def __truediv__(self, o):
        n = o.abs2()
        if not n:
            raise ZeroDivisionError
        return _PairReference(
            (self.re * o.re + self.im * o.im) / n, (self.im * o.re - self.re * o.im) / n
        )

    def __neg__(self):
        return _PairReference(-self.re, -self.im)

    def conjugate(self):
        return _PairReference(self.re, -self.im)

    def abs2(self):
        return self.re * self.re + self.im * self.im

    def __pow__(self, k):
        out = _PairReference(1)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, o):
        return self.re == o.re and self.im == o.im

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __hash__(self):
        return hash(self.re) if not self.im else hash((self.re, self.im))

    def __repr__(self):
        return f"Scalar({self.re!r}, {self.im!r})"

    def __str__(self):
        if not self:
            return "0"
        if not self.im:
            return str(self.re)
        if not self.re:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"({self.re}{sign}{abs(self.im)}i)"


def _assert_matches(z, ref):
    from math import gcd

    assert isinstance(z, Scalar)
    assert (z.re, z.im) == (ref.re, ref.im)
    # canonical slots: (a + b*i)/d with d > 0 and gcd(a, b, d) = 1
    a, b, d = z._a, z._b, z._d
    assert d > 0 and gcd(a, b, d) == 1
    assert (Fraction(a, d), Fraction(b, d)) == (ref.re, ref.im)
    assert bool(z) is bool(ref) and z.is_zero() is not bool(ref)
    assert z.is_real() is (ref.im == 0)
    assert str(z) == str(ref) and repr(z) == repr(ref) and hash(z) == hash(ref)


def test_triple_arithmetic_matches_fraction_pair_reference():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    big = 10**30
    rationals = st.builds(
        Fraction,
        st.one_of(st.integers(-3, 3), st.integers(-big, big)),
        st.one_of(st.integers(1, 4), st.integers(1, big)),
    )
    pairs = st.tuples(rationals, rationals)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(pairs, pairs, st.integers(-big, big), rationals, st.integers(0, 4))
    def check(x, y, k, f, e):
        z, w = Scalar(*x), Scalar(*y)
        rz, rw = _PairReference(*x), _PairReference(*y)
        rk, rf = _PairReference(k), _PairReference(f)
        _assert_matches(z, rz)
        _assert_matches(w, rw)
        for got, want in [
            (z + w, rz + rw),
            (z - w, rz - rw),
            (z * w, rz * rw),
            (z + k, rz + rk),
            (k + z, rk + rz),
            (z - k, rz - rk),
            (k - z, rk - rz),
            (k * z, rk * rz),
            (z * f, rz * rf),
            (f + z, rf + rz),
            (f - z, rf - rz),
            (f * z, rf * rz),
            (-z, -rz),
            (z.conjugate(), rz.conjugate()),
            (z**e, rz**e),
        ]:
            _assert_matches(got, want)
        assert z.abs2() == rz.abs2()
        assert (z == w) is (rz == rw)
        assert (z == k) is (rz == rk) and (z == f) is (rz == rf)
        if z == w:
            assert (z._a, z._b, z._d) == (w._a, w._b, w._d)
        if rw:
            _assert_matches(z / w, rz / rw)
            # equal values, equal triples
            back = (z * w) / w
            assert (back._a, back._b, back._d) == (z._a, z._b, z._d)
        else:
            with pytest.raises(ZeroDivisionError):
                z / w
        if rz:
            _assert_matches(k / z, rk / rz)
            _assert_matches(f / z, rf / rz)
        if f:
            _assert_matches(z / f, rz / rf)

    check()
