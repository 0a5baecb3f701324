import math
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from conftest import Draws
from octoverify.scalars import int_scaled, pythagorean_unit, rational_sqrt


def test_pythagorean_unit_endpoints():
    assert pythagorean_unit(Fraction(0)) == (Fraction(1), Fraction(0))
    assert pythagorean_unit(Fraction(1)) == (Fraction(0), Fraction(1))
    assert pythagorean_unit(Fraction(1, 2)) == (Fraction(3, 5), Fraction(4, 5))


def test_pythagorean_unit_circle_property():
    rng = Draws(1)
    for _ in range(1000):
        t = rng.rational(50)
        c, s = pythagorean_unit(t)
        assert c * c + s * s == 1


def test_rational_field_laws():
    rng = Draws(9)
    for _ in range(200):
        a, b, c = rng.rationals(20, 3)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_rational_sqrt():
    assert rational_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert rational_sqrt(Fraction(0)) == 0
    assert rational_sqrt(Fraction(2)) is None
    assert rational_sqrt(Fraction(-1)) is None


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.integers(-50, 50), st.fractions(max_denominator=60)), max_size=12))
def test_int_scaled_agrees_with_fraction_arithmetic(values):
    den, ints = int_scaled(values)
    assert den == math.lcm(*(Fraction(v).denominator for v in values))
    assert all(type(n) is int for n in ints)
    assert [Fraction(n, den) for n in ints] == [Fraction(v) for v in values]
    if any(values):
        assert math.gcd(den, *ints) == 1
