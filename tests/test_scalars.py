import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from octoverify.scalars import (
    DeterministicRng,
    int_scaled,
    pythagorean_unit,
    random_rational,
    random_rationals,
    rational_sqrt,
)


def test_pythagorean_unit_endpoints():
    assert pythagorean_unit(Fraction(0)) == (Fraction(1), Fraction(0))
    assert pythagorean_unit(Fraction(1)) == (Fraction(0), Fraction(1))
    assert pythagorean_unit(Fraction(1, 2)) == (Fraction(3, 5), Fraction(4, 5))


def test_pythagorean_unit_circle_property():
    rng = DeterministicRng(1)
    for _ in range(1000):
        t = random_rational(rng, 50)
        c, s = pythagorean_unit(t)
        assert c * c + s * s == 1


def test_rng_reproducible():
    a = DeterministicRng(42, 7)
    b = DeterministicRng(42, 7)
    assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]
    # same (seed, counter) gives the same value regardless of history
    c = DeterministicRng(42)
    for _ in range(7):
        c.next_u64()
    assert c.next_u64() == DeterministicRng(42, 7).next_u64()


def test_rng_streams_disjoint():
    base = DeterministicRng(5)
    assert base.fork(1).next_u64() != base.fork(2).next_u64()


def test_random_rational_bounds_and_determinism():
    rng = DeterministicRng(3)
    vals = [random_rational(rng, 10) for _ in range(200)]
    assert all(abs(v) <= 10 for v in vals)
    rng2 = DeterministicRng(3)
    assert vals == [random_rational(rng2, 10) for _ in range(200)]
    # successive counters give distinct values for a fixed seed
    r1 = random_rational(DeterministicRng(11, 0), 100)
    r2 = random_rational(DeterministicRng(11, 2), 100)
    assert r1 != r2
    with pytest.raises(ValueError):
        random_rational(rng, 0)


# ---------------------------------------------------------------------------
# the random stream, pinned: a passing randomized check (the Muenzner route,
# the clifford suite's orthogonal change of basis) reports no draw, so
# unchanged reports cannot show that the draws are unchanged
# ---------------------------------------------------------------------------

# Written by the per-draw generator.
GOLDEN_U64 = [
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
    0xF88BB8A8724C81EC,
    0x1B39896A51A8749B,
    0x53CB9F0C747EA2EA,
    0x2C829ABE1F4532E1,
    0xC584133AC916AB3C,
]
GOLDEN_DRAWS = {
    4: "3 -3 0 1 4/3 -1 -1 -1/2 -1/3 -1 1 2 -1/4 1 1 0",
    5: "-4 -4/5 2 -3 4 -1/2 2 5/3 2/3 1/5 3/2 -3 -3/5 1/3 1/4 0",
    6: "3 -1 -2 4/3 5/3 0 -1/2 -1 -2/3 -2/5 -1/2 -1 -2/3 -3/5 1/5 -1/3",
    7: "3/2 -3/5 0 1/3 7/6 -6/5 -2 -5/7 -1 5/7 1/2 -4 -1 -2/3 3 -6/7",
}


def reference_u64(seed, n):
    """Output n of splitmix64 seeded with ``seed``, spelled out."""
    z = (seed + (n + 1) * 0x9E3779B97F4A7C15) % 2**64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % 2**64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2**64
    return z ^ (z >> 31)


def reference_draws(seed, counter, bound, count):
    """``count`` draws as ``Fraction(next_int(-bound, bound), next_int(1, bound))``."""
    out = []
    for n in range(counter, counter + 2 * count, 2):
        num = -bound + reference_u64(seed, n) % (2 * bound + 1)
        den = 1 + reference_u64(seed, n + 1) % bound
        out.append(Fraction(num, den))
    return out


def test_the_stream_of_seed_0_is_pinned():
    rng = DeterministicRng(0)
    assert [rng.next_u64() for _ in range(8)] == GOLDEN_U64 == [reference_u64(0, n) for n in range(8)]
    for bound, golden in GOLDEN_DRAWS.items():
        rng = DeterministicRng(0)
        draws = [random_rational(rng, bound) for _ in range(16)]
        assert draws == [Fraction(v) for v in golden.split()] == reference_draws(0, 0, bound, 16)
        assert rng.counter == 32


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**64 - 1), st.integers(0, 2**40), st.integers(1, 9), st.integers(0, 20))
def test_random_rationals_equals_the_reference_draws(seed, counter, bound, count):
    rng = DeterministicRng(seed, counter)
    draws = random_rationals(rng, bound, count)
    assert draws == reference_draws(seed, counter, bound, count)
    assert all(type(v) is Fraction for v in draws)
    assert rng.counter == counter + 2 * count
    for bad in (0, -bound):
        with pytest.raises(ValueError):
            random_rationals(rng, bad, count)
        with pytest.raises(ValueError):
            random_rationals(rng, bad, 0)
    with pytest.raises(ValueError):
        random_rationals(rng, bound, -1)
    assert rng.counter == counter + 2 * count


def test_rational_field_laws():
    rng = DeterministicRng(9)
    for _ in range(200):
        a = random_rational(rng, 20)
        b = random_rational(rng, 20)
        c = random_rational(rng, 20)
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
