import math
import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from octoverify.scalars import (
    DeterministicRng,
    SampleBatch,
    int_scaled,
    pythagorean_unit,
    random_rational,
    random_unit_rational_vector,
    rational_sqrt,
    stack_vectors,
    sum_zero,
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


def test_random_unit_rational_vector():
    rng = DeterministicRng(17)
    for n in (3, 8, 10):
        v = random_unit_rational_vector(rng, n)
        assert sum(x * x for x in v) == 1


# ---------------------------------------------------------------------------
# SampleBatch against Fraction arithmetic, sample by sample
# ---------------------------------------------------------------------------

BATCH_PROPS = settings(max_examples=80, deadline=None)
SAMPLES = 5
ints = st.integers(-30, 30)
scalars = st.one_of(ints, st.fractions(min_value=-9, max_value=9, max_denominator=12))


def _batch(nums, dens):
    # unreduced on purpose: each sample's denominator is scaled by a factor
    # that the numerator shares
    return SampleBatch([n * f for n, f in zip(nums, dens)], [d * f for d, f in zip(dens, dens)])


batches = st.builds(
    _batch,
    st.lists(ints, min_size=SAMPLES, max_size=SAMPLES),
    st.lists(st.integers(1, 12), min_size=SAMPLES, max_size=SAMPLES),
)


@st.composite
def batch_pairs(draw):
    """Two batches of the same samples, over equal ``dens`` about half the time."""
    a, b = draw(batches), draw(batches)
    if draw(st.booleans()):
        b = SampleBatch([n * d for n, d in zip(b.nums, a.dens)], a.dens)
    return a, b


RING_OPS = [operator.add, operator.sub, operator.mul]


@BATCH_PROPS
@given(batch_pairs())
def test_batch_ring_operations_match_fractions(pair):
    a, b = pair
    for op in RING_OPS:
        got = op(a, b)
        assert type(got) is SampleBatch
        assert got.values() == [op(u, v) for u, v in zip(a.values(), b.values())]
    assert (-a).values() == [-u for u in a.values()]
    assert bool(a) == any(a.values())


@BATCH_PROPS
@given(batches, scalars)
def test_batch_scalar_operations_match_fractions_on_either_side(a, c):
    for op in RING_OPS:
        left, right = op(a, c), op(c, a)
        assert type(left) is SampleBatch and type(right) is SampleBatch
        assert left.values() == [op(u, c) for u in a.values()]
        assert right.values() == [op(c, u) for u in a.values()]


def test_batch_has_no_single_value_to_compare_or_hash():
    a = SampleBatch([1, 0], [2, 1])
    for op in (operator.eq, operator.ne, operator.lt, operator.le, operator.gt, operator.ge):
        with pytest.raises(TypeError):
            op(a, a)
        with pytest.raises(TypeError):
            op(a, 0)
    with pytest.raises(TypeError):
        hash(a)
    # truth is "some sample is nonzero"
    assert a and not SampleBatch([0, 0], [3, 5])


def test_stack_vectors_lifts_each_sample_to_its_own_lcm():
    vectors = [(Fraction(1, 2), Fraction(1, 3), 0), (Fraction(-4), 1, Fraction(5, 7))]
    slot = stack_vectors(vectors)
    assert [c.values() for c in slot] == [list(col) for col in zip(*vectors)]
    assert all(c.dens is slot[0].dens for c in slot) and slot[0].dens == [6, 7]
    # a zero of the batch's kind, which the kernels return for an empty sum
    zero = sum_zero(slot, (Fraction(1),) * 3)
    assert type(zero) is SampleBatch and zero.values() == [0, 0] and not zero


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.integers(-50, 50), st.fractions(max_denominator=60)), max_size=12))
def test_int_scaled_agrees_with_fraction_arithmetic(values):
    den, ints = int_scaled(values)
    assert den == math.lcm(*(Fraction(v).denominator for v in values))
    assert all(type(n) is int for n in ints)
    assert [Fraction(n, den) for n in ints] == [Fraction(v) for v in values]
    if any(values):
        assert math.gcd(den, *ints) == 1
