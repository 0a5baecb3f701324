"""Property tests for the zero-skipping exact kernels.

``octonion.multiply``, ``inner`` and the products of ``linalg.Op`` multiply
only nonzero entries, and ``multiply``, ``inner`` and ``Op`` sum rational
inputs in int numerators.  These tests hold them to the dense results: the
Cayley-Dickson recursion for the octonion product, plain double sums for the
matrix products, and the zero type a dense sum produced in every slot.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import matrix_oracle as naive
from octoverify import octonion as on
from octoverify.linalg import Op, kernel_basis
from octoverify.circ import Side, nom_from_t
from octoverify.poly import MultiPoly, monomial_key, residual_terms, weighted_products
from octoverify.scalars import sum_zero

PROPS = settings(max_examples=60, deadline=None)

nonzero_fractions = st.fractions(min_value=-9, max_value=9, max_denominator=7).filter(bool)
# about half the coordinates are zero, in a random pattern
coords = st.one_of(st.just(Fraction(0)), nonzero_fractions)


def vectors(dim):
    return st.lists(coords, min_size=dim, max_size=dim).map(tuple)


def _oracle(x, y):
    """Cayley-Dickson product; dim-4 inputs are padded into the octonions."""
    dim = len(x)
    pad = (Fraction(0),) * (8 - dim)
    return on.cayley_dickson_multiply(tuple(x) + pad, tuple(y) + pad)[:dim]


@PROPS
@given(st.sampled_from([4, 8]).flatmap(lambda d: st.tuples(vectors(d), vectors(d))))
def test_multiply_matches_cayley_dickson(xy):
    x, y = xy
    got = on.multiply(x, y)
    assert got == _oracle(x, y)
    assert all(type(c) is Fraction for c in got)


# ints and Fractions with unlike denominators, so the lcm scaling is exercised
mixed_rationals = st.one_of(
    st.just(0), st.integers(-5, 5), st.fractions(min_value=-9, max_value=9, max_denominator=12)
)


@PROPS
@given(st.sampled_from([4, 8]).flatmap(lambda d: st.lists(mixed_rationals, min_size=2 * d, max_size=2 * d)))
def test_rational_multiply_mixed_denominators(coords):
    dim = len(coords) // 2
    # a Fraction somewhere makes the input rational rather than all-int
    x, y = (Fraction(coords[0]),) + tuple(coords[1:dim]), tuple(coords[dim:])
    got = on.multiply(x, y)
    assert got == _oracle(x, y)
    assert all(type(c) is Fraction for c in got)


@PROPS
@given(st.sampled_from([4, 8]).flatmap(lambda d: st.lists(mixed_rationals, min_size=2 * d, max_size=2 * d)))
def test_rational_inner_matches_fraction_sum(coords):
    dim = len(coords) // 2
    x, y = (Fraction(coords[0]),) + tuple(coords[1:dim]), tuple(coords[dim:])
    got = on.inner(x, y)
    assert got == sum((Fraction(a) * Fraction(b) for a, b in zip(x, y)), Fraction(0))
    assert type(got) is Fraction


def test_inner_zero_and_int_types():
    ints = (1, 2, 0, -1)
    # nothing survives, or the products cancel: the shared rational zero
    assert on.inner((Fraction(0),) * 4, ints) is sum_zero((Fraction(0),))
    assert on.inner((Fraction(1), Fraction(1), 0, 0), (Fraction(1, 2), Fraction(-1, 2), 0, 0)) is sum_zero((Fraction(0),))
    # one surviving int pair still gives a Fraction; all ints stay int
    assert type(on.inner((Fraction(0), 3, 0, 0), ints)) is Fraction
    assert on.inner(ints, ints) == 6 and type(on.inner(ints, ints)) is int
    # a polynomial coordinate anywhere makes the result a polynomial
    x = (MultiPoly.variable(NV, 0), Fraction(1), 0, 0)
    got = on.inner(x, (Fraction(0), Fraction(2), 0, 0))
    assert isinstance(got, MultiPoly) and got == MultiPoly.const(NV, 2)


@pytest.mark.parametrize("dim", [4, 8])
def test_rational_multiply_vanishing_slots_are_fractions(dim):
    ints = tuple(range(1, dim + 1))
    # no nonzero product at all
    assert on.multiply((Fraction(0),) * dim, ints) == (0,) * dim
    assert all(type(c) is Fraction for c in on.multiply((Fraction(0),) * dim, ints))
    # products that cancel: an imaginary element squares to -|x|^2
    x = (Fraction(0), Fraction(1, 3)) + tuple(range(2, dim))
    got = on.multiply(x, x)
    assert got == (-sum(c * c for c in x),) + (0,) * (dim - 1)
    assert all(type(c) is Fraction for c in got)


def test_all_int_multiply_keeps_ints():
    x = (1, 2, 0, -1, 0, 3, 0, 1)
    got = on.multiply(x, x[::-1])
    assert got == _oracle(tuple(map(Fraction, x)), tuple(map(Fraction, x[::-1])))
    assert all(type(c) is int for c in got)


# small integer values, so float products and sums are exact and the oracle
# can be compared with ==
small_ints = st.one_of(st.just(0), st.integers(-6, 6))


@PROPS
@given(
    st.sampled_from([4, 8]).flatmap(lambda d: st.lists(small_ints, min_size=2 * d, max_size=2 * d)),
    st.sampled_from([int, float]),
)
def test_multiply_keeps_int_and_float_slots(coords, kind):
    dim = len(coords) // 2
    x, y = tuple(map(kind, coords[:dim])), tuple(map(kind, coords[dim:]))
    got = on.multiply(x, y)
    assert got == _oracle(tuple(map(Fraction, coords[:dim])), tuple(map(Fraction, coords[dim:])))
    assert all(type(c) is kind for c in got)


NV = 5


def _mixed_coord(draw):
    kind = draw(st.sampled_from(["zero", "fraction", "poly", "zero_poly"]))
    if kind == "zero":
        return Fraction(0)
    if kind == "fraction":
        return draw(nonzero_fractions)
    if kind == "zero_poly":
        return MultiPoly.zero(NV)
    return draw(nonzero_fractions) * MultiPoly.variable(NV, draw(st.integers(0, NV - 1)))


@st.composite
def mixed_pairs(draw):
    dim = draw(st.sampled_from([4, 8]))
    x = tuple(_mixed_coord(draw) for _ in range(dim))
    y = tuple(_mixed_coord(draw) for _ in range(dim))
    # at least one polynomial coordinate, so the dense product is polynomial
    if not any(isinstance(c, MultiPoly) for c in x + y):
        x = (MultiPoly.zero(NV),) + x[1:]
    return x, y


@PROPS
@given(mixed_pairs())
def test_multiply_mixed_fraction_poly_is_poly_in_every_slot(xy):
    x, y = xy
    got = on.multiply(x, y)
    for g, want in zip(got, _oracle(x, y)):
        assert isinstance(g, MultiPoly) and g.nvars == NV
        assert g == want


@st.composite
def matrices_with_zero_row(draw, entries=coords, zero=Fraction(0)):
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 6))
    a = [draw(st.lists(entries, min_size=m, max_size=m)) for _ in range(n)]
    a[draw(st.integers(0, n - 1))] = [zero] * m
    return a


def _dense_mat_vec(a, v):
    return [sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in a]


@PROPS
@given(matrices_with_zero_row(), st.data())
def test_mat_vec_zero_row_gives_fraction_zero(a, data):
    v = data.draw(st.lists(coords, min_size=len(a[0]), max_size=len(a[0])))
    got = Op.of(a).apply(v)
    assert got == _dense_mat_vec(a, v)
    assert all(type(c) is Fraction for c in got)
    assert Fraction(0) in got
    assert all(c is sum_zero((Fraction(0),)) for c in got if not c)


@PROPS
@given(matrices_with_zero_row(), st.data())
def test_mat_mul_zero_row_gives_fraction_zero(a, data):
    k = data.draw(st.integers(1, 6))
    b = [data.draw(st.lists(coords, min_size=k, max_size=k)) for _ in range(len(a[0]))]
    got = Op.of(a) @ Op.of(b)
    cols = list(zip(*b))
    assert naive.dense(got) == [_dense_mat_vec(cols, row) for row in a]
    assert {} in got.rows  # the zero row stores nothing


@PROPS
@given(matrices_with_zero_row(st.integers(-3, 3), 0), st.data())
def test_int_mat_mul_matches_dense(a, data):
    b = [data.draw(st.lists(st.integers(-3, 3), min_size=3, max_size=3)) for _ in range(len(a[0]))]
    got = Op.of(a) @ Op.of(b)
    assert got.den == 1 and all(type(c) is int for row in got.rows for c in row.values())
    assert naive.dense(got) == [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


# every entry point that clears denominators, fed eight exact values
EXACT = [Fraction(1, 2), 3, Fraction(-2, 3), 0, 5, Fraction(7, 4), 1, -1]
INGRESS = {
    "Op.of": lambda v: Op.of([v[:4], v[4:]]),
    "Op.apply": lambda v: Op.identity(8).apply(v),
    "kernel_basis": lambda v: kernel_basis([v[:4], v[4:]], 4),
    "MultiPoly": lambda v: MultiPoly(1, dict(enumerate(v))),
    "evaluate": lambda v: MultiPoly.variable(8, 0).eval(v),
    "ProductTable.sparse": lambda v: on.ProductTable([[v[0:2], v[2:4]], [v[4:6], v[6:8]]]).sparse,
}


@pytest.mark.parametrize("bad", [0.5, True, "1"], ids=["float", "bool", "str"])
@pytest.mark.parametrize("pos", [0, 4, 7], ids=["first", "middle", "last"])
@pytest.mark.parametrize("entry", list(INGRESS))
def test_ingress_refuses_anything_but_int_and_fraction(entry, pos, bad):
    INGRESS[entry](EXACT)
    values = list(EXACT)
    values[pos] = bad
    with pytest.raises(TypeError):
        INGRESS[entry](values)


# ---------------------------------------------------------------------------
# polynomial coordinates: poly.weighted_products behind product and inner
# ---------------------------------------------------------------------------

PNV = 3
small_fractions = st.fractions(min_value=-6, max_value=6, max_denominator=9)
# monomials of degree <= 3 over PNV variables, repeated indices allowed
monomials = st.lists(st.integers(0, PNV - 1), max_size=3).map(lambda idx: monomial_key(*idx))
polys = st.dictionaries(monomials, small_fractions, max_size=4).map(lambda t: MultiPoly(PNV, t))
# zeros of three kinds, ints, Fractions with unlike denominators, polynomials
poly_coords = st.one_of(
    st.just(0), st.just(Fraction(0)), st.just(MultiPoly.zero(PNV)), st.integers(-4, 4), small_fractions, polys
)


def _fraction_terms(c) -> dict:
    """A coordinate as packed key -> Fraction coefficient."""
    if isinstance(c, MultiPoly):
        return c.fraction_terms()
    return {0: Fraction(c)} if c else {}


def _times(p: dict, q: dict) -> dict:
    out = {}
    for k1, c1 in p.items():
        for k2, c2 in q.items():
            out[k1 + k2] = out.get(k1 + k2, 0) + c1 * c2
    return out


def _accumulate(into: dict, w, p: dict) -> None:
    for k, c in p.items():
        into[k] = into.get(k, 0) + w * c


def _reference_product(table, x, y) -> list:
    """sum_ab x_a y_b (e_a e_b) pair by pair, in Fraction coefficients."""
    out = [{} for _ in range(table.dim)]
    for a, xa in enumerate(x):
        for b, yb in enumerate(y):
            pq = _times(_fraction_terms(xa), _fraction_terms(yb))
            for k, w in enumerate(table.entries[a][b]):
                _accumulate(out[k], Fraction(w), pq)
    return [{k: c for k, c in o.items() if c} for o in out]


def _with_a_poly(x):
    """x, with a polynomial coordinate in front if it had none, so the sum
    is polynomial."""
    return x if any(isinstance(c, MultiPoly) for c in x) else (MultiPoly.variable(PNV, 0),) + x[1:]


def _poly_vectors(dim):
    return st.lists(poly_coords, min_size=dim, max_size=dim).map(tuple)


def _half_table(dim):
    return nom_from_t(Side.LEFT, Fraction(1, 2), axis=1 if dim == 4 else 4, dim=dim).table


@PROPS
@given(
    st.sampled_from([4, 8]).flatmap(lambda d: st.tuples(_poly_vectors(d), _poly_vectors(d))),
    st.sampled_from(["octonion", "t=1/2"]),
)
def test_polynomial_product_matches_the_per_pair_fraction_reference(xy, which):
    x, y = xy
    x = _with_a_poly(x)
    dim = len(x)
    table = on.PRODUCT_TABLES[dim] if which == "octonion" else _half_table(dim)
    got = table.product(x, y, sum_zero(x, y))
    assert all(type(g) is MultiPoly and g.nvars == PNV for g in got)
    assert [g.fraction_terms() for g in got] == _reference_product(table, x, y)
    # canonical: rebuilding from the Fraction coefficients changes nothing
    assert all(MultiPoly(PNV, g.fraction_terms()) == g for g in got)


def test_the_half_table_has_weights_other_than_one():
    den, rows = _half_table(8).sparse
    assert den == 25 and {abs(w) for row in rows for pairs in row for _, w in pairs} - {1, 25}


@PROPS
@given(st.sampled_from([4, 8]).flatmap(lambda d: st.tuples(_poly_vectors(d), _poly_vectors(d))))
def test_polynomial_inner_matches_the_per_pair_fraction_reference(xy):
    x, y = xy
    x = _with_a_poly(x)
    want = {}
    for a, b in zip(x, y):
        _accumulate(want, 1, _times(_fraction_terms(a), _fraction_terms(b)))
    got = on.inner(x, y)
    assert type(got) is MultiPoly and got.nvars == PNV
    assert got.fraction_terms() == {k: c for k, c in want.items() if c}


def _copy(c):
    """An equal coordinate that is a distinct object (and, for a polynomial,
    holds distinct terms), so a product with it is not a square."""
    return MultiPoly(c.nvars, c.fraction_terms()) if isinstance(c, MultiPoly) else c


weights = st.integers(-7, 7).filter(bool)


@PROPS
@given(polys, st.lists(poly_coords, min_size=1, max_size=6), st.data())
def test_squares_equal_the_products_of_distinct_copies(p, x, data):
    p2 = _copy(p)
    assert p2 == p and p2.terms is not p.terms
    assert p * p == p * p2
    assert p**3 == p * p2 * p
    x = _with_a_poly(tuple(x))
    x2 = tuple(map(_copy, x))
    assert on.norm_sq(x) == on.inner(x, x2)
    # weights other than +-1, squares beside cross terms, over one operand
    triples = [(data.draw(weights), i, data.draw(st.integers(0, len(x) - 1))) for i in range(len(x))]
    got = weighted_products(PNV, x, x, [triples], 3)[0]
    assert got == weighted_products(PNV, x, x2, [triples], 3)[0]
    want = {}
    for w, a, b in triples:
        _accumulate(want, Fraction(w, 3), _times(_fraction_terms(x[a]), _fraction_terms(x[b])))
    assert got.fraction_terms() == {k: c for k, c in want.items() if c}


@PROPS
@given(st.lists(poly_coords, min_size=1, max_size=6), st.lists(poly_coords, min_size=1, max_size=6), st.booleans(), st.data())
def test_residual_terms_counts_the_terms_of_one_weighted_products_call(x, y, square, data):
    # ints, Fractions with unlike denominators, polynomials with constant
    # terms; with y = x, every (w, a, a) is a square
    x = _with_a_poly(tuple(x))
    y = x if square else tuple(y)
    triples = [
        (data.draw(weights), data.draw(st.integers(0, len(x) - 1)), data.draw(st.integers(0, len(y) - 1)))
        for _ in range(data.draw(st.integers(1, 8)))
    ]
    if square:
        triples += [(data.draw(weights), a, a) for a in range(len(x))]
    assert residual_terms(PNV, x, y, triples) == len(weighted_products(PNV, x, y, [triples])[0].terms)
    # a sum that cancels completely: every block is empty
    assert residual_terms(PNV, x, y, triples + [(-w, a, b) for w, a, b in triples]) == 0


def test_residual_terms_of_blocks_down_to_the_constant():
    n = 4
    v = [MultiPoly.variable(n, i) for i in range(n)]
    p = v[0] * v[3] + v[1] + Fraction(1, 3)  # one term in each of blocks 0, 1 and n
    q = v[2] * v[2] - 2
    x, y = (p, q, Fraction(1, 2)), (p, q, 3)
    # p^2 + p q + 3/2 has 6 + 6 terms, three of them on the shared
    # monomials x_0 x_3, x_1 and 1 (the constant 1/9 - 2/3 + 3/2)
    triples = [(1, 0, 0), (1, 0, 1), (1, 2, 2)]
    assert residual_terms(n, x, y, triples) == len(weighted_products(n, x, y, [triples])[0].terms) == 9
    # (p - b)(p + b) - p^2 + b^2 = 0 for b = x_0 x_3, in every block
    b = v[0] * v[3]
    assert residual_terms(n, (p - b, p, b), (p + b, p, b), [(1, 0, 0), (-1, 1, 1), (1, 2, 2)]) == 0


def test_residual_terms_raises_where_weighted_products_does():
    v = MultiPoly.variable(2, 1)
    x15, x16 = v**15, v**16
    with pytest.raises(OverflowError):
        residual_terms(2, (x16,), (x16,), [(1, 0, 0)])
    with pytest.raises(OverflowError):
        residual_terms(2, (x16, v), (x15, x16), [(1, 0, 1)])
    # the operands' bounds fail, but no pair of polynomials passes 17
    assert residual_terms(2, (x16, v), (v, x16), [(1, 0, 0), (1, 1, 1)]) == 1
    with pytest.raises(ValueError, match="nvars"):
        residual_terms(3, (v,), (v,), [(1, 0, 0)])


def test_polynomial_exponent_guard_in_product_and_inner():
    v = MultiPoly.variable(1, 0)
    x15, x16 = v**15, v**16
    zero = Fraction(0)
    pad = (zero,) * 3
    for a, b in [((x16,) + pad, (x16,) + pad), ((x16,) + pad, (zero, x15, zero, zero))]:
        with pytest.raises(OverflowError):
            on.multiply(a, b)
    with pytest.raises(OverflowError):
        on.inner((x16, v), (x16, v))
    assert on.multiply((x15,) + pad, (x15,) + pad)[0] == v**30
    assert on.inner((x15, Fraction(2)), (x15, Fraction(3))) == v**30 + 6
    # the bound from each operand's largest exponent fails here (16 + 16), but
    # no pair of polynomials multiplies past 17, so nothing raises
    assert on.inner((x16, v), (v, x16)) == 2 * v**17
    # a rational factor adds no exponent
    assert on.multiply((x16,) + pad, (Fraction(1, 2),) + pad)[0] == x16 * Fraction(1, 2)


def test_empty_polynomial_slots_are_polynomial_zeros():
    X = on.symbolic_octets(8, "X")[0]
    e0 = on.basis(0, 8)
    # only e_0 e_0 contributes: slots 1..7 receive no product
    got = on.multiply((X[0],) + e0[1:], e0)
    assert got[0] == X[0]
    for g in got[1:]:
        assert type(g) is MultiPoly and g.is_zero() and g.nvars == 8 and g.den == 1
    # no pair of nonzero coordinates at all
    got = on.multiply((MultiPoly.zero(8),) + e0[1:], e0)
    assert all(type(g) is MultiPoly and g.is_zero() and g.nvars == 8 for g in got)
    z = on.inner((X[1], Fraction(0)), (Fraction(0), X[2]))
    assert type(z) is MultiPoly and z.is_zero() and z.nvars == 8


def test_a_symbolic_octonion_product_matches_sympy():
    sympy = pytest.importorskip("sympy")
    X, Y = on.symbolic_octets(8, "XY")
    # rational scaling and a constant term next to the variables
    Y = on.add(on.scale(Fraction(2, 3), Y), on.scale(Fraction(-1, 5), on.basis(5)))
    syms = sympy.symbols("v0:16")
    xs = syms[:8]
    ys = [sympy.Rational(2, 3) * s for s in syms[8:]]
    ys[5] -= sympy.Rational(1, 5)
    want = on.cayley_dickson_multiply(tuple(xs), tuple(ys))

    def to_sympy(p):
        return sum(
            (sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*(s**e for s, e in zip(syms, exps)))
             for exps, c in p.exponent_dict().items()),
            sympy.Integer(0),
        )

    got = on.multiply(X, Y)
    assert [sympy.expand(to_sympy(g) - w) for g, w in zip(got, want)] == [0] * 8
