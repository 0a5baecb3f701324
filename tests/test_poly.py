from fractions import Fraction
import tracemalloc
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from octoverify.poly import (
    MultiPoly,
    Rt2Poly,
    _pack,
    _unpack,
    monomial_exponents,
    monomial_key,
    munzner_verify,
    norm_sq_poly,
    radial_shift,
    rt2_poly,
    weighted_products,
)
from conftest import Draws


def vp(n, i):
    return MultiPoly.variable(n, i)


def total_degree(p: MultiPoly) -> int:
    """Largest total degree of any term of p (0 for the zero polynomial)."""
    return max((sum(e for _, e in monomial_exponents(k)) for k in p.terms), default=0)


def test_basic_products():
    p = vp(2, 0) * vp(2, 1)
    assert p.exponent_dict() == {(1, 1): Fraction(1)}
    # ((x0^2 + x1^2))^2: coefficient of x0^2 x1^2 is 2 (hand-expanded oracle)
    s = vp(2, 0) * vp(2, 0) + vp(2, 1) * vp(2, 1)
    sq = s * s
    assert sq.exponent_dict()[(2, 2)] == 2
    assert sq.exponent_dict()[(4, 0)] == 1
    p = vp(3, 2) + 5
    assert (p + (-1) * p).is_zero()


def test_gradient():
    n = 5
    s = MultiPoly.zero(n)
    for i in range(n):
        s = s + vp(n, i) * vp(n, i)
    g = s.gradient()
    for i in range(n):
        assert g[i] == 2 * vp(n, i)
    assert all(d.is_zero() for d in MultiPoly.const(n, 7).gradient())


def test_euler_identity_homogeneous_cubic():
    rng = Draws(12)
    n = 4
    p = MultiPoly.zero(n)
    for _ in range(15):
        i, j, k = rng.randint(0, n - 1), rng.randint(0, n - 1), rng.randint(0, n - 1)
        p = p + rng.rational(5) * (vp(n, i) * vp(n, j) * vp(n, k))
    euler = MultiPoly.zero(n)
    for i, d in enumerate(p.gradient()):
        euler = euler + vp(n, i) * d
    assert euler == 3 * p


@pytest.mark.parametrize("n", [2, 3, 5])
def test_laplacian_oracle(n):
    # oracle: lap(|x|^2) = 2n, lap(|x|^4) = (4n + 8)|x|^2, hand-derived
    s = norm_sq_poly(n)
    assert s.laplacian() == MultiPoly.const(n, 2 * n)
    assert (s * s).laplacian() == (4 * n + 8) * s
    assert vp(n, 0).laplacian().is_zero()


def test_eval():
    p = vp(2, 0) * vp(2, 1)
    assert p.eval([Fraction(2), Fraction(3)]) == 6
    assert MultiPoly.zero(3).eval([1, 2, 3]) == 0
    # |x|^4 at a rational unit vector
    s = norm_sq_poly(2)
    assert (s * s).eval([Fraction(3, 5), Fraction(4, 5)]) == 1
    with pytest.raises(ValueError):
        p.eval([1])


def test_ring_laws_random():
    rng = Draws(14)
    n = 3

    def rand_poly():
        p = MultiPoly.zero(n)
        for _ in range(6):
            i, j = rng.randint(0, n - 1), rng.randint(0, n - 1)
            p = p + rng.rational(4) * (vp(n, i) * vp(n, j))
        return p

    for _ in range(25):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        # product rule
        ga, gb, gab = a.gradient(), b.gradient(), (a * b).gradient()
        for i in range(n):
            assert gab[i] == ga[i] * b + a * gb[i]


def test_structure_queries():
    n = 3
    p = vp(n, 0) * vp(n, 1) + vp(n, 2) * vp(n, 2)
    assert p.is_homogeneous(2)
    assert not (p + vp(n, 0)).is_homogeneous()
    assert total_degree(p) == 2
    assert MultiPoly.zero(n).is_homogeneous(17)


def test_substitute_linear():
    # p(x, y) = x*y, substitute x -> u + v, y -> u - v: u^2 - v^2
    p = vp(2, 0) * vp(2, 1)
    u, v = vp(2, 0), vp(2, 1)
    out = p.substitute_linear([u + v, u - v])
    assert out == u * u - v * v


def test_substitute_linear_rejects_forms_of_different_nvars():
    # x2 is not a variable of a 2-variable target: the forms must agree
    with pytest.raises(ValueError, match="nvars"):
        (vp(2, 0) + vp(2, 1)).substitute_linear([vp(2, 0), vp(3, 2)])
    with pytest.raises(ValueError, match="nvars"):
        vp(2, 0).substitute_linear([vp(3, 0), vp(2, 1)])
    with pytest.raises(ValueError):
        vp(2, 0).substitute_linear([vp(2, 0)])


def test_substitute_linear_matches_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.polys.domains import QQ
    from sympy.polys.rings import ring

    n, m = 4, 3
    R, *xs = ring(",".join(f"x{i}" for i in range(n)), QQ)
    S, *us = ring(",".join(f"u{j}" for j in range(m)), QQ)
    rng = Draws(23)
    # a degree-4 polynomial with a square, a cube, a fourth power and a
    # constant, through rational affine forms
    f = MultiPoly.const(n, Fraction(-2, 7))
    want = R(QQ(-2, 7))
    for idx in [(0, 1, 2, 3), (0, 0, 1, 3), (2, 2, 2), (1, 1, 1, 1), (3, 0), (2,)]:
        c = rng.rational(5)
        f = f + c * MultiPoly(n, {monomial_key(*idx): 1})
        want += QQ(c.numerator, c.denominator) * sympy.prod([xs[i] for i in idx], start=R.one)
    forms, images = [], []
    for _ in range(n):
        c0 = rng.rational(4)
        lf, im = MultiPoly.const(m, c0), S(QQ(c0.numerator, c0.denominator))
        for j in range(m):
            c = rng.rational(6)
            lf, im = lf + c * vp(m, j), im + QQ(c.numerator, c.denominator) * us[j]
        forms.append(lf)
        images.append(im)
    got = f.substitute_linear(forms)
    composed = S.zero
    for exps, c in want.terms():
        term = S(c)
        for i, e in enumerate(exps):
            term *= images[i] ** e
        composed += term
    assert {tuple(e): Fraction(c.numerator, c.denominator) for e, c in composed.terms()} == got.exponent_dict()


def test_dump_parse_round_trip():
    n = 3
    p = Fraction(-3, 7) * (vp(n, 0) * vp(n, 2)) + vp(n, 1) + MultiPoly.const(n, 2)
    text = p.dump()
    lines = text.splitlines()
    # graded-lex: constant first, then degree-1, then degree-2
    assert lines[0].startswith("2/1")
    assert MultiPoly.parse(text, n) == p


def test_exponent_overflow_guard():
    p = vp(1, 0) ** 16
    with pytest.raises(OverflowError):
        p * p


def test_munzner_trivial_and_failing():
    # F = (sum x^2)^2 on R^32 with (m1, m2) = (7, 8): gradient identity holds
    # but lap F = 136|x|^2 != +-8|x|^2
    n = 32
    s = norm_sq_poly(n)
    f = s * s
    rep = munzner_verify(f, 7, 8, ())
    assert not rep.passed
    names = {c.name: c.passed for c in rep.checks}
    assert names["gradient_identity"]
    assert not names["laplacian_identity"]


def test_munzner_sign_flip_invariance(fkm_polys):
    f = fkm_polys[("left", Fraction(0))]
    rep_pos = munzner_verify(f, 7, 8, ())
    rep_neg = munzner_verify(-f, 7, 8, ())
    assert rep_pos.passed and rep_neg.passed
    sign_pos = next(c.detail["sign"] for c in rep_pos.checks if c.name == "laplacian_identity")
    sign_neg = next(c.detail["sign"] for c in rep_neg.checks if c.name == "laplacian_identity")
    assert sign_pos == -sign_neg


def test_rt2_poly():
    n = 2
    a = Rt2Poly(vp(n, 0), vp(n, 1))  # x + sqrt2 y
    b = a * a
    # (x + sqrt2 y)^2 = x^2 + 2y^2 + sqrt2 * 2xy
    assert b.a == vp(n, 0) * vp(n, 0) + 2 * (vp(n, 1) * vp(n, 1))
    assert b.b == 2 * (vp(n, 0) * vp(n, 1))
    assert (a - a).is_zero()
    assert Rt2Poly.rational(vp(n, 0)).is_rational()
    assert Rt2Poly.sqrt2_times(vp(n, 0)).is_pure_sqrt2()


def test_rt2_poly_negative_half_tags():
    # 2^(-1/2) = sqrt2 / 2, 2^(-1) and 3 * 2^(-3/2) = 3 sqrt2 / 4, over den 5
    x = monomial_key(0)
    got = rt2_poly(1, iter([(x, 1, -1), (0, 1, -2), (x, 3, -3)]), 5)
    assert got.a == MultiPoly(1, {0: Fraction(1, 10)})
    assert got.b == MultiPoly(1, {x: Fraction(1, 10) + Fraction(3, 20)})
    assert rt2_poly(1, []) == Rt2Poly.zero(1)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 2), st.integers(-5, 5), st.integers(-5, 4)), max_size=8),
    st.integers(1, 12),
)
def test_rt2_poly_matches_the_fraction_sum(raw, den):
    """Half tags of either sign, cancelling terms and a shared monomial,
    against c / den * 2^(kfold // 2) summed in Fractions."""
    terms = [(monomial_key(v), c, kfold) for v, c, kfold in raw]
    want: tuple[dict, dict] = ({}, {})
    for key, c, kfold in terms:
        part = want[kfold % 2]
        part[key] = part.get(key, 0) + Fraction(c, den) * Fraction(2) ** (kfold // 2)
    got = rt2_poly(3, iter(terms), den)
    assert (got.a, got.b) == tuple(MultiPoly(3, part) for part in want)


def test_nvars_mismatch_errors():
    with pytest.raises(ValueError):
        vp(2, 0) + vp(3, 0)
    with pytest.raises(ValueError):
        vp(2, 0) * vp(3, 0)


@pytest.mark.parametrize(
    "line, nvars",
    [
        ("1/1 31 0", 2),  # above the supported range 0..30
        ("1/1 32 0", 2),  # used to wrap into the next variable and read as x1
        ("1/1 -1 0", 2),
        ("1/1 1 0 1", 2),  # more exponents than nvars used to leave a stray key
    ],
)
def test_parse_rejects_unrepresentable_exponents(line, nvars):
    with pytest.raises(ValueError):
        MultiPoly.parse(line, nvars)


@pytest.mark.parametrize(
    "text, match",
    [
        ("1/1 2 0\n3/1 2 0", "a second term"),  # used to keep the last line
        ("1/1 2", "1 exponents"),  # used to read as x0^2 over 2 variables
        ("1/0 2 0", "zero denominator"),  # used to raise ZeroDivisionError
    ],
)
def test_parse_rejects_ambiguous_lines(text, match):
    with pytest.raises(ValueError, match=match):
        MultiPoly.parse(text, 2)


def test_parse_accepts_top_of_exponent_range():
    p = MultiPoly.parse("2/3 30 0\n1/1 0 1", 2)
    assert p == Fraction(2, 3) * vp(2, 0) ** 30 + vp(2, 1)


def test_lazy_overflow_guard():
    # built through sums, so no maxexp was computed before the product asks
    p = vp(2, 0) ** 16 + vp(2, 1)
    assert p.maxexp == 16
    with pytest.raises(OverflowError):
        p * p
    x16 = vp(1, 0) ** 16
    with pytest.raises(OverflowError):
        x16 * x16
    assert (vp(1, 0) ** 15 * vp(1, 0) ** 15).exponent_dict() == {(30,): Fraction(1)}
    with pytest.raises(OverflowError):
        vp(1, 0) ** 15 * x16


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_substitute_linear_agrees_with_evaluation(data):
    n = data.draw(st.integers(1, 4), label="source vars")
    m = data.draw(st.integers(1, 3), label="target vars")
    rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)
    f = MultiPoly.zero(n)
    for _ in range(data.draw(st.integers(0, 6))):
        mono = MultiPoly.const(n, data.draw(rationals))
        # up to degree 5: odd splits, repeated variables and constants
        for _ in range(data.draw(st.integers(0, 5))):
            mono = mono * vp(n, data.draw(st.integers(0, n - 1)))
        f = f + mono
    forms = []
    for _ in range(n):
        lf = MultiPoly.const(m, data.draw(rationals))
        for j in range(m):
            lf = lf + data.draw(rationals) * vp(m, j)
        forms.append(lf)
    point = [data.draw(rationals) for _ in range(m)]
    composed = f.substitute_linear(forms)
    assert composed.nvars == m
    assert composed.eval(point) == f.eval([lf.eval(point) for lf in forms])


# -- rational ingress ----------------------------------------------------------


def test_init_rejects_float_coefficient():
    with pytest.raises(TypeError):
        MultiPoly(2, {1: 0.1})
    with pytest.raises(TypeError):
        MultiPoly(2, {1: 0.0})  # a zero float is rejected too, not dropped


def test_const_rejects_float():
    with pytest.raises(TypeError):
        MultiPoly.const(2, 0.1)


@pytest.mark.parametrize(
    "op",
    [
        lambda p: p * 0.5,
        lambda p: 0.5 * p,
        lambda p: p + 0.1,
        lambda p: 0.1 + p,
        lambda p: p - 0.1,
        lambda p: 0.1 - p,
    ],
)
def test_scalar_ops_reject_float(op):
    with pytest.raises(TypeError):
        op(vp(2, 0))


def test_eval_rejects_float_point():
    with pytest.raises(TypeError):
        vp(2, 0).eval([0.5, Fraction(1)])


def test_canonical_form_examples():
    half_x = Fraction(1, 2) * vp(2, 0)
    assert (half_x.terms, half_x.den) == ({1: 1}, 2)
    doubled = 2 * half_x  # numerator 2 over 2 reduces
    assert (doubled.terms, doubled.den) == ({1: 1}, 1)
    zero = half_x - half_x
    assert (zero.terms, zero.den) == ({}, 1)
    assert MultiPoly(2, {1: Fraction(2, 4), 32: Fraction(1, 6)}).den == 6


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 11), max_size=4))
def test_monomial_key_is_the_product_of_its_variables(indices):
    nv = 12
    want = MultiPoly.const(nv, 1)
    for i in indices:
        want = want * MultiPoly.variable(nv, i)
    assert MultiPoly(nv, {monomial_key(*indices): 1}) == want


# -- properties against a {exponents: Fraction} oracle ---------------------------

NV = 3
exponents = st.tuples(*[st.integers(0, 3)] * NV)
coeffs = st.one_of(st.integers(-6, 6), st.fractions(min_value=-9, max_value=9, max_denominator=12))
oracles = st.dictionaries(exponents, coeffs, max_size=6)
points = st.lists(st.one_of(st.integers(-4, 4), st.fractions(min_value=-5, max_value=5, max_denominator=9)), min_size=NV, max_size=NV)


def _poly(d):
    return MultiPoly(NV, {_pack_exps(e): c for e, c in d.items()})


def _pack_exps(exps):
    return sum(e << (5 * i) for i, e in enumerate(exps))


def _clean(d):
    return {e: Fraction(c) for e, c in d.items() if c}


def _oracle_add(a, b, sign=1):
    out = dict(_clean(a))
    for e, c in b.items():
        out[e] = out.get(e, 0) + sign * c
    return _clean(out)


def _oracle_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return _clean(out)


def _assert_canonical(p):
    assert p.den > 0
    assert all(type(c) is int and c for c in p.terms.values())
    assert gcd(p.den, *p.terms.values()) == 1
    # rebuilding from the rationals gives the very same (terms, den)
    q = MultiPoly(p.nvars, p.fraction_terms())
    assert (q.terms, q.den) == (p.terms, p.den)
    assert hash(q) == hash(p)


@settings(max_examples=80, deadline=None)
@given(oracles, oracles, coeffs)
def test_ring_ops_match_fraction_oracle(a, b, s):
    pa, pb = _poly(a), _poly(b)
    results = {
        "add": (pa + pb, _oracle_add(a, b)),
        "sub": (pa - pb, _oracle_add(a, b, -1)),
        "neg": (-pa, _oracle_add({}, a, -1)),
        "mul": (pa * pb, _oracle_mul(_clean(a), _clean(b))),
        "scalar_mul": (pa * s, _oracle_mul(_clean(a), _clean({(0,) * NV: s}))),
        "scalar_rmul": (s * pa, _oracle_mul(_clean(a), _clean({(0,) * NV: s}))),
        "scalar_add": (pa + s, _oracle_add(a, {(0,) * NV: s})),
        "scalar_rsub": (s - pa, _oracle_add({(0,) * NV: s}, a, -1)),
    }
    for name, (got, want) in results.items():
        assert got.exponent_dict() == want, name
        _assert_canonical(got)


@settings(max_examples=60, deadline=None)
@given(oracles, oracles)
def test_equal_polynomials_have_equal_representation(a, b):
    pa, pb = _poly(a), _poly(b)
    # the same polynomial reached along different paths
    for left, right in [((pa + pb) - pb, pa), (pa * pb, pb * pa), (pa + pa, 2 * pa), ((pa - pb) + pb, pa)]:
        assert left == right
        assert (left.terms, left.den) == (right.terms, right.den)
        assert hash(left) == hash(right)
        _assert_canonical(left)


@settings(max_examples=60, deadline=None)
@given(oracles)
def test_dump_parse_round_trip_property(a):
    p = _poly(a)
    text = p.dump()
    want = [f"{c.numerator}/{c.denominator} " + " ".join(map(str, e)) for e, c in _clean(a).items()]
    assert sorted(text.splitlines()) == sorted(want)
    q = MultiPoly.parse(text, NV)
    assert (q.terms, q.den) == (p.terms, p.den)


@settings(max_examples=80, deadline=None)
@given(oracles, points)
def test_eval_matches_naive_fraction_evaluation(a, pt):
    want = Fraction(0)
    for e, c in _clean(a).items():
        term = c
        for x, k in zip(pt, e):
            term *= Fraction(x) ** k
        want += term
    got = _poly(a).eval(pt)
    assert type(got) is Fraction
    assert got == want


def _reference_value(d, pt):
    """The {exponents: coefficient} polynomial d at pt, term by term in Fractions."""
    total = Fraction(0)
    for e, c in d.items():
        term = Fraction(c)
        for x, k in zip(pt, e):
            term *= Fraction(x) ** k
        total += term
    return total


@st.composite
def families(draw):
    """Polynomials over one small pool of monomials of mixed degrees, so that
    they share monomials, followed by a constant polynomial and the zero one."""
    pool = draw(st.lists(exponents, min_size=1, max_size=6, unique=True))
    polys = draw(st.lists(st.dictionaries(st.sampled_from(pool), coeffs, max_size=6), min_size=1, max_size=4))
    return [*polys, {(0,) * NV: draw(coeffs)}, {}]


@settings(max_examples=80, deadline=None)
@given(families(), st.lists(points, max_size=3))
def test_evaluate_matches_a_per_term_reference(family, pts):
    # a point with a zero coordinate and two different denominators, always
    pts = [*pts, [0, Fraction(1, 2), Fraction(-2, 3)]]
    got = [[_poly(d).eval(pt) for pt in pts] for d in family]
    assert got == [[_reference_value(d, pt) for pt in pts] for d in family]
    assert all(type(v) is Fraction for row in got for v in row)


@pytest.mark.parametrize("pos", [0, 1, 2])
def test_eval_checks_the_point_before_evaluating(pos, monkeypatch):
    import octoverify.poly as poly

    def no_decoding(key):
        raise AssertionError("a key was decoded before the point was checked")

    monkeypatch.setattr(poly, "monomial_exponents", no_decoding)
    p = _poly({(1, 0, 2): 3, (0, 1, 0): Fraction(1, 2)})
    good = [1, Fraction(1, 3), 2]
    with pytest.raises(ValueError, match="nvars"):
        p.eval(good[:pos] + good[pos + 1 :])
    floaty = list(good)
    floaty[pos] = 0.5
    with pytest.raises(TypeError):
        p.eval(floaty)
    floaty[pos] = True
    with pytest.raises(TypeError):
        p.eval(floaty)


# -- the field walker and its readers, over up to 40 variables -------------------


def exponent_vectors(n):
    """Exponent vectors of length n with entries 0..30: dense ones, and
    sparse ones with at most four nonzero fields."""
    dense = st.lists(st.integers(0, 30), min_size=n, max_size=n)
    sparse = st.dictionaries(st.integers(0, n - 1), st.integers(1, 30), max_size=4).map(
        lambda d: [d.get(i, 0) for i in range(n)]
    )
    return st.one_of(sparse, dense).map(tuple)


@st.composite
def wide_oracles(draw):
    """(n, {exponent tuple: coefficient}) over 1..40 variables."""
    n = draw(st.integers(1, 40))
    return n, draw(st.dictionaries(exponent_vectors(n), coeffs, max_size=6))


def _field_by_field(key):
    """The nonzero (index, exponent) fields of a key, read one 5-bit field at a time."""
    out, i = [], 0
    while key:
        if key & 31:
            out.append((i, key & 31))
        key >>= 5
        i += 1
    return out


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 40).flatmap(exponent_vectors))
@example((0,) * 39 + (30,))
@example((30,) * 40)
@example((0,))
def test_monomial_exponents_matches_a_field_by_field_decode(v):
    key = _pack(v)
    assert monomial_exponents(key) == _field_by_field(key) == [(i, e) for i, e in enumerate(v) if e]
    assert _unpack(key, len(v)) == v


def _oracle_gradient(d, n):
    out = [{} for _ in range(n)]
    for e, c in d.items():
        for i in range(n):
            if e[i]:
                out[i][e[:i] + (e[i] - 1,) + e[i + 1 :]] = c * e[i]
    return out


def _oracle_laplacian(d, n):
    out = {}
    for e, c in d.items():
        for i in range(n):
            if e[i] >= 2:
                k = e[:i] + (e[i] - 2,) + e[i + 1 :]
                out[k] = out.get(k, 0) + c * e[i] * (e[i] - 1)
    return _clean(out)


def _oracle_polarised(d, n, first, shift):
    out = {}
    for e, c in d.items():
        wide = e + (0,) * shift
        for v in range(first, n):
            if e[v]:
                k = list(wide)
                k[v] -= 1
                k[v + shift] += 1
                out[tuple(k)] = out.get(tuple(k), 0) + c * e[v]
    return _clean(out)


@settings(max_examples=100, deadline=None)
@given(wide_oracles(), st.data())
def test_field_readers_match_the_exponent_oracle(oracle, data):
    n, a = oracle
    d = _clean(a)
    p = MultiPoly(n, {_pack_exps(e): c for e, c in a.items()})
    assert p.exponent_dict() == d
    assert [g.exponent_dict() for g in p.gradient()] == _oracle_gradient(d, n)
    assert p.laplacian().exponent_dict() == _oracle_laplacian(d, n)
    first = data.draw(st.integers(0, n))
    shift = data.draw(st.integers(max(1, n - first), n - first + 2))  # onto variables past the last
    assert p.polarised(first, shift).exponent_dict() == _oracle_polarised(d, n, first, shift)
    assert p.maxexp == max((x for e in d for x in e), default=0)
    degrees = {sum(e) for e in d}
    assert p.is_homogeneous() == (len(degrees) <= 1)
    for degree in degrees:
        assert p.is_homogeneous(degree) == (degrees == {degree})


def test_munzner_residual_terms_of_a_planted_f(fkm_polys):
    # |x|^4 on R^5 meets the gradient identity; plant m = x0 x1 x2 x3.  The
    # residual is 2 <grad |x|^4, grad m> + |grad m|^2 = 32 |x|^2 m +
    # sum_i (m / x_i)^2: five terms x_k^2 m and four x_j^2 x_k^2 x_l^2
    n = 5
    s = norm_sq_poly(n)
    m = MultiPoly(n, {monomial_key(0, 1, 2, 3): 1})
    assert radial_shift(s * s + m) == (1, m)
    rep = munzner_verify(s * s + m, 1, 2, ())
    assert rep.checks[0].name == "gradient_identity" and not rep.checks[0].passed
    assert rep.checks[0].detail == {"residual_terms": 9}
    # the octonion FKM F at t = 0 with the same term planted
    f = fkm_polys[("left", Fraction(0))]
    planted = f + MultiPoly(f.nvars, {monomial_key(0, 1, 2, 3): 1})
    assert radial_shift(planted)[0] == -1  # the count comes from the shifted residual
    rep = munzner_verify(planted, 7, 8, ())
    assert {c.name: (c.passed, c.detail) for c in rep.checks} == {
        "gradient_identity": (False, {"residual_terms": 292}),
        "laplacian_identity": (True, {"sign": -1}),
    }


RNV = 6  # variables of the radial-shift property


def _unshifted_gradient_terms(f: MultiPoly) -> int:
    """The terms of |grad F|^2 - 16 |x|^6, summed from F by one call."""
    n = f.nvars
    grads = f.gradient()
    sq = norm_sq_poly(n)
    return len(weighted_products(n, [*grads, sq], [*grads, sq * sq], [[*((1, i, i) for i in range(n)), (-16, n, n)]])[0].terms)


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from([0, 1, -1, Fraction(3, 5), Fraction(-7, 4)]),
    # sparse noise: a monomial of distinct variables is harmonic
    st.lists(
        st.tuples(
            st.lists(st.integers(0, RNV - 1), min_size=4, max_size=4),
            st.fractions(min_value=-3, max_value=3, max_denominator=6).filter(bool),
        ),
        max_size=3,
    ),
    # m2 - m1; lap(c |x|^4) = 4 c (n + 2) |x|^2 meets the target
    # 8 (m2 - m1) |x|^2 at 4c (n = 6)
    st.sampled_from([0, 4, -4, 6, -6, -7, 1]),
)
def test_radial_shift_keeps_the_munzner_residuals(c, noise, k):
    terms = {}
    for idx, coef in noise:
        key = monomial_key(*idx)
        terms[key] = terms.get(key, 0) + coef
    noise = MultiPoly(RNV, terms)
    radial = norm_sq_poly(RNV) ** 2
    f = noise + c * radial
    shift, h = radial_shift(f)
    if not shift:
        assert h is f  # c = 0: the unshifted route
    elif not radial.terms.keys() & noise.terms.keys():
        assert (shift, h) == (c, noise)
    rep = munzner_verify(f, 7, 7 + k, ())
    want = 8 * k * norm_sq_poly(RNV)
    lap = f.laplacian()
    assert {check.name: check.detail for check in rep.checks} == {
        "gradient_identity": {"residual_terms": _unshifted_gradient_terms(f)},
        "laplacian_identity": {"sign": 1 if lap == want else (-1 if lap == -want else 0)},
    }


# a monomial with an odd exponent is no monomial of |x|^4, so a noise E made
# of them is exactly what the radial shift of F - S leaves
odd_quartics = st.lists(st.integers(0, RNV - 1), min_size=4, max_size=4).filter(
    lambda idx: any(idx.count(v) % 2 for v in idx)
)
quadratics = st.lists(
    st.tuples(
        st.tuples(st.integers(0, RNV - 1), st.integers(0, RNV - 1)),
        st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool),
    ),
    min_size=1,
    max_size=4,
)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([0, 2, Fraction(3, 5), Fraction(-7, 4)]),
    st.lists(
        st.tuples(st.fractions(min_value=-3, max_value=3, max_denominator=5).filter(bool), quadratics),
        min_size=1,
        max_size=3,
    ),
    st.lists(
        st.tuples(odd_quartics, st.fractions(min_value=-3, max_value=3, max_denominator=6).filter(bool)),
        min_size=1,
        max_size=3,
    ),
    st.sampled_from([0, 4, -4, 6, 1]),
)
def test_munzner_squares_are_a_hint_that_keeps_the_residuals(c, drawn, noise, k):
    # F = c|x|^4 + sum w_i Q_i^2 + E with random quadratics Q_i: the split
    # along the squares proves the same identities, with the same count, as
    # the radial shift of F alone
    squares = []
    for w, terms in drawn:
        q = {}
        for (i, j), coef in terms:
            q[monomial_key(i, j)] = q.get(monomial_key(i, j), 0) + coef
        squares.append((w, MultiPoly(RNV, q)))
    e = {}
    for idx, coef in noise:
        e[monomial_key(*idx)] = e.get(monomial_key(*idx), 0) + coef
    e = MultiPoly(RNV, e)
    s = MultiPoly.zero(RNV)
    for w, q in squares:
        s += w * q * q
    f = c * norm_sq_poly(RNV) ** 2 + s + e
    if c:
        assert radial_shift(f - s) == (c, e)
    rep = munzner_verify(f, 7, 7 + k, squares)
    assert [(ch.name, ch.passed, ch.detail) for ch in rep.checks] == [
        (ch.name, ch.passed, ch.detail) for ch in munzner_verify(f, 7, 7 + k, ()).checks
    ]
    assert rep.checks[0].detail == {"residual_terms": _unshifted_gradient_terms(f)}


@pytest.mark.parametrize("w", [1, -1, Fraction(1, 3)])
def test_munzner_squares_of_a_form_with_a_trace(w):
    # F = w |x|^4 given as w Q^2 for Q = |x|^2 on R^4: c = 0 and E = 0, so
    # D_00 = 16 w^2 |x|^2 and the radial term carry the residual, which
    # vanishes for w = +-1; lap Q = 8 is nonzero, and lap F = 24 w |x|^2
    # meets the target 8 (m2 - m1) |x|^2 at m2 - m1 = 3 for w = +-1
    n = 4
    q = norm_sq_poly(n)
    f = w * q * q
    rep = munzner_verify(f, 1, 4, [(w, q)])
    generic = munzner_verify(f, 1, 4, ())
    assert [(c.name, c.detail) for c in rep.checks] == [(c.name, c.detail) for c in generic.checks]
    assert rep.passed == (w in (1, -1))
    assert rep.checks[1].detail == {"sign": w if w in (1, -1) else 0}


def test_munzner_squares_must_be_quadratics_at_degree_four():
    # F = |x|^4 - 2 <P x, x>^2 on R^2 for P = diag(1, -1), which squares to Id
    n = 2
    q = vp(n, 0) * vp(n, 0) - vp(n, 1) * vp(n, 1)
    f = norm_sq_poly(n) ** 2 - 2 * q * q
    assert munzner_verify(f, 0, 0, [(-2, q)]).checks[0].detail == {"residual_terms": 0}
    for bad in (vp(n, 0), q + vp(n, 1), MultiPoly.const(n, 1), vp(3, 0) * vp(3, 1)):
        with pytest.raises(ValueError, match="homogeneous quadratic"):
            munzner_verify(f, 0, 0, [(-2, bad)])
    # F itself not homogeneous: its remainder E is not, the same error as
    # without squares
    for squares in ((), [(-2, q)]):
        with pytest.raises(ValueError, match="F must be homogeneous of degree 4"):
            munzner_verify(f + vp(n, 1), 0, 0, squares)


def test_munzner_verify_peak_memory_stays_small(fkm_polys):
    # without squares, the gradient identity of the octonion F at t = 1/2
    # multiplies out one lowest-variable block at a time; summed into one
    # accumulator, its 66 912 keys put the heap peak near 7.6 MB
    f = fkm_polys[("left", Fraction(1, 2))]
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        rep = munzner_verify(f, 7, 8, ())
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert rep.passed
    assert peak < 4 * 2**20, f"peak {peak / 2**20:.2f} MiB above the start"
