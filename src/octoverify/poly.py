"""Sparse multivariate polynomials with exact rational coefficients.

Monomials are packed into a single integer key, 5 bits of exponent per
variable, so multiplying monomials is one integer addition and term dicts hash
fast.  That keeps the degree-6 identity |grad F|^2 - 16|x|^6 in 32 variables
(a couple of million term products) well inside the exact-arithmetic budget.

Coefficients are plain ints over one shared denominator: a ``MultiPoly`` is
``terms`` (packed key -> nonzero int numerator) divided by ``den`` (a positive
int).  The form is canonical: ``gcd(den, *numerators) == 1``, and the zero
polynomial has ``den == 1``.  So equal polynomials have equal ``(terms, den)``
and ``==``/``hash`` compare dicts.  Every ring operation works in ints and
reduces its result once, with one ``math.gcd(den, *numerators)``; no
``Fraction`` is built on the way.  ``fraction_terms`` hands the coefficients
out as ``Fraction`` values to the few readers that want them (``dump``,
``exponent_dict``, the expansion-form extraction).  ``eval_many`` decodes
each packed key once for all its points, clears each point's denominators
once and sums in ints too; ``eval`` is ``eval_many`` at one point, so there
is one evaluator.  This is the only representation: the Muenzner verifier
reads ``terms`` and ``den`` directly instead of keeping an integer copy of
its own.

Only ints and ``Fraction`` enter, by the rule of ``scalars.int_scaled``,
which clears the denominators of the constructor's coefficients and of each
point of ``eval_many``: the constructor, ``const``, scalar ``+ - *`` and
``eval``/``eval_many`` raise ``TypeError`` for anything else, a ``bool``
too (a float would otherwise be stored as a binary fraction, or compare
unequal to the rational it stands for).

The supported exponent range is 0..30 per variable, and it is enforced at
both ends.  ``_pack``, and through it ``MultiPoly.parse`` (the reader for
``--dump-poly`` output), raises ``ValueError`` for an exponent outside that
range or for more exponents than ``nvars``.  ``mul`` raises ``OverflowError``
rather than silently corrupting keys when a product could leave it.  That
guard needs each factor's largest exponent, ``maxexp``, which is computed
lazily on the first product that asks for it and then kept; nothing else
scans the keys.  Ring operations hand the zero-free dicts they build straight
to the result instead of copying and re-filtering them.

Identities are always verified as "difference is the zero polynomial"; there
is no division anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable

from .report import Report
from .scalars import EXACT_TYPES, DeterministicRng, int_scaled, random_rationals

BITS = 5
_EXP_MASK = (1 << BITS) - 1
_EXP_MAX = (1 << BITS) - 2  # one value below the 5-bit field, kept as headroom


def _pack(exponents: Iterable[int], nvars: int) -> int:
    key = 0
    for i, e in enumerate(exponents):
        if i >= nvars:
            raise ValueError(f"more than nvars={nvars} exponents")
        if not 0 <= e <= _EXP_MAX:
            raise ValueError(f"exponent {e} of x{i} outside 0..{_EXP_MAX}")
        if e:
            key |= e << (BITS * i)
    return key


def monomial_key(*indices: int) -> int:
    """Packed key of the monomial x_i x_j ... over the given variable indices;
    a repeated index raises its exponent, so (i, i) is x_i^2."""
    key = 0
    for i in indices:
        key += 1 << (BITS * i)
    return key


def _unpack(key: int, nvars: int) -> tuple[int, ...]:
    return tuple((key >> (BITS * i)) & _EXP_MASK for i in range(nvars))


def monomial_exponents(key: int) -> list[tuple[int, int]]:
    """The (variable index, exponent) pairs of a packed key with a nonzero
    exponent, in index order."""
    out = []
    i = 0
    while key:
        e = key & _EXP_MASK
        if e:
            out.append((i, e))
        key >>= BITS
        i += 1
    return out


def _rational(c):
    if type(c) not in EXACT_TYPES:
        raise TypeError(f"{c!r} is not an int or a Fraction")
    return c


class MultiPoly:
    """Immutable-by-convention sparse polynomial: int numerators ``terms`` over ``den``."""

    __slots__ = ("nvars", "terms", "den", "_maxexp")

    def __init__(self, nvars: int, terms: dict | None = None):
        """``terms`` maps packed monomial keys to int or Fraction coefficients."""
        # already canonical over the lcm of the reduced denominators: each
        # prime power dividing it divides some denominator in full, and the
        # numerator scaled with that one is not a multiple of the prime
        terms = terms or {}
        den, nums = int_scaled(terms.values())
        self.nvars = nvars
        self.terms: dict[int, int] = {k: c for k, c in zip(terms, nums) if c}
        self.den = den
        self._maxexp = None

    @staticmethod
    def _adopt(nvars: int, terms: dict, den: int = 1) -> "MultiPoly":
        """Wrap zero-free int numerators over ``den`` > 0 without copying them,
        reduced to the canonical form."""
        if den != 1:
            g = gcd(den, *terms.values())
            if g != 1:
                terms = {k: c // g for k, c in terms.items()}
                den //= g
        p = MultiPoly.__new__(MultiPoly)
        p.nvars = nvars
        p.terms = terms
        p.den = den
        p._maxexp = None
        return p

    @property
    def maxexp(self) -> int:
        """Largest exponent of any variable; computed on first use, then kept."""
        if self._maxexp is None:
            m = 0
            for k in self.terms:
                while k:
                    e = k & _EXP_MASK
                    if e > m:
                        m = e
                    k >>= BITS
            self._maxexp = m
        return self._maxexp

    # -- constructors ------------------------------------------------------
    @staticmethod
    def zero(nvars: int) -> "MultiPoly":
        return MultiPoly(nvars)

    @staticmethod
    def const(nvars: int, c) -> "MultiPoly":
        _rational(c)
        return MultiPoly._adopt(nvars, {0: c.numerator} if c else {}, c.denominator)

    @staticmethod
    def variable(nvars: int, i: int) -> "MultiPoly":
        if not 0 <= i < nvars:
            raise ValueError(f"variable index {i} out of range for nvars={nvars}")
        return MultiPoly._adopt(nvars, {1 << (BITS * i): 1})

    def fraction_terms(self) -> dict[int, Fraction]:
        """Packed monomial key -> coefficient as a Fraction."""
        den = self.den
        return {k: Fraction(c, den) for k, c in self.terms.items()}

    def exponent_dict(self) -> dict[tuple[int, ...], Fraction]:
        return {_unpack(k, self.nvars): c for k, c in self.fraction_terms().items()}

    # -- ring operations ----------------------------------------------------
    def _check(self, other: "MultiPoly") -> None:
        if self.nvars != other.nvars:
            raise ValueError(f"nvars mismatch: {self.nvars} != {other.nvars}")

    def _merge(self, other, sign: int) -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            if type(other) not in EXACT_TYPES:
                return NotImplemented
            other = MultiPoly.const(self.nvars, other)
        self._check(other)
        if not other.terms:
            return self
        if not self.terms and sign > 0:
            return other
        # bring both numerator dicts over lcm(den_a, den_b)
        den, other_den = self.den, other.den
        if den == other_den:
            t = dict(self.terms)
        else:
            g = gcd(den, other_den)
            t = {k: c * (other_den // g) for k, c in self.terms.items()}
            sign *= den // g
            den *= other_den // g
        for k, c in other.terms.items():
            c *= sign
            v = t.get(k)
            s = c if v is None else v + c
            if s:
                t[k] = s
            elif v is not None:
                del t[k]
        return MultiPoly._adopt(self.nvars, t, den)

    def __add__(self, other):
        return self._merge(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._adopt(self.nvars, {k: -c for k, c in self.terms.items()}, self.den)

    def __sub__(self, other):
        return self._merge(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            if type(other) not in EXACT_TYPES:
                return NotImplemented
            if other == 0:
                return MultiPoly(self.nvars)
            num = other.numerator
            return MultiPoly._adopt(
                self.nvars, {k: c * num for k, c in self.terms.items()}, self.den * other.denominator
            )
        self._check(other)
        if not self.terms or not other.terms:
            return MultiPoly(self.nvars)
        if self.maxexp + other.maxexp > _EXP_MAX:
            raise OverflowError("monomial exponent would exceed packing limit")
        out: dict[int, int] = {}
        get = out.get
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                k = k1 + k2
                v = get(k)
                s = c1 * c2 if v is None else v + c1 * c2
                if s:
                    out[k] = s
                elif v is not None:
                    del out[k]
        return MultiPoly._adopt(self.nvars, out, self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        out = MultiPoly.const(self.nvars, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def __eq__(self, other):
        if type(other) in EXACT_TYPES:
            other = MultiPoly.const(self.nvars, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.den == other.den and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, self.den, frozenset(self.terms.items())))

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- calculus -----------------------------------------------------------
    def gradient(self) -> list["MultiPoly"]:
        gs: list[dict] = [dict() for _ in range(self.nvars)]
        for k, c in self.terms.items():
            kk = k
            i = 0
            while kk:
                e = kk & _EXP_MASK
                if e:
                    gs[i][k - (1 << (BITS * i))] = c * e
                kk >>= BITS
                i += 1
        return [MultiPoly._adopt(self.nvars, g, self.den) for g in gs]

    def laplacian(self) -> "MultiPoly":
        out: dict[int, int] = {}
        for k, c in self.terms.items():
            kk = k
            i = 0
            while kk:
                e = kk & _EXP_MASK
                if e >= 2:
                    k2 = k - (2 << (BITS * i))
                    v = out.get(k2)
                    s = c * (e * (e - 1)) if v is None else v + c * e * (e - 1)
                    if s:
                        out[k2] = s
                    elif v is not None:
                        del out[k2]
                kk >>= BITS
                i += 1
        return MultiPoly._adopt(self.nvars, out, self.den)

    def eval(self, point: list) -> Fraction:
        """Exact value at a point of ints and Fractions (see ``eval_many``)."""
        return self.eval_many([point])[0]

    def eval_many(self, points: list) -> list[Fraction]:
        """Exact values at several points of ints and Fractions.

        Every point is checked before anything is evaluated.  Each packed key
        is decoded once, into its degree and its (variable, exponent) slots.
        Per point the denominators are cleared once: with q their lcm and
        b_i = q a_i, a term c x^e of degree d is c b^e / q^d.  The powers
        b_i^e are computed once per point, terms are summed in ints per
        degree, and one Fraction is built at the end.
        """
        scaled = []
        for point in points:
            if len(point) != self.nvars:
                raise ValueError("point length does not match nvars")
            scaled.append(int_scaled(point))
        # (numerator, degree, slots) per term; a slot (i << BITS) | e indexes b_i^e
        monos = []
        for k, c in self.terms.items():
            exps = monomial_exponents(k)
            monos.append((c, sum(e for _, e in exps), [(i << BITS) | e for i, e in exps]))
        top = max((d for _, d, _ in monos), default=0)
        maxexp = self.maxexp
        out = []
        for q, b in scaled:
            powers = [0] * (self.nvars << BITS)
            for i, bi in enumerate(b):
                p = 1
                for e in range(1, maxexp + 1):
                    p *= bi
                    powers[(i << BITS) | e] = p
            by_degree: dict[int, int] = {}
            for c, d, slots in monos:
                for s in slots:
                    c *= powers[s]
                by_degree[d] = by_degree.get(d, 0) + c
            total = sum(s * q ** (top - d) for d, s in by_degree.items())
            out.append(Fraction(total, self.den * q**top))
        return out

    # -- structure ----------------------------------------------------------
    def total_degree(self) -> int:
        deg = 0
        for k in self.terms:
            d = 0
            kk = k
            while kk:
                d += kk & _EXP_MASK
                kk >>= BITS
            deg = max(deg, d)
        return deg

    def is_homogeneous(self, degree: int | None = None) -> bool:
        degs = set()
        for k in self.terms:
            d = 0
            kk = k
            while kk:
                d += kk & _EXP_MASK
                kk >>= BITS
            degs.add(d)
        if not degs:
            return True
        if len(degs) > 1:
            return False
        return degree is None or degs.pop() == degree

    def substitute_linear(self, forms: list["MultiPoly"]) -> "MultiPoly":
        """Compose with x_i -> forms[i]; forms share a target variable space."""
        if len(forms) != self.nvars:
            raise ValueError("need one substitution form per variable")
        tv = forms[0].nvars
        # a product of d forms has a denominator dividing m**d, so m**degree
        # is a common denominator for every term
        scale = lcm(*(lf.den for lf in forms)) ** self.total_degree()
        out: dict[int, int] = {}
        get = out.get
        for k, c in self.terms.items():
            term = None
            kk = k
            i = 0
            while kk:
                e = kk & _EXP_MASK
                for _ in range(e):
                    term = forms[i] if term is None else term * forms[i]
                kk >>= BITS
                i += 1
            if term is None:
                c *= scale
                items = ((0, 1),)
            else:
                c *= scale // term.den
                items = term.terms.items()
            for k2, c2 in items:
                v = get(k2)
                s = c * c2 if v is None else v + c * c2
                if s:
                    out[k2] = s
                elif v is not None:
                    del out[k2]
        return MultiPoly._adopt(tv, out, self.den * scale)

    # -- serialization ------------------------------------------------------
    def sorted_terms(self) -> list[tuple[tuple[int, ...], Fraction]]:
        """Graded-lexicographic order (total degree, then exponent tuple)."""
        items = list(self.exponent_dict().items())
        items.sort(key=lambda kc: (sum(kc[0]), kc[0]))
        return items

    def dump(self) -> str:
        """One term per line: 'num/den e_0 e_1 ... e_{n-1}' in graded-lex order."""
        lines = []
        for exps, c in self.sorted_terms():
            lines.append(f"{c.numerator}/{c.denominator} " + " ".join(map(str, exps)))
        return "\n".join(lines)

    @staticmethod
    def parse(text: str, nvars: int) -> "MultiPoly":
        terms = {}
        for line in text.strip().splitlines():
            if not line.strip():
                continue
            head, *exps = line.split()
            num, den = head.split("/")
            key = _pack((int(e) for e in exps), nvars)
            terms[key] = Fraction(int(num), int(den))
        return MultiPoly(nvars, terms)

    def __repr__(self):
        return f"MultiPoly(nvars={self.nvars}, terms={len(self.terms)})"


def norm_sq_poly(nvars: int) -> MultiPoly:
    return MultiPoly._adopt(nvars, {2 << (BITS * i): 1 for i in range(nvars)})


@dataclass(frozen=True)
class Rt2Poly:
    """Polynomial with Q(sqrt 2) coefficients, kept as rational + sqrt2-rational parts.

    value = a + sqrt(2) * b.  Sqrt-2 factors from mirror-point frames live here
    so the exact pipeline never touches irrational floats.
    """

    a: MultiPoly
    b: MultiPoly

    @staticmethod
    def zero(nvars: int) -> "Rt2Poly":
        return Rt2Poly(MultiPoly(nvars), MultiPoly(nvars))

    @staticmethod
    def rational(p: MultiPoly) -> "Rt2Poly":
        return Rt2Poly(p, MultiPoly(p.nvars))

    @staticmethod
    def sqrt2_times(p: MultiPoly) -> "Rt2Poly":
        return Rt2Poly(MultiPoly(p.nvars), p)

    def __add__(self, other: "Rt2Poly") -> "Rt2Poly":
        return Rt2Poly(self.a + other.a, self.b + other.b)

    def __sub__(self, other: "Rt2Poly") -> "Rt2Poly":
        return Rt2Poly(self.a - other.a, self.b - other.b)

    def __neg__(self) -> "Rt2Poly":
        return Rt2Poly(-self.a, -self.b)

    def __mul__(self, other):
        if isinstance(other, Rt2Poly):
            return Rt2Poly(self.a * other.a + 2 * (self.b * other.b), self.a * other.b + self.b * other.a)
        return Rt2Poly(self.a * other, self.b * other)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return self.a.is_zero() and self.b.is_zero()

    def is_rational(self) -> bool:
        return self.b.is_zero()

    def is_pure_sqrt2(self) -> bool:
        return self.a.is_zero()

    def __eq__(self, other):
        return isinstance(other, Rt2Poly) and self.a == other.a and self.b == other.b


def rt2_poly(nvars: int, terms: Iterable[tuple[int, Fraction, int]]) -> Rt2Poly:
    """The sum of c * 2^(kfold/2) * (monomial ``key``) over the (key, c, kfold)
    triples: an even kfold adds c * 2^(kfold/2) to the rational part, an odd
    one c * 2^((kfold-1)/2) to the sqrt2 part."""
    parts: tuple[dict, dict] = ({}, {})
    for key, c, kfold in terms:
        part = parts[kfold % 2]
        part[key] = part.get(key, 0) + c * Fraction(2) ** (kfold // 2)
    return Rt2Poly(MultiPoly(nvars, parts[0]), MultiPoly(nvars, parts[1]))


# ---------------------------------------------------------------------------
# the Muenzner verifier
# ---------------------------------------------------------------------------

def _int_square_into(acc: dict[int, int], p: dict[int, int], scale: int = 1) -> None:
    items = list(p.items())
    m = len(items)
    for i in range(m):
        k1, c1 = items[i]
        kk = k1 + k1
        w = scale * c1 * c1
        v = acc.get(kk)
        acc[kk] = w if v is None else v + w
        c1d = 2 * scale * c1
        for j in range(i + 1, m):
            k2, c2 = items[j]
            k = k1 + k2
            w = c1d * c2
            v = acc.get(k)
            acc[k] = w if v is None else v + w


def _int_norm_power(nvars: int, power: int) -> dict[int, int]:
    base = {2 << (BITS * i): 1 for i in range(nvars)}
    out = {0: 1}
    for _ in range(power):
        nxt: dict[int, int] = {}
        for k1, c1 in out.items():
            for k2, c2 in base.items():
                k = k1 + k2
                nxt[k] = nxt.get(k, 0) + c1 * c2
        out = nxt
    return out


def munzner_verify(
    f: MultiPoly,
    g: int,
    m1: int,
    m2: int,
    rng: DeterministicRng | None = None,
    trials: int = 20,
    randomized: bool = False,
) -> Report:
    """Check the two Cartan-Muenzner PDEs for F or -F on R^nvars:

        |grad F|^2 = g^2 |x|^(2g-2)
        lap F      = (m2 - m1) g^2 |x|^(g-2) / 2

    The gradient identity is sign-invariant; the Laplacian identity fixes the
    sign, which the report records (sign +1 means F itself satisfies it with
    the multiplicities as given, -1 means -F does).  Both are proved as
    polynomial identities; only ``randomized=True`` samples them instead, at
    ``trials`` random points, under check names ending in ``_randomized``.
    The sampled route draws all the points first and then evaluates each
    partial derivative and the Laplacian over all of them with one
    ``eval_many`` call each.
    """
    rep = Report("munzner")
    n = f.nvars
    if not f.is_homogeneous(g):
        raise ValueError(f"F must be homogeneous of degree {g}")
    if (g < 2 or g % 2 != 0) and m1 != m2:
        raise ValueError("degree g with g-2 odd or negative needs m1 == m2")

    lap_half = Fraction((m2 - m1) * g * g, 2)

    if randomized:
        rng = rng or DeterministicRng(0)
        ok_grad = True
        ok_lap_pos = True
        ok_lap_neg = True
        pts = [random_rationals(rng, 7, n) for _ in range(trials)]
        grad_sq = [Fraction(0)] * trials
        for gp in f.gradient():
            grad_sq = [s + v * v for s, v in zip(grad_sq, gp.eval_many(pts))]
        lap_vals = f.laplacian().eval_many(pts)
        for pt, gv, lv in zip(pts, grad_sq, lap_vals):
            r2 = sum(x * x for x in pt)
            if gv != g * g * r2 ** (g - 1):
                ok_grad = False
            want = lap_half * r2 ** ((g - 2) // 2) if g >= 2 else Fraction(0)
            if lv != want:
                ok_lap_pos = False
            if -lv != want:
                ok_lap_neg = False
        rep.add("gradient_identity_randomized", ok_grad, detail={"trials": trials})
        sign = 1 if ok_lap_pos else (-1 if ok_lap_neg else 0)
        rep.add("laplacian_identity_randomized", ok_lap_pos or ok_lap_neg, detail={"sign": sign})
        return rep

    # |grad(den F)|^2 in ints: each partial is over a denominator dividing den
    den = f.den
    acc: dict[int, int] = {}
    for gp in f.gradient():
        _int_square_into(acc, gp.terms, (den // gp.den) ** 2)
    target = _int_norm_power(n, g - 1)
    gg = g * g * den * den
    for k, c in target.items():
        v = acc.get(k, 0) - gg * c
        if v:
            acc[k] = v
        else:
            acc.pop(k, None)
    grad_ok = all(v == 0 for v in acc.values())
    rep.add("gradient_identity", grad_ok, detail={"residual_terms": sum(1 for v in acc.values() if v)})

    # g < 2 forces m1 == m2, so lap_half is 0 wherever the power is clamped
    lap = f.laplacian()
    want = MultiPoly(n, {k: lap_half * c for k, c in _int_norm_power(n, max(g - 2, 0) // 2).items()})
    sign = 1 if lap == want else (-1 if lap == -want else 0)
    rep.add("laplacian_identity", sign != 0, detail={"sign": sign})
    return rep
