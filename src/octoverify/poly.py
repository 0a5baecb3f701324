"""Sparse multivariate polynomials with exact rational coefficients.

Monomials are packed into a single integer key, 5 bits of exponent per
variable, so multiplying monomials is one integer addition and term dicts hash
fast.  That keeps the degree-6 identity |grad F|^2 - 16|x|^6 in 32 variables
(a couple of million term products) well inside the exact-arithmetic budget.
``monomial_exponents`` is the one reader of packed fields: it jumps from
one nonzero field to the next, and every other decoder of a key walks it.

Coefficients are plain ints over one shared denominator: a ``MultiPoly`` is
``terms`` (packed key -> nonzero int numerator) divided by ``den`` (a positive
int).  The form is canonical: ``gcd(den, *numerators) == 1``, and the zero
polynomial has ``den == 1``.  So equal polynomials have equal ``(terms, den)``
and ``==``/``hash`` compare dicts.  Every ring operation works in ints and
reduces its result once, with one ``math.gcd(den, *numerators)``; no
``Fraction`` is built on the way.  Polynomials are multiplied in one place,
``weighted_products``: it sums w * p * q over a list of (weight, factor,
factor) triples per output straight into one int-numerator dict over one
common denominator, with a rational factor scaling the other's numerators,
and sums a square's cross terms once, doubled.  ``MultiPoly.__mul__`` is
its one-triple case, and the octonion kernels (``ProductTable.product``,
``inner``) hand it every output slot's triples, so a product of polynomial
coordinates builds no polynomial per pair.  ``substitute_linear``, F
(``systems.fkm_polynomial``) and ``Rt2Poly`` products are each one call of
it too, and F's expansion at a focal frame
(``systems.extract_expansion_forms``) is two: the squares F is built of
substituted, then summed with one slot per grade that a form is read
from.  The loop that multiplies and sums polynomial terms is one
function, ``_slot_sum``, and ``weighted_products`` and ``residual_terms``
are its only callers: the Muenzner gradient identity and the
Ozeki-Takeuchi norm identity count a residual's terms one block of
monomials with the same lowest variable at a time, since packed exponents
add without carry.  Both are summed around a quartic's ``radial_shift``
H = F - c|x|^4, which has fewer terms than F: by Euler's identity
<x, grad H> = 4 H the residual is the same polynomial, so its term count is
the same, from fewer term products.  ``fraction_terms`` hands the
coefficients out as ``Fraction`` values to the few readers that want them:
``exponent_dict``, and through it ``dump`` and the two readers of a form's
matrix, ``systems.blocks_from_forms`` and ``mirror.sharp_from_q0``.  ``eval``
values a polynomial at one point in ints.  ``munzner_verify`` proves the
Cartan-Muenzner PDEs of one quartic F as polynomial identities, summed over
the Clifford defects of the squares F is built from, when it is given them.

Only ints and ``Fraction`` enter, by the rule of ``scalars.int_scaled``,
which clears the denominators of the constructor's coefficients and of
``eval``'s point: the constructor, ``const``, scalar ``+ - *`` and
``eval`` raise ``TypeError`` for anything else, a ``bool`` too (a float
would otherwise be stored as a binary fraction, or compare unequal to the
rational it stands for).

The supported exponent range is 0..30 per variable, and it is enforced at
both ends.  ``_pack``, and through it ``MultiPoly.parse`` (the reader for
``--dump-poly`` output), raises ``ValueError`` for an exponent outside that
range, and ``parse`` for a line without exactly ``nvars`` exponents, a
monomial on two lines or a zero denominator.  ``weighted_products`` raises
``OverflowError`` rather than silently corrupting keys when a product could
leave it.  That guard is checked once per call, from each operand's largest
exponent, ``maxexp``, or a bound on it: variables, constants, products,
sums, negations and gradients carry an upper bound from how they were built
(``_expbound``), and the exact ``maxexp`` is computed lazily, and then
kept, only for a polynomial without one or when the bounds do not settle
the guard.  Ring operations hand the zero-free dicts they build straight to
the result instead of copying and re-filtering them.

Identities are always verified as "difference is the zero polynomial"; there
is no division anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import chain
from math import gcd, lcm
from typing import Iterable

from .report import Report
from .scalars import EXACT_TYPES, int_scaled

BITS = 5
_EXP_MASK = (1 << BITS) - 1
_EXP_MAX = (1 << BITS) - 2  # one value below the 5-bit field, kept as headroom


def _pack(exponents: Iterable[int]) -> int:
    key = 0
    for i, e in enumerate(exponents):
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
    exps = [0] * nvars
    for i, e in monomial_exponents(key):
        exps[i] = e
    return tuple(exps)


def monomial_exponents(key: int) -> list[tuple[int, int]]:
    """The (variable index, exponent) pairs of a packed key with a nonzero
    exponent, in index order: the one reader of packed fields.  Each step
    jumps to the lowest nonzero field, whose index is that of the key's
    lowest set bit ``key & -key``, and clears it."""
    out = []
    while key:
        i = ((key & -key).bit_length() - 1) // BITS
        s = BITS * i
        e = (key >> s) & _EXP_MASK
        out.append((i, e))
        key ^= e << s
    return out


@cache
def _high_bits(nvars: int) -> int:
    """Every bit but the lowest of each of the nvars exponent fields."""
    return ((1 << (BITS * nvars)) - 1) // _EXP_MASK * (_EXP_MASK - 1)


def _rational(c):
    if type(c) not in EXACT_TYPES:
        raise TypeError(f"{c!r} is not an int or a Fraction")
    return c


class MultiPoly:
    """Immutable-by-convention sparse polynomial: int numerators ``terms`` over ``den``."""

    __slots__ = ("nvars", "terms", "den", "_maxexp", "_expbound")

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
        self._maxexp = self._expbound = None

    @staticmethod
    def _adopt(nvars: int, terms: dict, den: int = 1, expbound: int | None = None) -> "MultiPoly":
        """Wrap zero-free int numerators over ``den`` > 0 without copying them,
        reduced to the canonical form; ``expbound`` is an upper bound on their
        ``maxexp`` when the caller knows one."""
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
        p._expbound = expbound
        return p

    @property
    def maxexp(self) -> int:
        """Largest exponent of any variable; computed on first use, then kept
        (also as ``_expbound``, which otherwise holds an upper bound known
        from how the polynomial was built, or None).  A key with none of
        ``_high_bits`` set has no exponent above 1, so a multilinear
        polynomial is settled by one masked pass over its keys."""
        if self._maxexp is None:
            terms = self.terms
            if not any(map(_high_bits(self.nvars).__and__, terms)):
                m = 1 if any(terms) else 0
            else:
                m = max(e for k in terms for _, e in monomial_exponents(k))
            self._maxexp = self._expbound = m
        return self._maxexp

    # -- constructors ------------------------------------------------------
    @staticmethod
    def zero(nvars: int) -> "MultiPoly":
        return MultiPoly._adopt(nvars, {}, 1, 0)

    @staticmethod
    def const(nvars: int, c) -> "MultiPoly":
        _rational(c)
        return MultiPoly._adopt(nvars, {0: c.numerator} if c else {}, c.denominator, 0)

    @staticmethod
    def variable(nvars: int, i: int) -> "MultiPoly":
        if not 0 <= i < nvars:
            raise ValueError(f"variable index {i} out of range for nvars={nvars}")
        return MultiPoly._adopt(nvars, {1 << (BITS * i): 1}, 1, 1)

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
        a, b = self._expbound, other._expbound
        return MultiPoly._adopt(self.nvars, t, den, None if a is None or b is None else max(a, b))

    def __add__(self, other):
        return self._merge(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._adopt(self.nvars, {k: -c for k, c in self.terms.items()}, self.den, self._expbound)

    def __sub__(self, other):
        return self._merge(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, MultiPoly) and type(other) not in EXACT_TYPES:
            return NotImplemented
        return weighted_products(self.nvars, (self,), (other,), (((1, 0, 0),),))[0]

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
            for i, e in monomial_exponents(k):
                gs[i][k - (1 << (BITS * i))] = c * e
        return [MultiPoly._adopt(self.nvars, g, self.den, self._expbound) for g in gs]

    def polarised(self, first: int, shift: int) -> "MultiPoly":
        """sum_{v >= first} x_{v + shift} dF/dx_v over nvars + shift
        variables, term by term: one power of x_v moves to x_{v + shift},
        times its exponent.  For F(W) = B(W, W) in the variables from
        ``first`` on, it is B(U, V) + B(V, U) with U in W's variables and V
        in the ``shift`` after them."""
        out: dict[int, int] = {}
        for k, c in self.terms.items():
            for v, e in monomial_exponents(k >> (BITS * first)):
                v += first
                k2 = k + (1 << (BITS * (v + shift))) - (1 << (BITS * v))
                out[k2] = out.get(k2, 0) + c * e
        return MultiPoly._adopt(self.nvars + shift, {k: c for k, c in out.items() if c}, self.den)

    def laplacian(self) -> "MultiPoly":
        out: dict[int, int] = {}
        for k, c in self.terms.items():
            for i, e in monomial_exponents(k):
                if e >= 2:
                    k2 = k - (2 << (BITS * i))
                    v = out.get(k2)
                    s = c * (e * (e - 1)) if v is None else v + c * e * (e - 1)
                    if s:
                        out[k2] = s
                    elif v is not None:
                        del out[k2]
        return MultiPoly._adopt(self.nvars, out, self.den)

    def eval(self, point: list) -> Fraction:
        """Exact value at a point of ints and Fractions.

        The point's denominators are cleared by ``int_scaled`` before
        anything is evaluated: with q their lcm and b_i = q x_i, a term
        c x^e of degree d is c b^e / q^d, so the terms are summed in ints
        per degree and the value is one Fraction."""
        if len(point) != self.nvars:
            raise ValueError("point length does not match nvars")
        q, b = int_scaled(point)
        by_degree: dict[int, int] = {}
        for k, c in self.terms.items():
            d = 0
            for i, e in monomial_exponents(k):
                c *= b[i] ** e
                d += e
            by_degree[d] = by_degree.get(d, 0) + c
        top = max(by_degree, default=0)
        return Fraction(sum(s * q ** (top - d) for d, s in by_degree.items()), self.den * q**top)

    # -- structure ----------------------------------------------------------
    def is_homogeneous(self, degree: int | None = None) -> bool:
        degs = {sum(e for _, e in monomial_exponents(k)) for k in self.terms}
        if not degs:
            return True
        if len(degs) > 1:
            return False
        return degree is None or degs.pop() == degree

    def substitute_linear(self, forms: list["MultiPoly"]) -> "MultiPoly":
        """Compose with x_i -> forms[i]; the forms share one target variable
        space, and a form over another raises ValueError.

        Each monomial is split into two halves of its variables.  Each
        distinct half is composed once, as the composition of its prefix
        times one form, and every c * lo * hi is summed by one
        ``weighted_products`` call over ``den``."""
        if len(forms) != self.nvars:
            raise ValueError("need one substitution form per variable")
        tv = forms[0].nvars
        if any(lf.nvars != tv for lf in forms):
            raise ValueError(f"forms over different nvars: {sorted({lf.nvars for lf in forms})}")
        halves = [MultiPoly.const(tv, 1)]
        at = {0: 0}  # packed key of a half -> its composition's place in halves

        def compose(indices) -> int:
            key = place = 0
            for i in indices:
                key += 1 << (BITS * i)
                nxt = at.get(key)
                if nxt is None:
                    nxt = at[key] = len(halves)
                    halves.append(halves[place] * forms[i])
                place = nxt
            return place

        triples = []
        for k, c in self.terms.items():
            indices = [i for i, e in monomial_exponents(k) for _ in range(e)]
            h = len(indices) // 2
            triples.append((c, compose(indices[:h]), compose(indices[h:])))
        return weighted_products(tv, halves, halves, [triples], self.den)[0]

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
        """The inverse of ``dump``.  A line whose exponent count is not
        ``nvars``, a monomial on two lines or a zero denominator raises
        ``ValueError``."""
        terms = {}
        for line in text.strip().splitlines():
            if not line.strip():
                continue
            head, *exps = line.split()
            if len(exps) != nvars:
                raise ValueError(f"{len(exps)} exponents, not nvars={nvars}: {line!r}")
            num, den = map(int, head.split("/"))
            if not den:
                raise ValueError(f"zero denominator: {line!r}")
            key = _pack(map(int, exps))
            if key in terms:
                raise ValueError(f"a second term for one monomial: {line!r}")
            terms[key] = Fraction(num, den)
        return MultiPoly(nvars, terms)

    def __repr__(self):
        return f"MultiPoly(nvars={self.nvars}, terms={len(self.terms)})"


def _operand(nvars: int, coords) -> tuple[int, list, int]:
    """One operand of ``weighted_products`` as its loop reads it: (den,
    factors, maxexp).  den is the lcm of the coordinates' denominators;
    factor a is (scale, terms): a polynomial coordinate is its numerator
    dict ``terms`` times the int scale, over den, and a rational one is the
    int scale over den, with terms None; maxexp bounds the largest
    ``maxexp`` of the polynomial coordinates, read from their
    ``_expbound``s."""
    dens, factors, top = [], [], 0
    for c in coords:
        kind = type(c)
        if kind is MultiPoly:
            if c.nvars != nvars:
                raise ValueError(f"nvars mismatch: {nvars} != {c.nvars}")
            dens.append(c.den)
            factors.append((1, c.terms))
            m = c._expbound
            if m is None:
                m = c.maxexp
            if m > top:
                top = m
        elif kind is Fraction:
            n, d = c.as_integer_ratio()
            dens.append(d)
            factors.append((n, None))
        elif kind is int:
            dens.append(1)
            factors.append((c, None))
        else:
            raise TypeError(f"{c!r} is not a MultiPoly, an int or a Fraction")
    den = lcm(*dens)
    if den != 1:
        factors = [(s * (den // d), terms) for (s, terms), d in zip(factors, dens)]
    return den, factors, top


def weighted_products(nvars: int, x, y, slots, den: int = 1) -> list[MultiPoly]:
    """The polynomials sum(w * x[a] * y[b] for w, a, b in triples) / den,
    one per entry ``triples`` of ``slots``, for coordinates x, y that are
    ``MultiPoly``s over ``nvars`` variables, ints or Fractions, and int
    weights w.  This is the one product of polynomials: ``MultiPoly.__mul__``
    is its one-triple case, ``octonion.ProductTable.product`` and
    ``octonion.inner`` hand it the triples of every output slot, F,
    ``MultiPoly.substitute_linear`` and ``Rt2Poly`` products are each one
    call, and ``residual_terms`` runs its loop, ``_slot_sum``, once per
    lowest-variable block of its output.  x and y may be the same sequence.

    Each operand's denominators are cleared once, to their lcm, so a slot
    sums its products as int numerators straight into one dict over one
    common denominator and is reduced once, by ``MultiPoly._adopt``.  A
    rational coordinate scales the other factor's numerators; it is never
    made a constant polynomial.  A square, a triple whose two factors are
    one polynomial (``p * p``, ``norm_sq``), adds each cross term once,
    doubled, over the upper triangle of its term pairs.

    The exponent guard is checked once per call, from each operand's
    largest ``maxexp`` or the bound on it that the coordinate carries
    (``_expbound``); only when the sum of the two fails are the pairs that
    the triples name checked with exact ``maxexp``s, so a call raises
    ``OverflowError`` exactly when one of its pairs of polynomials could
    leave the packing range.  The sum that passed is the results' bound."""
    dx, fx, mx = _operand(nvars, x)
    dy, fy, my = (dx, fx, mx) if y is x else _operand(nvars, y)
    bound = _product_bound(x, y, mx + my, slots)
    den *= dx * dy
    out = []
    for triples in slots:
        acc = _slot_sum(triples, fx, fy)
        if not all(acc.values()):
            acc = {k: c for k, c in acc.items() if c}
        out.append(MultiPoly._adopt(nvars, acc, den, bound))
    return out


def _slot_sum(triples, fx, fy) -> dict[int, int]:
    """The int numerators of sum(w * x[a] * y[b]) over the triples, zeros kept,
    for factor lists fx, fy of (int scale, numerator dict or None for a
    rational) as ``_operand`` builds them: the one loop that multiplies and
    sums polynomial terms."""
    acc: dict[int, int] = {}
    get = acc.get
    for w, a, b in triples:
        sa, pa = fx[a]
        sb, pb = fy[b]
        s = w * sa * sb
        if pa is None:
            pa, pb = pb, None
            if pa is None:
                acc[0] = get(0, 0) + s
                continue
        if pb is None:
            for k, c in pa.items():
                acc[k] = get(k, 0) + c * s
        elif pa is pb:
            items = list(pa.items())
            for i, (k1, c1) in enumerate(items):
                cs = c1 * s
                k = k1 + k1
                acc[k] = get(k, 0) + cs * c1
                cs += cs
                for k2, c2 in items[i + 1 :]:
                    k = k1 + k2
                    acc[k] = get(k, 0) + cs * c2
        else:
            pb = pb.items()
            for k1, c1 in pa.items():
                c1 *= s
                for k2, c2 in pb:
                    k = k1 + k2
                    acc[k] = get(k, 0) + c1 * c2
    return acc


def _product_bound(x, y, bound: int, slots) -> int:
    """The exponent guard of a product of coordinates x, y: ``bound``, the
    sum of the operands' bounds, when it is in range, else the largest sum
    of exact ``maxexp``s over the pairs the triples of ``slots`` name;
    ``OverflowError`` when that leaves the packing range too."""
    if bound > _EXP_MAX:
        # the operands' bounds fail: take the exact exponents of each pair
        ex, ey = ([c.maxexp if type(c) is MultiPoly else 0 for c in v] for v in (x, y))
        bound = max((ex[a] + ey[b] for triples in slots for _, a, b in triples), default=0)
        if bound > _EXP_MAX:
            raise OverflowError("monomial exponent would exceed packing limit")
    return bound


def residual_terms(nvars: int, x, y, triples) -> int:
    """``len(weighted_products(nvars, x, y, [triples])[0].terms)``, summed
    one block of output monomials at a time.

    Block v holds the monomials whose lowest variable is v, the constant
    block nvars.  Under the exponent guard, checked once on the whole
    coordinates as ``weighted_products`` checks it, packed fields add
    without carry, so block v of P Q is P_v Q_v + P_v Q_>v + P_>v Q_v (of
    a square, P_v^2 + 2 P_v P_>v): one ``_slot_sum`` over the bare
    numerator dicts of the blocks.  The count does not change under the
    common scale that puts every coordinate over one denominator."""
    coords = list({id(c): c for _, a, b in triples for c in (x[a], y[b])}.values())
    at = {id(c): i for i, c in enumerate(coords)}
    pairs = [(w, at[id(x[a])], at[id(y[b])]) for w, a, b in triples]
    _, factors, bound = _operand(nvars, coords)
    _product_bound(x, y, bound + bound, (triples,))
    n = len(coords)
    blocks = [[{} for _ in range(n)] for _ in range(nvars + 1)]  # blocks[v][i]: block v of coords[i]
    for i, (s, terms) in enumerate(factors):
        if terms is None:
            if s:
                blocks[nvars][i][0] = s
            continue
        if s != 1:
            terms = {k: c * s for k, c in terms.items()}
        for k, c in terms.items():
            # k & -k is the lowest set bit of k; the constant's index, -1, is block nvars
            blocks[((k & -k).bit_length() - 1) // BITS][i][k] = c
    above = [{} for _ in range(n)]  # above[i]: the blocks of coords[i] above v
    count = 0
    for v in range(nvars, -1, -1):
        here = blocks[v]
        slot = []
        for w, i, j in pairs:
            if i == j:
                if here[i]:
                    slot.append((w, i, i))
                    if above[i]:
                        slot.append((2 * w, i, n + i))
                continue
            if here[i]:
                if here[j]:
                    slot.append((w, i, j))
                if above[j]:
                    slot.append((w, i, n + j))
            if here[j] and above[i]:
                slot.append((w, n + i, j))
        if slot:
            ops = [(1, t) for t in chain(here, above)]
            count += sum(map(bool, _slot_sum(slot, ops, ops).values()))
        for t, b in zip(above, here):
            t.update(b)
        blocks[v] = None  # merged into above: free the copy
    return count


def norm_sq_poly(nvars: int) -> MultiPoly:
    return MultiPoly._adopt(nvars, {2 << (BITS * i): 1 for i in range(nvars)}, 1, 2)


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
            # (a + sqrt2 b)(a' + sqrt2 b') = aa' + 2bb' + sqrt2 (ab' + ba')
            slots = (((1, 0, 0), (2, 1, 1)), ((1, 0, 1), (1, 1, 0)))
            return Rt2Poly(*weighted_products(self.a.nvars, (self.a, self.b), (other.a, other.b), slots))
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


def rt2_poly(nvars: int, terms: Iterable[tuple[int, int, int]], den: int = 1) -> Rt2Poly:
    """The sum of c 2^(kfold/2) / den (monomial ``key``) over the (key, int
    c, kfold) triples: c 2^(kfold//2) / den goes to the rational part for an
    even kfold, else to the sqrt2 part, summed in ints over den 2^-low."""
    terms = list(terms)
    low = min([0] + [kfold // 2 for _, _, kfold in terms])
    parts: tuple[dict, dict] = ({}, {})
    for key, c, kfold in terms:
        part = parts[kfold % 2]
        part[key] = part.get(key, 0) + (c << (kfold // 2 - low))
    return Rt2Poly(*(MultiPoly._adopt(nvars, {k: c for k, c in p.items() if c}, den << -low) for p in parts))


# ---------------------------------------------------------------------------
# the Muenzner verifier
# ---------------------------------------------------------------------------

def radial_shift(f: MultiPoly) -> tuple[Fraction, MultiPoly]:
    """(c, H) with H = F - c |x|^4 for a homogeneous quartic F: c is the
    ratio F / |x|^4 that the most monomials of |x|^4 share (the first one
    seen on a tie), so H has fewer terms than F wherever F is mostly a
    multiple of |x|^4.  (0, F) for c = 0.

    Euler's identity <x, grad H> = 4 H rewrites the sums of squares of
    grad F around H: grad F = grad H + 4 c |x|^2 x, so

        |grad F|^2 = |grad H|^2 + 32 c |x|^2 H + 16 c^2 |x|^6

    and lap F = lap H + 4 c (n + 2) |x|^2 on R^n.  Both sides are the same
    polynomial, so a residual summed from H has the terms the one summed
    from F has, from fewer term products."""
    radial = norm_sq_poly(f.nvars) ** 2
    seen: dict[tuple[int, int], int] = {}  # reduced (numerator, denominator) -> count
    get, den = f.terms.get, f.den
    for k, m in radial.terms.items():
        a, b = get(k, 0), den * m
        d = gcd(a, b)
        r = (a // d, b // d)
        seen[r] = seen.get(r, 0) + 1
    c = Fraction(*max(seen, key=seen.get))
    return (c, f - c * radial) if c else (c, f)


def munzner_verify(f: MultiPoly, m1: int, m2: int, squares) -> Report:
    """Check the two Cartan-Muenzner PDEs for F or -F on R^nvars, for F a
    homogeneous quartic:

        |grad F|^2 = 16 |x|^6
        lap F      = 8 (m2 - m1) |x|^2

    The gradient identity is sign-invariant; the Laplacian identity fixes the
    sign, which the report records (sign +1 means F itself satisfies it with
    the multiplicities as given, -1 means -F does).

    ``squares`` holds the (rational w_i, homogeneous quadratic Q_i) pairs
    that F was built from, or is () for an F without them.  With (c, E) the
    ``radial_shift`` of F - S, S = sum_i w_i Q_i^2, F is c |x|^4 + S + E,
    a homogeneous quartic exactly when each Q_i is a quadratic and E is a
    homogeneous quartic; otherwise ``ValueError``.  With
    G_ij = <grad Q_i, grad Q_j>, the Clifford defects
    D_ii = 32 c w_i |x|^2 + 4 w_i^2 G_ii and D_ij = 8 w_i w_j G_ij (i < j),
    and Euler's identity, |grad F|^2 - 16 |x|^6 is

        sum_{i<=j} Q_i Q_j D_ij + 16 (c^2 - 1) |x|^6
            + 32 c |x|^2 E + 2 <grad S, grad E> + |grad E|^2

    for any squares, so they are a hint, not an assumption: the residual,
    times den(c)^2, is the same polynomial and has the same
    ``residual_terms``.  No squares leave the radial shift's residual
    alone.  A zero D_ij or E is never multiplied out, so for F built from
    a Clifford system (every D_ij zero, E zero, c = 1) only the Q_i are
    differentiated.  lap F = lap E + 4 c (n + 2) |x|^2
    + sum_i 2 w_i (G_ii + lap(Q_i) Q_i) on R^n.
    """
    rep = Report("munzner")
    n = f.nvars
    ws = [Fraction(_rational(w)) for w, _ in squares]
    qs = [q for _, q in squares]
    if any(q.nvars != n or not q.is_homogeneous(2) for q in qs):
        raise ValueError("each square must be a homogeneous quadratic over F's variables")
    k = len(qs)
    den = lcm(*(w.denominator for w in ws))
    s = weighted_products(n, qs, qs, [[(int(w * den), i, i) for i, w in enumerate(ws)]], den)[0]
    c, e = radial_shift(f - s)
    if not e.is_homogeneous(4):
        raise ValueError("F must be homogeneous of degree 4")

    sq = norm_sq_poly(n)
    dq = [d for q in qs for d in q.gradient()]  # dq[i * n + v] = dQ_i / dx_v
    pairs = [(i, j) for i in range(k) for j in range(i, k)]
    gram = weighted_products(n, dq, dq, [[(1, i * n + v, j * n + v) for v in range(n)] for i, j in pairs])
    ds, rows = [], [[] for _ in range(k)]  # rows[i]: (place of D_ij in ds, j) of each nonzero D_ij
    for (i, j), gij in zip(pairs, gram):
        if i == j:
            dij = 4 * ws[i] ** 2 * gij + 32 * c * ws[i] * sq
        elif gij:
            dij = 8 * ws[i] * ws[j] * gij
        else:
            continue
        if dij:
            rows[i].append((len(ds), j))
            ds.append(dij)
    # R_i = sum_{j>=i} D_ij Q_j + 4 w_i <grad Q_i, grad E>, so that the
    # squares' part of the residual is sum_i Q_i R_i
    rs = weighted_products(n, ds, qs, [[(1, t, j) for t, j in row] for row in rows])
    de = e.gradient() if e else []
    if de:
        cross = weighted_products(n, dq, de, [[(1, i * n + v, v) for v in range(n)] for i in range(k)])
        rs = [r + 4 * w * t for r, w, t in zip(rs, ws, cross)]

    # |x|^6 is the product |x|^2 |x|^4, so that it is never built; the
    # weights are scaled by den(c)^2, and a product with a zero factor or a
    # zero weight (c = 0, or c^2 = 1) is left out
    a, b = c.numerator, c.denominator
    m = len(de)
    x = [*de, e, sq, *qs]
    y = [*de, sq, sq * sq, *rs]
    triples = [(b * b, v, v) for v in range(m)]
    triples += [t for t in ((32 * a * b if e else 0, m, m), (16 * (a * a - b * b), m + 1, m + 1)) if t[0]]
    triples += [(b * b, m + 2 + i, m + 2 + i) for i, r in enumerate(rs) if r]
    terms = residual_terms(n, x, y, triples)
    rep.add("gradient_identity", not terms, detail={"residual_terms": terms})

    lap = e.laplacian() if e else MultiPoly.zero(n)
    if c:
        lap += 4 * c * (n + 2) * sq
    for (i, j), gij in zip(pairs, gram):
        if i == j:  # lap(Q_i^2) = 2 |grad Q_i|^2 + 2 lap(Q_i) Q_i
            lap += 2 * ws[i] * (gij + qs[i] * qs[i].laplacian())
    want = 8 * (m2 - m1) * sq
    sign = 1 if lap == want else (-1 if lap == -want else 0)
    rep.add("laplacian_identity", sign != 0, detail={"sign": sign})
    return rep
