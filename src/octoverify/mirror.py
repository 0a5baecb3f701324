"""The mirror point x* = (x + n0)/sqrt2, the closed third fundamental forms
at x*, and the Ozeki-Takeuchi integrability identities.  The closed second
form at x* is ``systems.closed_second_form``; the mirror suite reads its
values off the forms extracted from F there.

Index bookkeeping: at the mirror point x* the form components are indexed
-1, 0..m1 (the -1 slot is the diagonal form |X|^2 - |Y|^2, and the original
index-0 third-form component vanishes, after which the remaining components
are renamed 0..m1).

The third form q* is one thing throughout: the tuple of its renamed
components <q*(X, Y, Z), e_a>, a = 0..m1, as cubic ``MultiPoly``s over the
(x_1.., y_1.., z_0..) layout of ``octonion.symbolic_octets(dim, "xyZ")``.
A closed form's ``TrilinearTable`` holds its coefficients on basis triples,
from one symbolic evaluation on full slots, ``TrilinearTable.components``
reads the tuple off that table, and ``TrilinearTable.contract`` values the
form at any other slots; ``trilinearity_extract`` reads it off the
expansion at x*, and ``verify_ot_equations``, Condition B and the
classifier consume it as it is.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from . import octonion as on
from .circ import Nom, circ
from .linalg import Op
from .poly import (
    MultiPoly,
    Rt2Poly,
    monomial_exponents,
    monomial_key,
    norm_sq_poly,
    radial_shift,
    residual_terms,
    weighted_products,
)
from .report import Report, proved
from .scalars import int_scaled
from .systems import ScaledVec


def mirror_point(x: tuple, n0: tuple) -> ScaledVec:
    """The mirror point x* = (x + n0)/sqrt2 for unit x _|_ n0."""
    if on.norm_sq(x) != 1 or on.norm_sq(n0) != 1:
        raise ValueError("x and n0 must be unit vectors")
    if on.inner(x, n0) != 0:
        raise ValueError("x and n0 must be orthogonal")
    return ScaledVec(on.add(x, n0), -1)


# ---------------------------------------------------------------------------
# second-fundamental blocks at x* assembled from the blocks at x and x#
# ---------------------------------------------------------------------------


def _negated_rows(blocks: list, i: int) -> Op:
    """The matrix whose row b is row i of -blocks[b]."""
    den = lcm(*(m.den for m in blocks))
    rows = [{c: -x * (den // m.den) for c, x in m.rows[i].items()} for m in blocks]
    return Op._adopt(den, rows, blocks[0].ncols)


def assemble_star_blocks(a_blocks: list, a_sharp_blocks: list) -> tuple[list, list]:
    """B*_a and C*_a, a = 1..m1+1, from the ``Op`` blocks A_b and A#_b: row b
    of sqrt2 B*_a is row a of -A_b (rows of A are 0-indexed here, so 'row a'
    means index a-1), and sqrt2 C* is the same stacking of the -A#_b.  Every
    block shares the factor 1/sqrt2, so the returned ``Op``s leave it out."""
    m1 = len(a_blocks)
    n = m1 + 1
    for name, blocks in (("A", a_blocks), ("A#", a_sharp_blocks)):
        if len(blocks) != m1:
            raise ValueError(f"expected {m1} {name} blocks")
        for m in blocks:
            if len(m.rows) != n or m.ncols != n:
                raise ValueError(f"{name} blocks must be {n}x{n}")
    b_star = [_negated_rows(a_blocks, a) for a in range(n)]
    c_star = [_negated_rows(a_sharp_blocks, a) for a in range(n)]
    return b_star, c_star


def star_blocks_identity_check(b_star: list, c_star: list) -> Report:
    """Gram identity the mirror blocks must satisfy:
    (B*_a)^T B*_b + (B*_b)^T B*_a = (C*_a)^T C*_b + (C*_b)^T C*_a.

    With D = (B*_a)^T B*_b - (C*_a)^T C*_b this reads D + D^T = 0, which is
    symmetric in (a, b), so only the pairs a <= b are formed.  A common
    scale of all blocks (the 1/sqrt2 that ``assemble_star_blocks`` leaves
    out) does not change it."""
    rep = Report("star_blocks_gram")
    ok = True
    for a in range(len(b_star)):
        for b in range(a, len(b_star)):
            d = b_star[a].T @ b_star[b] - c_star[a].T @ c_star[b]
            if (d + d.T).scalar() != 0:
                ok = False
    rep.add("bstar_cstar_gram_identity", ok)
    return rep


# ---------------------------------------------------------------------------
# the closed third forms
# ---------------------------------------------------------------------------


def q_star_fkm_eval(nom: Nom, x: tuple, y: tuple, z: tuple) -> tuple:
    """q*(X,Y,Z) = X(Y o Z) - Y o (XZ) on full octonion slots (the extension
    q*(e_0,.,.) = q*(.,e_0,.) = 0 holds automatically for this form)."""
    return on.sub(on.multiply(x, circ(nom, y, z)), circ(nom, y, on.multiply(x, z)))


def q_star_ot_eval(x: tuple, y: tuple, z: tuple) -> tuple:
    """q*(X,Y,Z) = (XY - YX) Z on full octonion slots."""
    comm = on.sub(on.multiply(x, y), on.multiply(y, x))
    return on.multiply(comm, z)


# ---------------------------------------------------------------------------
# A# from q_0 (mirror determination)
# ---------------------------------------------------------------------------


def sharp_from_q0(q0: MultiPoly, m1: int) -> list:
    """The ``Op`` blocks A#_a from the cubic q_0 at a Condition-A point:
    A#_a[alpha][mu] = coeff(x_alpha y_mu z_a) / 2.

    Variable layout of q0: x_0..x_{m2-1}, y_0..y_{m2-1}, z_1..z_{m1} with
    m2 = m1 + 1.  Any monomial outside the x*y*z shape is an error.
    """
    m2 = m1 + 1
    nv = 2 * m2 + m1
    if q0.nvars != nv:
        raise ValueError(f"expected q0 over {nv} variables (x, y, z layout)")
    blocks = [[[Fraction(0)] * m2 for _ in range(m2)] for _ in range(m1)]
    for exps, c in q0.exponent_dict().items():
        nz = [(i, e) for i, e in enumerate(exps) if e]
        if sorted(e for _, e in nz) != [1, 1, 1]:
            raise ValueError(f"monomial {exps} is not trilinear x*y*z")
        idx = sorted(i for i, _ in nz)
        if not (idx[0] < m2 <= idx[1] < 2 * m2 <= idx[2]):
            raise ValueError(f"monomial {exps} is outside the x*y*z shape")
        alpha, mu, a = idx[0], idx[1] - m2, idx[2] - 2 * m2 + 1
        blocks[a - 1][alpha][mu] = c / 2
    return [Op.of(b) for b in blocks]


# ---------------------------------------------------------------------------
# the third fundamental form as a coefficient table and as cubic components
# ---------------------------------------------------------------------------


def _monomial_name(key: int, dim: int) -> str:
    """A monomial of the (X_0.., Y_0.., Z_0..) layout of
    ``octonion.symbolic_octets(dim, "XYZ")``, as in ``X_1 Y_2^2``."""
    names = ["XYZ"[v // dim] + f"_{v % dim}" + (f"^{e}" if e > 1 else "") for v, e in monomial_exponents(key)]
    return " ".join(names) or "1"


def _trilinear_keys(dim: int) -> dict:
    """The packed key of each monomial X_i Y_j Z_l of the (X_0.., Y_0..,
    Z_0..) layout, mapped to (i, j, l).  Built per call, in ~0.1 ms at
    dim 8: kept, its 512 entries would stay on the heap for the run."""
    bits = [monomial_key(v) for v in range(3 * dim)]
    return {
        bits[i] + bits[dim + j] + bits[2 * dim + l]: (i, j, l)
        for i in range(dim)
        for j in range(dim)
        for l in range(dim)
    }


@dataclass(frozen=True)
class TrilinearTable:
    """A trilinear map q on full slots, by its values on basis triples, held
    the way ``ProductTable.sparse`` holds a product's: one common
    denominator ``den`` and, in ``rows[i][j][l]``, the nonzero coordinates
    of q(e_i, e_j, e_l) as ``(k, w)`` pairs with int w = den * value."""

    den: int
    rows: list

    @property
    def dim(self) -> int:
        return len(self.rows)

    @staticmethod
    def of(q_eval, dim: int) -> "TrilinearTable":
        """The table of ``q_eval`` from one symbolic evaluation on
        ``octonion.symbolic_octets(dim, "XYZ")``.  Raises ``ValueError``
        naming the component and the monomial if a coordinate of the value
        is not trilinear in (X, Y, Z)."""
        value = q_eval(*on.symbolic_octets(dim, "XYZ"))
        comps = [f if isinstance(f, MultiPoly) else MultiPoly.const(3 * dim, f) for f in value]
        den = lcm(*(f.den for f in comps))
        rows = [[[[] for _ in range(dim)] for _ in range(dim)] for _ in range(dim)]
        triples = _trilinear_keys(dim)
        for k, f in enumerate(comps):
            scale = den // f.den
            for key, c in f.terms.items():
                ijl = triples.get(key)
                if ijl is None:
                    name = _monomial_name(key, dim)
                    raise ValueError(f"component {k} has the monomial {name}, not trilinear in (X, Y, Z)")
                i, j, l = ijl
                rows[i][j][l].append((k, c * scale))
        return TrilinearTable(den, [[[tuple(v) for v in row] for row in plane] for plane in rows])

    def coeff(self, k: int, i: int, j: int, l: int) -> int:
        """den * <q(e_i, e_j, e_l), e_k>."""
        for c, w in self.rows[i][j][l]:
            if c == k:
                return w
        return 0

    def contract(self, x, y, z) -> tuple:
        """q(x, y, z) for slots of ``MultiPoly``, int or ``Fraction``
        coordinates.  A slot without a polynomial is rational: its
        ``int_scaled`` numerators are summed into the entries, so that at
        three rational slots the value is in ``Fraction`` coordinates, and
        otherwise it is one ``weighted_products`` call over the products of
        the polynomial slots' coordinates (a lone one is paired with 1).  At
        three polynomial slots a first call forms <q(e_i, y, z), e_k> for
        each nonzero x_i, and a second sums them against x."""
        den, polys, parts = self.den, [], []
        for s in (x, y, z):
            # (index, its key in the polynomial slots, int factor) per nonzero coordinate
            if any(type(c) is MultiPoly for c in s):
                parts.append([(i, (i,), 1) for i, c in enumerate(s) if c])
                polys.append(s)
            else:
                d, ints = int_scaled(s)
                den *= d
                parts.append([(i, (), n) for i, n in enumerate(ints) if n])
        acc = [{} for _ in range(self.dim)]  # acc[k]: key -> int weight of its product in component k
        for i, ki, si in parts[0]:
            plane = self.rows[i]
            for j, kj, sj in parts[1]:
                row, kij, sij = plane[j], ki + kj, si * sj
                for l, kl, sl in parts[2]:
                    key, s = kij + kl, sij * sl
                    for k, w in row[l]:
                        t = acc[k]
                        t[key] = t.get(key, 0) + s * w
        if not polys:
            return tuple(Fraction(t.get((), 0), den) for t in acc)
        nvars = next(c.nvars for s in polys for c in s if type(c) is MultiPoly)
        if len(polys) < 3:
            # a key (a,) of a lone polynomial slot is the triple (w, a, 0) with the 1
            a, b = (*polys, (1,))[:2]
            slots = [[(w, *key, 0)[:3] for key, w in t.items() if w] for t in acc]
            return tuple(weighted_products(nvars, a, b, slots, den))
        at: dict = {}  # (i, k) -> the triples (w, j, l) of <q(e_i, y, z), e_k>
        for k, t in enumerate(acc):
            for (i, j, l), w in t.items():
                if w:
                    at.setdefault((i, k), []).append((w, j, l))
        slots = [[] for _ in acc]
        for p, (i, k) in enumerate(at):
            slots[k].append((1, i, p))
        return tuple(weighted_products(nvars, x, weighted_products(nvars, y, z, list(at.values())), slots, den))

    def components(self) -> tuple:
        """The components <q(X, Y, Z), e_a>, a = 0..dim-1, at purely
        imaginary X, Y, as cubic ``MultiPoly``s over the (x_1.., y_1..,
        z_0..) layout of ``octonion.symbolic_octets(dim, "xyZ")``."""
        dim = self.dim
        m = dim - 1
        terms = [{} for _ in range(dim)]
        for i in range(1, dim):
            for j in range(1, dim):
                for l, entry in enumerate(self.rows[i][j]):
                    key = monomial_key(i - 1, m + j - 1, 2 * m + l)
                    for k, w in entry:
                        terms[k][key] = w
        return tuple(MultiPoly._adopt(2 * m + dim, t, self.den, 1) for t in terms)


def trilinearity_extract(q_forms: list, ranges: tuple[int, int, int]) -> tuple:
    """The third form's components from the extracted ones, in the layout of
    ``TrilinearTable.components``.

    q_forms is indexed -1, 0..m1 (extraction order); ranges = (d_x, d_y, d_z)
    declares the three tangent variable ranges.  Checks, in order: every
    monomial has degree exactly 1 in each range (error names the first
    violating monomial), and the original index--1 component vanishes.
    Returns the components after the vanished one.
    """
    dx, dy, _ = ranges
    comps = []
    for f in q_forms:
        if isinstance(f, Rt2Poly):
            if not f.is_rational():
                raise ValueError("third-form components must be rational after scaling")
            f = f.a
        comps.append(f)
    # trilinearity first: the shape failure is the informative error
    for a, f in enumerate(comps):
        for place, key in enumerate(f.terms):
            degs = [0, 0, 0]
            for v, e in monomial_exponents(key):
                degs[(v >= dx) + (v >= dx + dy)] += e
            if degs != [1, 1, 1]:
                exps = list(f.exponent_dict())[place]
                raise ValueError(f"non-trilinear monomial {exps} in component {a}")
    if not comps[0].is_zero():
        raise ValueError("original index-0 third-form component does not vanish")
    return tuple(comps[1:])


# ---------------------------------------------------------------------------
# the displayed Ozeki-Takeuchi equations
# ---------------------------------------------------------------------------


def verify_ot_equations(p_forms: list, q: tuple) -> Report:
    """Three named exact checks over the tangent coordinates:

      norm_identity:   16|q*|^2 = 16 G (|X|^2+|Y|^2+|Z|^2) - |grad G|^2,
                       G = p_-1^2 + sum_a (p*_a)^2, proved on the
                       ``poly.radial_shift`` H = G - c|x|^4 of a quartic G:
                       by Euler's identity the residual is
                       16|q*|^2 + |grad H|^2 + (32c - 16)|x|^2 H
                       + 16(c^2 - c)|x|^6 (at d = 8, c = 1), the same
                       polynomial, so the same ``residual_terms``.
                       G's squares are no shortcut here, unlike F's in
                       ``poly.munzner_verify``: the p*_a are no Clifford
                       system, so all 45 of their Gram defects D_ij are
                       nonzero, and at octonion t = 1/2 the identity took
                       56 ms summed over them against 34 ms from H
                       (CPython 3.11, 2-vCPU x86 VM)
      gradient_pairs:  <grad p*_i, grad q*_j> + <grad p*_j, grad q*_i> = 0
                       for all -1 <= i != j <= m1 (q*_-1 = 0), one
                       ``weighted_products`` call with one slot per pair
      p_dot_q:         <p*, q*> = 0

    p_forms is the closed second form as ``systems.closed_second_form``
    builds it: a rational p_-1, then pure-sqrt2 components p*_a = sqrt2
    p_vec[a].  The common sqrt2 squares away in G and factors out of the
    other two identities, so they run on the rational p_vec.  q holds the
    components q*_a, a = 0..m1, as ``TrilinearTable.components`` builds them.
    """
    if not p_forms[0].is_rational() or not all(f.is_pure_sqrt2() for f in p_forms[1:]):
        raise ValueError("expected a rational p_-1 and pure-sqrt2 p*_a")
    p_minus1 = p_forms[0].a
    p_vec = [f.b for f in p_forms[1:]]
    rep = Report("ot_equations")

    nv = p_minus1.nvars
    g = p_minus1 * p_minus1 + 2 * on.norm_sq(p_vec)
    c, h = radial_shift(g) if g.is_homogeneous(4) else (Fraction(0), g)
    grad_h = h.gradient()
    # 16 |q*|^2 + |grad G|^2 - 16 G |x|^2 with G = H + c |x|^4, times den(c)^2:
    # 16 |q*|^2 + |grad H|^2 + (32 c - 16) |x|^2 H + 16 (c^2 - c) |x|^6; a
    # triple of weight 0 is left out
    a, b = c.numerator, c.denominator
    sq = norm_sq_poly(nv)
    k = len(q) + len(grad_h)
    triples = [(16 * b * b if i < len(q) else b * b, i, i) for i in range(k)]
    triples += [t for t in ((16 * b * (2 * a - b), k, k), (16 * a * (a - b), k + 1, k + 1)) if t[0]]
    terms = residual_terms(nv, [*q, *grad_h, h, sq], [*q, *grad_h, sq, sq * sq], triples)
    rep.add("third_form_norm_identity", not terms, detail={"residual_terms": terms})

    # gp[i * nv + v] = d p_{i-1} / dx_v with p_-1 first, gq[a * nv + v] = d q_a / dx_v
    gp = [d for f in (p_minus1, *p_vec) for d in f.gradient()]
    gq = [d for f in q for d in f.gradient()]
    n = len(q)

    def dot(i, a):
        """The triples of <grad p_{i-1}, grad q_a>."""
        return [(1, i * nv + v, a * nv + v) for v in range(nv) if gp[i * nv + v] and gq[a * nv + v]]

    # (i, j) = (-1, a): q_-1 = 0, so only <grad p_-1, grad q_a> remains; the
    # sqrt2 on p_a multiplies the vanished term and drops out.  (i, j) = (a, b),
    # a != b >= 0: both terms share the sqrt2 factor.  One slot per pair.
    slots = [dot(0, a) for a in range(n)] + [dot(a + 1, b) + dot(b + 1, a) for a in range(n) for b in range(a + 1, n)]
    pairs = proved("gradient_pair_identity", weighted_products(nv, gp, gq, slots))
    rep.add("gradient_pair_identity", pairs.passed)
    rep.add("p_dot_q", on.inner(p_vec, q).is_zero())
    return rep
