"""Mirror points, the closed second/third fundamental forms at x*, and the
Ozeki-Takeuchi integrability identities.

Index bookkeeping: at the mirror point x* the form components are indexed
-1, 0..m1 (the -1 slot is the diagonal form |X|^2 - |Y|^2, and the original
index-0 third-form component vanishes, after which the remaining components
are renamed 0..m1).

The third form q* is one thing throughout: the tuple of its renamed
components <q*(X, Y, Z), e_a>, a = 0..m1, as cubic ``MultiPoly``s over the
(x_1.., y_1.., z_0..) layout of ``octonion.symbolic_octets(dim, "xyZ")``.
A closed form's ``TrilinearTable`` holds its coefficients on basis triples,
from one symbolic evaluation on full slots, and ``TrilinearTable.components``
reads the tuple off that table; ``trilinearity_extract`` reads it off the
expansion at x*, and ``verify_ot_equations``, Condition B and the
classifier consume it as it is.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import lcm

from . import octonion as on
from .circ import Nom, circ
from .linalg import Op
from .poly import MultiPoly, Rt2Poly, monomial_exponents, monomial_key, norm_sq_poly, residual_terms
from .report import Report, proved
from .systems import ScaledVec


@dataclass(frozen=True)
class MirrorFrame:
    x: tuple
    n0: tuple
    x_sharp: tuple
    x_star: ScaledVec
    n0_star: ScaledVec


def mirror_points(x: tuple, n0: tuple) -> MirrorFrame:
    """x# = n0, x* = (x + n0)/sqrt2, n0* = (x - n0)/sqrt2 for unit x _|_ n0."""
    if on.norm_sq(x) != 1 or on.norm_sq(n0) != 1:
        raise ValueError("x and n0 must be unit vectors")
    if on.inner(x, n0) != 0:
        raise ValueError("x and n0 must be orthogonal")
    x_star = ScaledVec(on.add(x, n0), -1)
    n0_star = ScaledVec(on.sub(x, n0), -1)
    return MirrorFrame(tuple(x), tuple(n0), tuple(n0), x_star, n0_star)


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
# closed forms at x*
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EigenDecomp:
    """Tangent decomposition W = X + Y + Z; X, Y purely imaginary."""

    x: tuple
    y: tuple
    z: tuple

    def __post_init__(self):
        if self.x[0] != 0 or self.y[0] != 0:
            raise ValueError("X and Y must be purely imaginary")
        if not (len(self.x) == len(self.y) == len(self.z)):
            raise ValueError("component dimension mismatch")


@dataclass(frozen=True)
class PStarValue:
    p_minus1: Fraction
    p_vec: ScaledVec  # actual vector = coords * sqrt2 (half = 1)


def p_star(nom: Nom, w: EigenDecomp) -> PStarValue:
    """p*_-1 = |X|^2 - |Y|^2 and p*_vec = -sqrt2 (XZ + Y o Z)."""
    vec = on.neg(on.add(on.multiply(w.x, w.z), circ(nom, w.y, w.z)))
    return PStarValue(on.norm_sq(w.x) - on.norm_sq(w.y), ScaledVec(vec, 1))


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
        for k, f in enumerate(comps):
            scale = den // f.den
            for key, c in f.terms.items():
                slots = monomial_exponents(key)
                if [e for _, e in slots] != [1, 1, 1] or [v // dim for v, _ in slots] != [0, 1, 2]:
                    name = _monomial_name(key, dim)
                    raise ValueError(f"component {k} has the monomial {name}, not trilinear in (X, Y, Z)")
                (i, _), (j, _), (l, _) = slots
                rows[i][j - dim][l - 2 * dim].append((k, c * scale))
        return TrilinearTable(den, [[[tuple(v) for v in row] for row in plane] for plane in rows])

    def coeff(self, k: int, i: int, j: int, l: int) -> int:
        """den * <q(e_i, e_j, e_l), e_k>."""
        for c, w in self.rows[i][j][l]:
            if c == k:
                return w
        return 0

    def contract(self, x, y, z) -> tuple:
        """q(x, y, z) at rational slots, in ``Fraction`` coordinates."""
        out = [0] * self.dim
        for i, xi in enumerate(x):
            if xi:
                plane = self.rows[i]
                for j, yj in enumerate(y):
                    if yj:
                        row = plane[j]
                        for l, zl in enumerate(z):
                            if zl:
                                p = xi * yj * zl
                                for k, w in row[l]:
                                    out[k] += p * w
        return tuple(Fraction(v) / self.den for v in out)

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
    violating monomial); the original index--1 component vanishes; and
    <grad p_-1, grad q_a> = 0 for all a, with p_-1 = |x|^2 - |y|^2 over the
    first two ranges.  Returns the components after the vanished one.
    """
    dx, dy, dz = ranges
    nv = dx + dy + dz
    comps = []
    for f in q_forms:
        if isinstance(f, Rt2Poly):
            if not f.is_rational():
                raise ValueError("third-form components must be rational after scaling")
            f = f.a
        comps.append(f)
    # trilinearity first: the shape failure is the informative error
    for a, f in enumerate(comps):
        for exps in f.exponent_dict():
            d1 = sum(exps[:dx])
            d2 = sum(exps[dx : dx + dy])
            d3 = sum(exps[dx + dy :])
            if (d1, d2, d3) != (1, 1, 1):
                raise ValueError(f"non-trilinear monomial {exps} in component {a}")
    if not comps[0].is_zero():
        raise ValueError("original index-0 third-form component does not vanish")
    terms: dict = {}
    for i in range(dx):
        terms[monomial_key(i, i)] = Fraction(1)
    for i in range(dy):
        terms[monomial_key(dx + i, dx + i)] = Fraction(-1)
    gp = MultiPoly(nv, terms).gradient()
    for a, f in enumerate(comps[1:]):
        if not on.inner(gp, f.gradient()).is_zero():
            raise ValueError(f"<grad p_-1, grad q_{a}> != 0")
    return tuple(comps[1:])


# ---------------------------------------------------------------------------
# the displayed Ozeki-Takeuchi equations
# ---------------------------------------------------------------------------


def verify_ot_equations(p_forms: list, q: tuple) -> Report:
    """Three named exact checks over the tangent coordinates:

      norm_identity:   16|q*|^2 = 16 G (|X|^2+|Y|^2+|Z|^2) - |grad G|^2,
                       G = p_-1^2 + sum_a (p*_a)^2
      gradient_pairs:  <grad p*_i, grad q*_j> + <grad p*_j, grad q*_i> = 0
                       for all -1 <= i != j <= m1 (q*_-1 = 0)
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
    grad_g = g.gradient()
    # 16 |q*|^2 + |grad G|^2 - 16 G |x|^2
    k = len(q) + len(grad_g)
    triples = [(16 if a < len(q) else 1, a, a) for a in range(k)] + [(-16, k, k)]
    terms = residual_terms(nv, [*q, *grad_g, g], [*q, *grad_g, norm_sq_poly(nv)], triples)
    rep.add("third_form_norm_identity", not terms, detail={"residual_terms": terms})

    gpm1 = p_minus1.gradient()
    gpa = [f.gradient() for f in p_vec]
    gqa = [f.gradient() for f in q]
    n = len(gqa)
    pairs = proved(
        "gradient_pair_identity",
        chain(
            # (i, j) = (-1, a): q_-1 = 0, so only <grad p_-1, grad q_a> remains;
            # the sqrt2 on p_a multiplies the vanished term and drops out
            (on.inner(gpm1, gq) for gq in gqa),
            # (i, j) = (a, b), a != b >= 0: both terms share the sqrt2 factor
            (on.inner(gpa[a], gqa[b]) + on.inner(gpa[b], gqa[a]) for a in range(n) for b in range(a + 1, n)),
        ),
    )
    rep.add("gradient_pair_identity", pairs.passed)
    rep.add("p_dot_q", on.inner(p_vec, q).is_zero())
    return rep
