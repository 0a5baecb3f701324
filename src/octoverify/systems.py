"""The explicit OT-FKM operator families and their focal-point machinery.

Ambient space is R^32 (four octonion slots) or R^16 (four quaternion slots),
and an ambient vector is its four slots concatenated as one tuple.  An
``FkmSystem`` is its nom and its symmetric Clifford system, the list of its
``Op``s P_-1, P_0, ..., P_m1; the OT family is the bare list P_0, ..., P_m.
The FKM family acts by

    P_-1: (A, X, Y, B) -> (A, -X, Y, -B)
    P_a:  (A, X, Y, B) -> (-X e_a, -A conj(e_a), -B o conj(e_a), -Y o e_a)

for 0 <= a <= m1, with o a normalized orthogonal multiplication; the OT family
by P_0: (u, v, z, w) -> (u, -v, w, z) and
P_a: (u, v, z, w) -> (e_a v, -e_a u, e_a w, -e_a z).

Each operator is a 4x4 block ``Op`` (``Op.blocks``) whose blocks are the
multiplication operators the product tables already give as ``Op``s: J_a and
J'_a from the octonion table (``octonion.j_generators``,
``j_prime_generators``) and Ro_a(x) = x o e_a from the nom's table
(``circ.right_ops``).  No operator is built by pushing basis vectors through
the maps above; the tests keep those maps as the oracle.

Mirror points like x* = (0, e_0, -e_0, 0)/sqrt(2) carry the sqrt(2) as a
half-power-of-two tag on a rational representative (ScaledVec), so focal
checks, tangent frames, and the degree-4 expansion of F at such points all
stay in exact rational arithmetic (sqrt-2 parts live in Rt2Poly).  The
closed second form at a mirror point is stated once, ``closed_second_form``:
the mirror suite compares the matrix route and the expansion of F at x*
with it.

Sign conventions are explicit and recorded rather than implicit: normal
frames are declared per construction (n_i = P_i(x*) at mirror points,
n_i = -P_i(x) at the OT Condition-A point, which reproduces the standard
display of the second fundamental form there), and third-form comparisons
allow the documented global sign flip (X, Y, Z) -> (-X, -Y, -Z).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from . import octonion as on
from .circ import Nom, Side, circ, right_ops
from .clifford import verify_a_system, volume_sign
from .linalg import Op
from .poly import (
    BITS,
    MultiPoly,
    Rt2Poly,
    monomial_exponents,
    monomial_key,
    norm_sq_poly,
    radial_shift,
    rt2_poly,
    weighted_products,
)
from .report import Report


@dataclass(frozen=True)
class ScaledVec:
    """coords * 2^(half/2); |coords|^2 * 2^half stays rational for any half."""

    coords: tuple
    half: int = 0

    def norm_sq(self) -> Fraction:
        n2 = on.norm_sq(self.coords)
        return n2 * Fraction(2) ** self.half


@dataclass
class FkmSystem:
    nom: Nom
    system: list  # the Ops P_-1, ..., P_{nom.dim-1}


def build_fkm_system(nom: Nom) -> FkmSystem:
    """P_-1 = diag(I, -I, I, -I) and, for each a, P_a with -R'_a in block
    (1, 2), -R'_{conj a} in (2, 1), -Ro_{conj a} in (3, 4) and -Ro_a in
    (4, 3), where R'_a(x) = x e_a (J'_a) and Ro_a(x) = x o e_a.  For a >= 1,
    conj(e_a) = -e_a flips the sign of the (2, 1) and (3, 4) blocks; e_0 is a
    two-sided unit of xy and of every o, so R'_0 = Ro_0 = I."""
    d = nom.dim
    one = Op.identity(d)

    def p_a(r1, r1_conj, ro, ro_conj) -> Op:
        return Op.blocks([
            [None, -r1, None, None],
            [-r1_conj, None, None, None],
            [None, None, None, -ro_conj],
            [None, None, -ro, None],
        ])

    ops = [Op.blocks([
        [one, None, None, None],
        [None, -one, None, None],
        [None, None, one, None],
        [None, None, None, -one],
    ])]
    ops.append(p_a(one, one, one, one))
    ops += [p_a(r1, -r1, ro, -ro) for r1, ro in zip(on.j_prime_generators(d), right_ops(nom))]
    return FkmSystem(nom, ops)


def build_ot_system(block_dim: int = 8) -> list:
    """P_0 = (I, -I) on the diagonal with I in blocks (3, 4) and (4, 3);
    P_a has J_a, -J_a, J_a, -J_a in blocks (1, 2), (2, 1), (3, 4), (4, 3),
    with J_a(x) = e_a x; the ``Op``s P_0, ..., P_{block_dim-1}."""
    one = Op.identity(block_dim)
    ops = [Op.blocks([
        [one, None, None, None],
        [None, -one, None, None],
        [None, None, None, one],
        [None, None, one, None],
    ])]
    ops += [
        Op.blocks([
            [None, j, None, None],
            [-j, None, None, None],
            [None, None, None, j],
            [None, None, -j, None],
        ])
        for j in on.j_generators(block_dim)
    ]
    return ops


def fkm_squares(system: list) -> list[tuple[int, MultiPoly]]:
    """The weighted squares of F: (-2, <P_i x, x>) for each operator P_i,
    the quadratic form built from the int numerators of P_i over its
    denominator.  ``fkm_polynomial`` builds F from them, and the Muenzner
    suite hands them to ``poly.munzner_verify``."""
    n = system[0].ncols
    squares = []
    for m in system:
        q: dict = {}
        for r, row in enumerate(m.rows):
            for k, c in row.items():
                key = monomial_key(r, k)
                q[key] = q.get(key, 0) + c
        squares.append((-2, MultiPoly._adopt(n, {key: c for key, c in q.items() if c}, m.den)))
    return squares


def fkm_polynomial(system: list) -> MultiPoly:
    """F(x) = <x,x>^2 - 2 sum_i <P_i x, x>^2, homogeneous of degree 4: one
    ``weighted_products`` call over [|x|^2, <P_i x, x>...], the forms of
    ``fkm_squares``."""
    squares = fkm_squares(system)
    n = system[0].ncols
    quads = [norm_sq_poly(n), *(q for _, q in squares)]
    triples = [(1, 0, 0)] + [(w, i, i) for i, (w, _) in enumerate(squares, 1)]
    return weighted_products(n, quads, quads, [triples])[0]


def focal_check(system: list, x: ScaledVec) -> bool:
    """x lies on the focal zero locus: |x| = 1 and <P_i x, x> = 0 for all i."""
    if x.norm_sq() != 1:
        return False
    return all(on.inner(tuple(m.apply(x.coords)), x.coords) == 0 for m in system)


# ---------------------------------------------------------------------------
# focal frames
# ---------------------------------------------------------------------------


@dataclass
class FocalFrame:
    """Orthonormal (point | tangent | normal) frame with exact scaling tags.

    tangent order fixes the variable order of all extracted/assembled forms;
    normals are in the order of the system's operators.
    """

    point: ScaledVec
    tangent: list
    normals: list


def frame_check(frame: FocalFrame, ambient_dim: int) -> Report:
    """Unit vectors (with their half tags), pairwise orthogonality and the
    vector count.  Orthogonality is the off-diagonal of one Gram product
    V V^T of the coordinate rows: a half tag scales a vector by a power of
    sqrt2, which keeps a zero inner product zero."""
    rep = Report("frame")
    vecs = [frame.point] + frame.tangent + frame.normals
    rep.add("unit_vectors", all(v.norm_sq() == 1 for v in vecs))
    v = Op.of([vec.coords for vec in vecs])
    rep.add("orthogonality", all(row.keys() <= {i} for i, row in enumerate((v @ v.T).rows)))
    rep.add("dimension", len(vecs) == ambient_dim)
    return rep


def fkm_mirror_frame(fkm: FkmSystem) -> FocalFrame:
    """Frame at x* = (0, e_0, -e_0, 0)/sqrt2 with normals n_i = P_i(x*): the
    ``fkm_perturbed_frame`` at U = Id.

    Tangent order: X-type (0, e_alpha, 0, 0), Y-type (0, 0, e_mu, 0), then
    Z-type (e_p, 0, 0, e_p)/sqrt2, matching the symbolic (X, Y, Z) variable
    layout used by the closed-form routes.
    """
    return fkm_perturbed_frame(fkm, Op.identity(fkm.nom.dim))


def ot_plus_frame(ot: list) -> FocalFrame:
    """Frame at the Condition-A point x = (0, 0, e_0, 0) with normals -P_i(x).

    The minus orientation makes the extracted second fundamental form match
    the standard display p_0 = |u|^2 - |v|^2, p_a = 2<e_a, u conj(v)>.
    """
    d = ot[0].ncols // 4
    zero = on.zero(d)
    x0 = ScaledVec(zero + zero + on.basis(0, d) + zero, 0)
    tangent = [ScaledVec(on.basis(a, d) + zero + zero + zero, 0) for a in range(d)]
    tangent += [ScaledVec(zero + on.basis(a, d) + zero + zero, 0) for a in range(d)]
    tangent += [ScaledVec(zero + zero + on.basis(p, d) + zero, 0) for p in range(1, d)]
    normals = [ScaledVec(on.neg(m.apply(x0.coords)), 0) for m in ot]
    return FocalFrame(x0, tangent, normals)


def fkm_perturbed_frame(fkm: FkmSystem, u: Op) -> FocalFrame:
    """Frame at x*_n = (x# + n#)/sqrt2 where x# = (0, e_0, 0, 0),
    n# = (0, 0, n, 0), n = -U(e_0), with normals n_i = P_i(x*_n).

    Tangent order: X-type (0, e_alpha, 0, 0), Y-type (0, 0, U(e_mu), 0), then
    Z-type (e_p, 0, 0, U(e_p))/sqrt2.  The orthogonal U comes from
    ``mirror_intertwiner``; U = Id gives x* itself (``fkm_mirror_frame``)."""
    d = fkm.nom.dim
    zero = on.zero(d)
    n = on.neg(u.apply(on.basis(0, d)))
    xs = ScaledVec(zero + on.basis(0, d) + n + zero, -1)
    tangent = [ScaledVec(zero + on.basis(a, d) + zero + zero, 0) for a in range(1, d)]
    tangent += [ScaledVec(zero + zero + tuple(u.apply(on.basis(m, d))) + zero, 0) for m in range(1, d)]
    tangent += [ScaledVec(on.basis(p, d) + zero + zero + tuple(u.apply(on.basis(p, d))), -1) for p in range(d)]
    normals = [ScaledVec(tuple(m.apply(xs.coords)), -1) for m in fkm.system]
    return FocalFrame(xs, tangent, normals)


# ---------------------------------------------------------------------------
# expansion extraction: second and third fundamental forms from F
# ---------------------------------------------------------------------------


@dataclass
class ExtractedForms:
    """p_i (quadratic) and q_i (cubic) forms in unit tangent coordinates,
    in the order of the frame's normals."""

    p: list  # list[Rt2Poly]
    q: list
    nvars: int


def _grade(key: int, halves: list, tcount: int) -> tuple:
    """(t-degree, normal index, tangent degree, sqrt2 fold) of a monomial
    in the frame's variables (t, tangent, normal): the normal index is a
    for a lone normal variable w_a of exponent 1, None for none and -1 for
    more; the fold is sum_i half_i e_i."""
    tdeg = ydeg = fold = 0
    w = None
    for i, e in monomial_exponents(key):
        fold += halves[i] * e
        if i == 0:
            tdeg = e
        elif i <= tcount:
            ydeg += e
        else:
            w = i - 1 - tcount if w is None and e == 1 else -1
    return tdeg, w, ydeg, fold


def _form_of(tdeg: int, w, ydeg: int):
    """What a graded monomial is read into: "t4" for t^4 alone, ("p", a)
    for t w_a times a tangent quadratic, ("q", a) for w_a times a tangent
    cubic, None for the rest of the expansion."""
    if w is None:
        return "t4" if (tdeg, ydeg) == (4, 0) else None
    if w >= 0 and (tdeg, ydeg) in ((1, 2), (0, 3)):
        return ("p" if tdeg else "q", w)
    return None


def extract_expansion_forms(f: MultiPoly, squares, frame: FocalFrame) -> ExtractedForms:
    """Read the second/third fundamental forms out of the degree-4 expansion

        F(t x + y + w) = t^4 + (2|y|^2 - 6|w|^2) t^2 + 8 (sum_a p_a w_a) t
                         + [ ... + 8 sum_a q_a w_a + ... ]

    at a focal point (value +1).  All frame vectors are rational-with-half-tag;
    per-monomial powers of sqrt2 are folded into Rt2Poly coefficients.

    F is expanded from the squares it is built of, as ``poly.munzner_verify``
    proves the Muenzner PDEs: ``squares`` holds the (rational w_i, quadratic
    Q_i) pairs of F (``fkm_squares``), or is (), and with (c, E) the
    ``radial_shift`` of F - sum_i w_i Q_i^2, F = c |x|^2 |x|^2
    + sum_i w_i Q_i^2 + E, so the squares are a hint and not an assumption.
    One ``weighted_products`` call substitutes the frame's linear forms L
    into |x|^2 and every Q_i.  Each substituted term is graded by its
    t-degree, its normal variable, its tangent degree and its sqrt2 fold,
    and the squares are summed in a second call with one slot per output
    grade and sqrt2 parity: t^4, each p_a (t w_a), each q_a (w_a), and the
    rest of the expansion, so that every product is still formed.  A
    product's power of 2 beyond the lowest fold goes into its weight, so a
    slot is one polynomial, and p_a and q_a are read off their slots by
    subtracting the t and w_a fields from the keys: no term of the
    expansion is decoded.  E(L), zero for a Clifford system's F, is
    substituted, graded term by term and summed into the same slots.
    """
    tcount = len(frame.tangent)
    vecs = [frame.point, *frame.tangent, *frame.normals]
    nv = len(vecs)
    halves = [v.half for v in vecs]
    n = f.nvars
    lin = [MultiPoly(nv, {monomial_key(j): v.coords[r] for j, v in enumerate(vecs) if v.coords[r]}) for r in range(n)]

    ws = [Fraction(w) for w, _ in squares]
    qs = [q for _, q in squares]
    wden = lcm(*(w.denominator for w in ws))
    s = weighted_products(n, qs, qs, [[(int(w * wden), i, i) for i, w in enumerate(ws)]], wden)[0]
    c, e = radial_shift(f - s)
    if c:
        ws.insert(0, c)
        qs.insert(0, norm_sq_poly(n))

    # Q_i(L) for each quadratic, from the triples (coefficient, x_r, x_s) of its terms
    qden = lcm(*(q.den for q in qs))
    slots = []
    for q in qs:
        scale = qden // q.den
        slot = []
        for key, cq in q.terms.items():
            rs = [r for r, k in monomial_exponents(key) for _ in range(k)]
            if len(rs) != 2:
                raise ValueError("each square must be a homogeneous quadratic over F's variables")
            slot.append((cq * scale, *rs))
        slots.append(slot)
    # (rational weight, numerators' polynomial, squared?): w_i Q_i(L)^2, and E(L) times 1
    owners = [(w / (g.den * g.den), g, True) for w, g in zip(ws, weighted_products(nv, lin, lin, slots, qden))]
    if e:
        ec = e.substitute_linear(lin)
        owners.append((Fraction(1, ec.den), ec, False))
    den = lcm(*(w.denominator for w, _, _ in owners))

    # the graded parts of each owner, numerators over 1, summed in one call
    # with one slot per (form, fold parity): a product of fold low + 2k +
    # parity, low = 4 min(halves), has its weight times 2^k
    low = 4 * min(halves)
    polys: list = [1]  # E(L)'s parts are paired with this 1, of grade (0, None, 0, 0)
    places: dict = {}
    triples: list = []
    for w, g, square in owners:
        by_grade: dict = {}
        for key, cg in g.terms.items():
            by_grade.setdefault(_grade(key, halves, tcount), {})[key] = cg
        row = [(grade, len(polys) + k) for k, grade in enumerate(by_grade)]
        polys += [MultiPoly._adopt(nv, terms, 1, g._expbound) for terms in by_grade.values()]
        weight = int(w * den)
        if square:
            pairs = [(x, y, 1 if i == j else 2) for i, x in enumerate(row) for j, y in enumerate(row) if i <= j]
        else:
            pairs = [(x, ((0, None, 0, 0), 0), 1) for x in row]
        for ((t1, w1, y1, f1), u), ((t2, w2, y2, f2), v), k in pairs:
            fold = f1 + f2 - low
            form = _form_of(t1 + t2, w2 if w1 is None else (w1 if w2 is None else -1), y1 + y2)
            place = places.setdefault((form, fold % 2), len(triples))
            if place == len(triples):
                triples.append([])
            triples[place].append((k * weight << fold // 2, u, v))
    sums = dict(zip(places, weighted_products(nv, polys, polys, triples, den)))
    zero = MultiPoly.zero(nv)
    h = low // 2  # a slot's value is its polynomial times 2^h, times sqrt2 at odd parity

    if sums.get(("t4", 1)):
        raise ValueError("t^4 coefficient carries sqrt2; frame is inconsistent")
    t4 = sums.get(("t4", 0), zero)
    t4_coeff = Fraction(t4.terms.get(monomial_key(0, 0, 0, 0), 0), t4.den) * Fraction(2) ** h
    if t4_coeff != 1:
        raise ValueError(f"expansion point is not on the +1 focal locus (t^4 coeff {t4_coeff})")

    def read(kind: str, a: int) -> Rt2Poly:
        """p_a or q_a: the keys of 8 p_a (8 q_a) less t w_a (w_a), shifted
        onto the tangent variables, over 8."""
        strip = monomial_key(*((0,) if kind == "p" else ()), 1 + tcount + a)
        parts = []
        for parity in (0, 1):
            p = sums.get(((kind, a), parity), zero)
            terms = {(k - strip) >> BITS: cp << max(h, 0) for k, cp in p.terms.items()}
            parts.append(MultiPoly._adopt(tcount, terms, 8 * p.den << max(-h, 0)))
        return Rt2Poly(*parts)

    ncount = len(frame.normals)
    return ExtractedForms([read("p", a) for a in range(ncount)], [read("q", a) for a in range(ncount)], tcount)


# ---------------------------------------------------------------------------
# second fundamental form, matrix route vs closed formula
# ---------------------------------------------------------------------------


def _rows_op(vecs: list) -> Op:
    """The matrix whose rows are the rational representatives of ``vecs``."""
    return Op.of([v.coords for v in vecs])


def matrix_route_forms(system: list, frame: FocalFrame) -> list:
    """Quadratics -<P_i v(c), v(c)> in unit tangent coordinates, as Rt2Poly:
    with V the tangent representatives as rows, the coefficient of c_j c_k is
    -(G_jk + G_kj) for j < k and -G_jj on the diagonal, G = V P_i V^T.  A
    pair of tangent vectors whose half-power tags sum to an odd kfold lands
    in the sqrt2 part."""
    tcount = len(frame.tangent)
    halves = [t.half for t in frame.tangent]
    v = _rows_op(frame.tangent)
    vt = v.T
    out = []
    for m in system:
        g = v @ m @ vt
        terms = (
            (monomial_key(j, k), -x, halves[j] + halves[k]) for j, row in enumerate(g.rows) for k, x in row.items()
        )
        out.append(rt2_poly(tcount, terms, g.den))
    return out


def closed_second_form(dim: int, yz) -> list:
    """The closed second form at a mirror point, over the tangent variables
    ordered (x_1.., y_1.., z_0..): p_-1 = |X|^2 - |Y|^2 and
    p_a = -sqrt2 <XZ + Y.Z, e_a>, with the product Y.Z = yz(Y, Z).  Y o Z
    gives it at x* (``fkm_formula_forms``); YZ or ZY at the perturbed point
    x*_n (``perturb_mirror``), and YZ also for the OT family."""
    xs, ys, zs = on.symbolic_octets(dim, "xyZ")
    vec = on.add(on.multiply(xs, zs), yz(ys, zs))
    return [Rt2Poly.rational(on.inner(xs, xs) - on.inner(ys, ys))] + [Rt2Poly.sqrt2_times(-c) for c in vec]


def fkm_formula_forms(nom: Nom) -> list:
    """The closed second form at x*: p_a = -sqrt2 <XZ + Y o Z, e_a>."""
    return closed_second_form(nom.dim, lambda y, z: circ(nom, y, z))


# ---------------------------------------------------------------------------
# Condition A
# ---------------------------------------------------------------------------


@dataclass
class SecondFormBlocks:
    """Blocks of the second-fundamental matrices in an eigenbasis: S_0 is
    diag(Id, -Id, 0) and S_a has A_a: V- -> V+, B_a: V0 -> V+, C_a: V0 -> V-.
    Every block and matrix is an ``Op``."""

    a_blocks: list
    b_blocks: list
    c_blocks: list
    s_matrices: list  # full symmetric matrices incl. S_0, in tangent coords


def _hessian_half(p: MultiPoly, nv: int) -> list:
    s = [[Fraction(0)] * nv for _ in range(nv)]
    for exps, c in p.exponent_dict().items():
        nz = [(i, e) for i, e in enumerate(exps) if e]
        if sum(e for _, e in nz) != 2:
            raise ValueError("second-form polynomial is not quadratic")
        if len(nz) == 1:
            i = nz[0][0]
            s[i][i] = c
        else:
            (i, _), (j, _) = nz
            s[i][j] = s[i][j] + c / 2
            s[j][i] = s[j][i] + c / 2
    return s


def blocks_from_forms(p_forms: list, d_plus: int, d_minus: int, d_zero: int) -> SecondFormBlocks:
    """Split the quadratic forms p_0..p_m1, ``Rt2Poly``s whose sqrt(2) parts
    must be zero (``ValueError`` otherwise), into the standard eigenbasis
    blocks.

    p_forms[0] must be the diagonal form |x_+|^2 - |x_-|^2, and the block
    sizes must add up to the forms' variables (``ValueError`` otherwise).
    """
    nv = d_plus + d_minus + d_zero
    mats = []
    for f in p_forms:
        if f.a.nvars != nv:
            raise ValueError(f"block sizes {d_plus} + {d_minus} + {d_zero} != the forms' {f.a.nvars} variables")
        if not f.is_rational():
            raise ValueError("block extraction expects rational forms")
        mats.append(_hessian_half(f.a, nv))
    s0_want = [[Fraction(0)] * nv for _ in range(nv)]
    for i in range(d_plus):
        s0_want[i][i] = Fraction(1)
    for i in range(d_plus, d_plus + d_minus):
        s0_want[i][i] = Fraction(-1)
    if mats[0] != s0_want:
        raise ValueError("p_0 is not the diagonal eigenvalue form diag(Id, -Id, 0)")
    ranges = (range(d_plus), range(d_plus, d_plus + d_minus), range(d_plus + d_minus, nv))
    for a, s in enumerate(mats[1:], start=1):
        for block in ranges:
            for i in block:
                for j in block:
                    if s[i][j] != 0:
                        raise ValueError(f"S_{a} has a nonzero within-eigenspace entry at {(i, j)}")
    a_blocks, b_blocks, c_blocks = [], [], []
    for s in mats[1:]:
        a_blocks.append(Op.of([row[d_plus : d_plus + d_minus] for row in s[:d_plus]]))
        b_blocks.append(Op.of([row[d_plus + d_minus :] for row in s[:d_plus]]))
        c_blocks.append(Op.of([row[d_plus + d_minus :] for row in s[d_plus : d_plus + d_minus]]))
    return SecondFormBlocks(a_blocks, b_blocks, c_blocks, [Op.of(s) for s in mats])


def _product_slots(a_rows: list, b_rows: list) -> tuple[list, list]:
    """The ``weighted_products`` slots of the product of two sparse matrices
    whose rows map a column to the place of its entry, one per entry (i, k)
    it reaches, and the product's rows, which map k to that slot."""
    slots, rows = [], []
    for a_row in a_rows:
        reach: dict = {}
        for j, a in a_row.items():
            for k, b in b_rows[j].items():
                reach.setdefault(k, []).append((1, a, b))
        rows.append({k: len(slots) + n for n, k in enumerate(reach)})
        slots += reach.values()
    return slots, rows


def condition_a_check(blocks: SecondFormBlocks) -> Report:
    """Condition A: every B_a and C_a vanishes.  The report also proves
    S_n^3 = |n|^2 S_n for a symbolic normal n, with S_n = sum_a n_a S_a as
    sparse rows of linear ``MultiPoly`` forms (S_n^2 and S_n^3 - |n|^2 S_n
    are one ``weighted_products`` call each), and, when A holds, that the
    A_a and the A_a^T are A-systems (``clifford.verify_a_system``):
    A_a A_b^T + A_b A_a^T = 2 delta_ab Id = A_a^T A_b + A_b^T A_a."""
    rep = Report("condition_a")
    zero_b = all(m.max_abs() == 0 for m in blocks.b_blocks)
    zero_c = all(m.max_abs() == 0 for m in blocks.c_blocks)
    rep.add("b_blocks_zero", zero_b)
    rep.add("c_blocks_zero", zero_c)
    s = blocks.s_matrices
    nv = len(s)
    coeffs: dict = {}  # (i, j) -> {n_a: entry (i, j) of S_a}
    for a, m in enumerate(s):
        for i, row in enumerate(m.rows):
            for j, w in row.items():
                coeffs.setdefault((i, j), {})[monomial_key(a)] = Fraction(w, m.den)
    forms = [MultiPoly(nv, c) for c in coeffs.values()]
    rows = [{} for _ in s[0].rows]
    for place, (i, j) in enumerate(coeffs):
        rows[i][j] = place
    square_slots, square_rows = _product_slots(rows, rows)
    squares = weighted_products(nv, forms, forms, square_slots)
    cube_slots, cube_rows = _product_slots(square_rows, rows)
    norm = len(squares)  # the place of |n|^2 after the squares
    for row, cube_row in zip(rows, cube_rows):
        for k, place in row.items():
            minus = (-1, norm, place)
            if k in cube_row:
                cube_slots[cube_row[k]].append(minus)
            else:
                cube_slots.append([minus])
    residuals = weighted_products(nv, [*squares, norm_sq_poly(nv)], forms, cube_slots)
    rep.add("shape_operator_cube", not any(residuals))
    if zero_b and zero_c:
        a_ops = blocks.a_blocks
        rep.add("a_block_relations", all(verify_a_system(ops).passed for ops in (a_ops, [a.T for a in a_ops])))
    return rep


# ---------------------------------------------------------------------------
# Condition B
# ---------------------------------------------------------------------------


def condition_b_check(
    system: list,
    frame: FocalFrame,
    p_forms: list,
    q_forms: list,
) -> Report:
    """Condition B via the standard recipe r_ab(v) = <P_a(v), n_b>.

    With the frame's uniformly oriented normals the recipe r is automatically
    skew; the identity q_b = sum_a r_ab p_a is checked for q and -q (the
    tangent-orientation freedom) and the matched sign recorded.  Fails when
    neither sign satisfies the identity.
    """
    rep = Report("condition_b")
    tcount = len(frame.tangent)
    nops = len(system)
    orient = []
    for i, nvec in enumerate(frame.normals):
        pi_x = tuple(system[i].apply(frame.point.coords))
        if nvec.coords == pi_x:
            orient.append(1)
        elif nvec.coords == on.neg(pi_x):
            orient.append(-1)
        else:
            orient.append(0)
    rep.note(f"normal orientation relative to P_i(x): {orient}")

    # r_ab(c) = sum_j c_j <P_a v_j, n_b>: row b of N P_a V^T, with the
    # normals N and tangent representatives V as rows
    r: list = [[None] * nops for _ in range(nops)]
    vt = _rows_op(frame.tangent).T
    nrm = _rows_op(frame.normals)
    for a in range(nops):
        g = nrm @ system[a] @ vt
        for b in range(nops):
            terms = ((monomial_key(j), x, frame.tangent[j].half + frame.normals[b].half) for j, x in g.rows[b].items())
            r[a][b] = rt2_poly(tcount, terms, g.den)

    # r_ab + r_ba is symmetric in (a, b): the pairs a <= b settle it
    skew = all((r[a][b] + r[b][a]).is_zero() for a in range(nops) for b in range(a, nops))
    rep.add("r_skew_symmetric", skew)

    # sum_a r_ab p_a for every b in one call over the sqrt2 parts: with
    # r = A + sqrt2 B and p = C + sqrt2 D, r p = AC + 2BD + sqrt2 (AD + BC)
    x = [part for row in r for f in row for part in (f.a, f.b)]  # x[2 (a nops + b) + k]
    y = [part for f in p_forms for part in (f.a, f.b)]
    slots = []
    for b in range(nops):
        at = [(2 * (a * nops + b), 2 * a) for a in range(nops)]
        slots.append([t for i, j in at for t in ((1, i, j), (2, i + 1, j + 1)) if x[t[1]] and y[t[2]]])
        slots.append([t for i, j in at for t in ((1, i, j + 1), (1, i + 1, j)) if x[t[1]] and y[t[2]]])
    parts = weighted_products(tcount, x, y, slots)
    sums = [Rt2Poly(*parts[2 * b : 2 * b + 2]) for b in range(nops)]
    plus_ok = all((s - q).is_zero() for s, q in zip(sums, q_forms, strict=True))
    minus_ok = all((s + q).is_zero() for s, q in zip(sums, q_forms, strict=True))
    sign = 1 if plus_ok else (-1 if minus_ok else 0)
    rep.add("linear_span_identity", plus_ok or minus_ok, detail={"matched_sign": sign})
    return rep


# ---------------------------------------------------------------------------
# perturbing the mirror point
# ---------------------------------------------------------------------------


def mirror_intertwiner(nom: Nom) -> tuple[Op, int]:
    """Orthogonal U with U(z) o e_a = U(z e_a) (branch +1) or U(e_a z)
    (branch -1) for all a, z.

    For a left-shifted nom, U = Lmat(conj alpha) satisfies the first relation
    (a middle-Moufang consequence); for a right-shifted one, U = Rmat(conj
    alpha) satisfies the second.  The returned U is verified exactly, and a
    U that fails the check raises ValueError.
    """
    ca = on.conjugate(nom.alpha)
    if nom.side is Side.LEFT:
        u, branch = on.left_mult_matrix(ca), 1
    else:
        u, branch = on.right_mult_matrix(ca), -1
    if not _mirror_u_ok(nom, u, branch):
        raise ValueError("the closed-form mirror intertwiner fails its exact check")
    return u, branch


def _mirror_u_ok(nom: Nom, u: Op, branch: int) -> bool:
    """U U^T = Id and R_a U = U J'_a (branch +1) or U J_a (branch -1) for
    every a, with R_a(z) = z o e_a: that is U(z) o e_a = U(z e_a) or U(e_a z)."""
    d = nom.dim
    gens = on.j_prime_generators(d) if branch == 1 else on.j_generators(d)
    if (u @ u.T).scalar() != 1:
        return False
    return all(r @ u == u @ g for r, g in zip(right_ops(nom), gens))


def perturb_mirror(fkm: FkmSystem) -> Report:
    """Mirror-point perturbation: move the mirror point to x*_n where the
    second fundamental form becomes -sqrt2(XZ + YZ) or -sqrt2(XZ + ZY).

    The report records the branch: 'XZ+YZ' when U intertwines with right
    octonion multiplication (volume sign +1 of the right o-operators),
    'XZ+ZY' otherwise.
    """
    rep = Report("perturb_mirror")
    nom = fkm.nom
    d = nom.dim
    u, branch = mirror_intertwiner(nom)
    vol = volume_sign(right_ops(nom))
    rep.add("branch_matches_volume_sign", (branch == 1) == (vol == 1), detail={"volume_sign": vol})

    frame = fkm_perturbed_frame(fkm, u)
    rep.add("perturbed_point_focal", focal_check(fkm.system, frame.point))
    fr = frame_check(frame, 4 * d)
    rep.add("frame_orthonormal", fr.passed)

    got = matrix_route_forms(fkm.system, frame)
    if branch == 1:
        want = closed_second_form(d, on.multiply)
        label = "XZ+YZ"
    else:
        want = closed_second_form(d, lambda y, z: on.multiply(z, y))
        label = "XZ+ZY"
    ok = all((g - w).is_zero() for g, w in zip(got, want, strict=True))
    rep.add("second_form_branch_identity", ok, detail={"branch": label})
    return rep


# ---------------------------------------------------------------------------
# display checks for the OT construction at its Condition-A point
# ---------------------------------------------------------------------------


def ot_display_report(ot: list, f: MultiPoly) -> tuple[Report, ExtractedForms, FocalFrame]:
    """Verify the standard displays at x = (0, 0, e_0, 0), reading the forms
    out of f = fkm_polynomial(ot):

        p_0 = |u|^2 - |v|^2,    p_a = 2 <e_a, u conj(v)>,
        q_0 = 2 <z, u conj(v)>.

    The commonly displayed q_a (a >= 1) needs two corrections against the
    mechanical expansion: a global sign (tangent-orientation convention) and a
    conjugation placement; the exact identity is

        q_a = -[ <z,e_a>(|u|^2 - |v|^2 - 2<u, v>) - 2<z e_a, u conj v> ],

    with the coordinate dot <u, v>, which the report asserts.
    """
    rep = Report("ot_displays")
    d = ot[0].ncols // 4
    frame = ot_plus_frame(ot)
    fr = frame_check(frame, 4 * d)
    rep.add("frame_orthonormal", fr.passed)
    rep.add("point_focal", focal_check(ot, frame.point))
    forms = extract_expansion_forms(f, fkm_squares(ot), frame)

    us, vs, zs = on.symbolic_octets(d, "UVz")  # the frame's 3d - 1 tangent variables

    p0_want = on.inner(us, us) - on.inner(vs, vs)
    rep.add("p0_display", forms.p[0] == Rt2Poly.rational(p0_want))
    ucv = on.multiply(us, on.conjugate(vs))
    ok_pa = all(
        forms.p[a] == Rt2Poly.rational(2 * ucv[a]) for a in range(1, d)
    )
    rep.add("pa_display", ok_pa)
    q0_want = 2 * on.inner(zs, ucv)
    rep.add("q0_display", forms.q[0] == Rt2Poly.rational(q0_want))
    uv_dot = on.inner(us, vs)
    ok_qa = True
    for a in range(1, d):
        za = on.multiply(zs, on.basis(a, d))
        disp = zs[a] * (on.inner(us, us) - on.inner(vs, vs) - 2 * uv_dot) - 2 * on.inner(za, ucv)
        if forms.q[a] != Rt2Poly.rational(-disp):
            ok_qa = False
    rep.add("qa_display_corrected", ok_qa, detail={"sign": -1, "inner_product": "<u,v>"})
    return rep, forms, frame
