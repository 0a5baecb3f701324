"""Identity batteries and the classifier for the trilinear third form q*.

Candidates are trilinear maps q(X, Y, Z) with q(e_0, ., .) = q(., e_0, .) = 0;
the two families are

    OT:  q(X, Y, Z) = (XY - YX) Z           (o = the algebra product)
    FKM: q(X, Y, Z) = X (Y o Z) - Y o (X Z)  for a normalized o

Each candidate carries one coefficient table of its ``eval``
(``QCandidate.table``, a ``mirror.TrilinearTable``), built on first use from
one symbolic evaluation on full slots, which also checks that ``eval`` is
trilinear; that evaluation is the only one on symbolic slots.  Each battery
states each identity once, as the values that must vanish, and proves it
with ``report.proved``, recorded as a witness.  A proved identity is a
polynomial in free slots that vanishes exactly when each of its
coefficients does.  The basis-slot identities of the exchange and skew
batteries read each coefficient off the table as a sum of entries
(``exchange_suite``, ``skew_suite``).  The others form the polynomial:
q(X, Y, Z) on the ``octonion.symbolic_octets`` slots "xyZ" is the
candidate's components, and q at any other slots, symbolic or rational
(``r_form``, ``good_identity_check``), is ``TrilinearTable.contract``.  The
anti battery's (U, V) identities are the polarisations of its W ones,
re-keyed term by term (``anti_suite``).  Either way a pass is a proof of
the identity.  The batteries are a pure function of the candidate, so each
candidate runs them once (``QCandidate.batteries``), and ``classify_q``
refuses a candidate that fails them.

Classification compares components: each candidate carries the cubic
component polynomials of its ``eval`` (``QCandidate.tensor``, read off its
table), and ``classify_q`` matches them against those of the endpoint
candidates (OT, FKM-left and FKM-right at alpha = e_0).  The closed forms
themselves live only in ``mirror.q_star_ot_eval`` and
``mirror.q_star_fkm_eval``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable

from . import octonion as on
from .circ import Nom, Side, circ, cos_sin_2theta, theta_axis
from .mirror import TrilinearTable, q_star_fkm_eval, q_star_ot_eval
from .poly import MultiPoly
from .report import Report, WitnessReport, proved


class QLabel(enum.Enum):
    OT_TYPE = "OtType"
    FKM_LEFT = "FkmLeft"
    FKM_RIGHT = "FkmRight"
    CUSTOM = "Custom"
    UNKNOWN = "Unknown"


@dataclass(frozen=True)
class Batteries:
    """The identity batteries' verdict on one candidate: the witness lists
    of ``exchange_suite``, ``skew_suite`` and ``anti_suite``, and
    ``norm_identity_check``."""

    exchange: list
    skew: list
    anti: list
    norm: bool

    @property
    def passed(self) -> bool:
        return self.norm and all(w.passed for ws in (self.exchange, self.skew, self.anti) for w in ws)


@dataclass
class QCandidate:
    """A trilinear candidate q*.  ``table``, ``tensor`` and ``batteries``
    are cached on first use, so a different ``eval`` needs a new
    candidate.  ``reference`` is the FKM candidate at ``nom`` that
    ``norm_identity_check`` compares with (an FKM candidate is its own);
    without one, that check builds it."""

    label: QLabel
    nom: Nom
    eval: Callable  # (X, Y, Z) coordinate tuples -> coordinate tuple
    reference: QCandidate | None = field(default=None, repr=False, compare=False)

    @property
    def dim(self) -> int:
        return self.nom.dim

    @cached_property
    def table(self) -> TrilinearTable:
        """The coefficients of ``eval`` on basis triples, from its one
        symbolic evaluation (``TrilinearTable.of``)."""
        return TrilinearTable.of(self.eval, self.dim)

    @cached_property
    def tensor(self) -> tuple:
        """The components of ``eval`` as cubic polynomials, read off ``table``
        (``TrilinearTable.components``)."""
        return self.table.components()

    @cached_property
    def batteries(self) -> Batteries:
        """The identity batteries on ``eval``, each run once."""
        return Batteries(exchange_suite(self), skew_suite(self), anti_suite(self), norm_identity_check(self))


def fkm_candidate(nom: Nom) -> QCandidate:
    label = QLabel.CUSTOM
    if nom.alpha == on.basis(0, nom.dim):
        label = QLabel.FKM_LEFT if nom.side is Side.LEFT else QLabel.FKM_RIGHT
    cand = QCandidate(label, nom, lambda X, Y, Z: q_star_fkm_eval(nom, X, Y, Z))
    cand.reference = cand
    return cand


def ot_candidate(dim: int = 8) -> QCandidate:
    nom = Nom(Side.LEFT, on.basis(0, dim))  # o coincides with the algebra product
    return QCandidate(QLabel.OT_TYPE, nom, lambda X, Y, Z: q_star_ot_eval(X, Y, Z))


# ---------------------------------------------------------------------------
# R(X, Y) = q(X, Y, e_0) and its classification
# ---------------------------------------------------------------------------


def r_form(q: QCandidate, x: tuple, y: tuple) -> tuple:
    """R(X, Y) = q(X, Y, e_0) at rational X, Y, contracted from ``q.table``."""
    if x[0] != 0 or y[0] != 0:
        raise ValueError("X, Y must be purely imaginary")
    return q.table.contract(x, y, on.basis(0, q.dim))


def crucial_classify(q: QCandidate, x: tuple, y: tuple) -> Report:
    """Compare R(X, Y) against the predicted XY - Y o X.

    Perpendicular configuration ({X, Y, XY} all perpendicular to the axis):
    equality with the + sign and |R|^2 = 2 + 2cos(2 theta) for a left-shifted
    o, 2 - 2cos(2 theta) for a right-shifted one.  Parallel
    configuration (XY parallel to the axis): equality up to a recorded sign.
    Anything else, a degenerate axis (theta in {0, pi}) included, is an
    error.
    """
    rep = Report("r_classification")
    dim = q.dim
    if on.norm_sq(x) != 1 or on.norm_sq(y) != 1 or on.inner(x, y) != 0:
        raise ValueError("X, Y must be orthonormal")
    ta = theta_axis(q.nom.alpha)
    if ta.degenerate:
        raise ValueError("degenerate axis: no perpendicular or parallel configuration")
    got = r_form(q, x, y)
    xy = on.multiply(x, y)
    axis = ta.axis
    pred = on.sub(xy, circ(q.nom, y, x))
    perp = on.inner(x, axis) == 0 and on.inner(y, axis) == 0 and on.inner(xy, axis) == 0
    parallel = on.sub(xy, on.scale(on.inner(xy, axis), axis)) == on.zero(dim)
    if perp:
        rep.add("perpendicular_value", got == pred)
        c2, _ = cos_sin_2theta(q.nom)
        if q.nom.side is Side.LEFT:
            rep.add("norm_sq_2_plus_2cos2theta", on.norm_sq(got) == 2 + 2 * c2)
        else:
            rep.add("norm_sq_2_minus_2cos2theta", on.norm_sq(got) == 2 - 2 * c2)
        return rep
    if parallel:
        plus = got == pred
        minus = got == on.neg(pred)
        sign = 1 if plus else (-1 if minus else 0)
        rep.add("parallel_value_up_to_sign", plus or minus, detail={"sign": sign})
        return rep
    raise ValueError("configuration covered by neither branch (X, Y vs axis)")


# ---------------------------------------------------------------------------
# identity batteries
# ---------------------------------------------------------------------------

# The witnesses that were once valued at 25 seeded points keep the schema-v1
# record {"instances": 25} with a Fraction residual.  Each is proved in
# symbolic slots now, and a proof implies the count, so the record
# understates and never overstates.  ROADMAP item 1 (the schema-v2
# benchmark change) replaces the count with ``evidence``.
RECORDED_INSTANCES = 25


def recorded(name: str, passed: bool) -> WitnessReport:
    """The proved witness ``name`` in its schema-v1 record (see
    ``RECORDED_INSTANCES``): residual 0 on a pass, 1 on a failure."""
    return WitnessReport(name, {"instances": RECORDED_INSTANCES}, None, None, Fraction(0 if passed else 1), passed)


def exchange_suite(q: QCandidate) -> list:
    """All of ``exchange_witnesses``."""
    return list(exchange_witnesses(q))


def exchange_witnesses(q: QCandidate):
    """The six exchange identities of the third form plus their six
    imaginary-vector corollaries, proved over free slots, one witness at a
    time.

    The basis-slot identities are read off ``q.table``, T[k; i, j, l] =
    <q(e_i, e_j, e_l), e_k>, with the purely imaginary X and Y as free slots.
    The two bilinear ones vanish exactly when the coefficients of their
    monomials do: T[a; i, j, a] for q(X,Y,e_a) _|_ e_a, and the symmetric
    parts of (k, i) -> T[k; i, j, 0] and (k, j) -> T[k; i, j, 0] for
    q(X,Y,e_0) _|_ X, Y.  In the loops over (a, p) every slot but one holds
    a basis vector or a product of two, so each instance is a linear form in
    its free slot, checked coefficient by coefficient: the coefficient of
    y_f in <q(e_a,Y,e_p),e_a> + <q(e_a conj(e_p),Y,e_0),e_a> is
    T[a; a, f, p] + sum_k v_k T[a; k, f, 0] with v = e_a conj(e_p) read off
    the product's ``ProductTable.sparse``; each (a, p) is one instance of
    its witness.  The polarised identities are stated in the "xyZ" slots:
    q(X, Y, Z) is ``q.tensor`` and q at each other triple is
    ``q.table.contract``; they are recorded by ``recorded``."""
    dim = q.dim
    nomc = q.nom
    coeff = q.table.coeff  # den * T[k; i, j, l]
    im = range(1, dim)  # the coordinates of the purely imaginary slots X, Y

    def at(slot, k, s, f, l):
        """den * <q(e_s, e_f, e_l), e_k> for slot "X", den * <q(e_f, e_s, e_l), e_k> for slot "Y"."""
        return coeff(k, s, f, l) if slot == "X" else coeff(k, f, s, l)

    def exchange(slot, product, instances):
        """Per instance ((k, s, l), (eps, g, h, c)) of ``instances``, the
        free coordinates f whose coefficient in
        <q(e_s, ., e_l), e_k> + eps <q(e_g * e_h, ., e_0), e_c>
        does not vanish: e_s and the product e_g * e_h (``product``'s table)
        fill ``slot``, and the other of X, Y is free."""
        den, rows = product.sparse
        for (k, s, l), (eps, g, h, c) in instances:
            v = rows[g][h]
            yield [f for f in im if den * at(slot, k, s, f, l) + eps * sum(w * at(slot, c, m, f, 0) for m, w in v)]

    # the basis-slot loops: the same identities hold in the X slot with the
    # algebra product and in the Y slot with o; conj(e_i) = sign[i] e_i
    sign = [1] + [-1] * (dim - 1)
    pairs = [(a, p) for a in range(dim) for p in range(dim)]
    # <q(e_a, e_p), e_a> + <q(e_a conj(e_p), e_0), e_a>
    ap = [((a, a, p), (sign[p], a, p, a)) for a, p in pairs]
    # <q(e_a, e_a), e_p> + <q(e_p conj(e_a), e_0), e_a>
    aa = [((p, a, a), (sign[a], p, a, a)) for a, p in pairs]
    # <q(e_a, e_a), e_p> + <q(conj(e_a) e_p, e_0), e_a>
    aa_transposed = [((p, a, a), (sign[a], a, p, a)) for a, p in pairs]
    octonion, o = on.PRODUCT_TABLES[dim], nomc.table
    yield proved("q(X,Y,e_a) _|_ e_a", ([(i, j) for i in im for j in im if coeff(a, i, j, a)] for a in range(dim)))
    yield proved(
        "q(X,Y,e_0) _|_ X and Y",
        (
            [(i, j, k) for j in im for i in im for k in range(i, dim) if coeff(k, i, j, 0) + coeff(i, k, j, 0)],
            [(i, j, k) for i in im for j in im for k in range(j, dim) if coeff(k, i, j, 0) + coeff(j, i, k, 0)],
        ),
    )
    yield proved("<q(e_a,Y,e_p),e_a> = -<q(e_a conj(e_p),Y,e_0),e_a>", exchange("X", octonion, ap))
    yield proved("<q(X,e_a,e_p),e_a> = -<q(X,e_a o conj(e_p),e_0),e_a>", exchange("Y", o, ap))
    yield proved("<q(e_a,Y,e_a),e_p> = -<q(e_p conj(e_a),Y,e_0),e_a>", exchange("X", octonion, aa))
    yield proved("<q(X,e_a,e_a),e_p> = -<q(X,e_p o conj(e_a),e_0),e_a>", exchange("Y", o, aa))
    # informational: the e_p o conj(e_a) ordering is what the identity asserts;
    # whether the transposed conj(e_a) o e_p ordering also validates is recorded,
    # never required
    transposed = proved("sixth identity transposed ordering (informational)", exchange("Y", o, aa_transposed))
    yield WitnessReport(transposed.identity_name, transposed.inputs, "validates", transposed.passed, 0, True)

    # the polarised battery in imaginary X, Y and full Z: q(X, Y, Z) is
    # q.tensor, and q at every other triple is contracted from q.table
    X, Y, Z = on.symbolic_octets(dim, "xyZ")
    e0, inner, conj, at = on.basis(0, dim), on.inner, on.conjugate, q.table.contract
    xyz, xy0, im_z = q.tensor, at(X, Y, e0), on.imaginary_part(Z)
    polarised = {
        "<q(X,Y,Z),Z> = 0 (Z imaginary or e_0)": inner(at(X, Y, im_z), im_z),
        "<q(X,Y,e_0),X> = 0": inner(xy0, X),
        "<q(X,Y,e_0),Y> = 0": inner(xy0, Y),
        "<q(X,Y,Z),X> = -<q(X conj(Z),Y,e_0),X>": inner(xyz, X) + inner(at(on.multiply(X, conj(Z)), Y, e0), X),
        "<q(X,Y,Z),Y> = -<q(X,Y o conj(Z),e_0),Y>": inner(xyz, Y) + inner(at(X, circ(nomc, Y, conj(Z)), e0), Y),
        "<q(X,Y,X),Z> = <q(ZX,Y,e_0),X>": inner(at(X, Y, X), Z) - inner(at(on.multiply(Z, X), Y, e0), X),
        "<q(X,Y,Y),Z> = <q(X,Z o Y,e_0),Y>": inner(at(X, Y, Y), Z) - inner(at(X, circ(nomc, Z, Y), e0), Y),
    }
    yield from (recorded(name, not r) for name, r in polarised.items())


def skew_suite(q: QCandidate) -> list:
    """Skew symmetries: the U/W exchange identity over V = e_0 or imaginary
    basis, skewness of <q(X,Y,Z),W> in (Z, W), and full antisymmetry of
    <q(X,Y,e_0),Z>.

    The proved ones are read off ``q.table``, T[k; i, j, l] =
    <q(e_i, e_j, e_l), e_k>, as in ``exchange_suite``; each vanishes exactly
    when the coefficient of each monomial of its free slots does:
    - U/W exchange at V = e_v (one instance per v), with e_u conj(e_v) =
      s(u,v) e_p(u) from ``PRODUCT_TABLES[dim].sparse``: the coefficient of
      U_u Y_j W_k is s(u,v) T[k; p(u), j, v] + s(k,v) T[u; p(k), j, v];
    - skew in (Z, W): of X_i Y_j Z_l W_k, T[k; i, j, l] + T[l; i, j, k];
    - R(X,Y,Z) = <q(X,Y,e_0),Z> + R(Y,X,Z) and + R(X,Z,Y): of X_i Y_j Z_k,
      T[k; i, j, 0] + T[k; j, i, 0] and T[k; i, j, 0] + T[j; i, k, 0].
    "skew (Z,W) on samples" is the skew proof's verdict under its schema-v1
    name (``recorded``)."""
    dim = q.dim
    rows = q.table.rows  # rows[i][j][l]: the (k, den * T[k; i, j, l]) pairs
    full, im = range(dim), range(1, dim)
    _, products = on.PRODUCT_TABLES[dim].sparse
    sign = [1] + [-1] * (dim - 1)  # conj(e_v) = sign[v] e_v

    def unskewed(coeffs, swap):
        """The keys of the sparse {key: den * T} at which the coefficient
        plus the one at ``swap(*key)`` does not vanish."""
        return [key for key, w in coeffs.items() if w + coeffs.get(swap(*key), 0)]

    def uw_exchange(v):
        # (j, u, k) -> den * <q(e_u conj(e_v), e_j, e_v), e_k>, the coefficient
        # of U_u Y_j W_k in the first term
        a = {}
        for j in im:
            for u in full:
                for m, w in products[u][v]:
                    for k, t in rows[m][j][v]:
                        a[j, u, k] = a.get((j, u, k), 0) + sign[v] * w * t
        return unskewed(a, lambda j, u, k: (j, k, u))

    zw = {(i, j, l, k): t for i in im for j in im for l, e in enumerate(rows[i][j]) for k, t in e}
    r = {(i, j, k): t for i in full for j in full for k, t in rows[i][j][0]}  # den * T[k; i, j, 0]
    skew_zw = proved("<q(X,Y,Z),W> skew in (Z,W)", (unskewed(zw, lambda i, j, l, k: (i, j, k, l)),))
    return [
        proved("<q(U conj V,Y,V),W> = -<q(W conj V,Y,V),U>", (uw_exchange(v) for v in full)),
        skew_zw,
        proved(
            "<q(X,Y,e_0),Z> fully antisymmetric",
            (unskewed(r, lambda i, j, k: (j, i, k)), unskewed(r, lambda i, j, k: (i, k, j))),
        ),
        recorded("skew (Z,W) on samples", skew_zw.passed),
    ]


def anti_suite(q: QCandidate) -> list:
    """Vanishing pairings <q(X,Y,W), XW> = <q(X,Y,W), Y o W> = 0 and their
    anti-symmetrized (U, V) versions, proved.  The "xyW" slots of
    ``octonion.symbolic_octets`` are the layout of ``q.tensor``, so
    q(X, Y, W) is the tensor.  A pairing is Q(W) = B(W, W), and its (U, V)
    version B(U, V) + B(V, U) is sum_b v_b dQ/dw_b at W = U: in the "xyUV"
    layout U holds W's variables, so ``MultiPoly.polarised`` re-keys Q's
    terms into it, with no product.  "vanishing pairings on samples" is the
    verdict of the first two under its schema-v1 name (``recorded``)."""
    dim = q.dim
    xs, ys, ws = on.symbolic_octets(dim, "xyW")
    v1, v2 = on.inner(q.tensor, on.multiply(xs, ws)), on.inner(q.tensor, circ(q.nom, ys, ws))
    a1, a2 = (v.polarised(2 * (dim - 1), dim) for v in (v1, v2))
    w1, w2 = proved("<q(X,Y,W),XW> = 0", [v1]), proved("<q(X,Y,W),Y o W> = 0", [v2])
    return [
        w1,
        w2,
        proved("<q(X,Y,U),XV> + <q(X,Y,V),XU> = 0", [a1]),
        proved("<q(X,Y,U),Y o V> + <q(X,Y,V),Y o U> = 0", [a2]),
        recorded("vanishing pairings on samples", w1.passed and w2.passed),
    ]


def norm_identity_check(q: QCandidate) -> bool:
    """|q(X,Y,Z)|^2 = |X(Y o Z) - Y o (XZ)|^2 as a polynomial identity, with
    the right side read off the table of the FKM candidate at q's nom,
    ``q.reference`` when q has one.  Equal components prove it at once (so
    an FKM candidate squares nothing); otherwise |q|^2 - |r|^2 is one
    product, sum_k (q_k - r_k)(q_k + r_k), over the components that
    differ."""
    ref = (q.reference or fkm_candidate(q.nom)).tensor
    if q.tensor == ref:
        return True
    return on.inner([a - b for a, b in zip(q.tensor, ref)], [a + b for a, b in zip(q.tensor, ref)]).is_zero()


def good_identity_check(q: QCandidate) -> bool:
    """|q(X,X,Z)|^2 = sin^2(2 theta) |X((XZ)e) - (X(XZ))e|^2 for unit
    imaginary X perpendicular to the axis e (symbolic in Z); at the theta=0/pi
    endpoints q(X,X,Z) vanishes identically.  q(X, X, Z) is contracted
    from ``q.table``."""
    dim = q.dim
    ta = theta_axis(q.nom.alpha)
    if ta.degenerate:
        xs, _, zs = on.symbolic_octets(dim, "xyZ")
        return on.norm_sq(q.table.contract(xs, xs, zs)).is_zero()
    _, s2 = cos_sin_2theta(q.nom)
    e = ta.axis
    nvz = dim
    zs = tuple(MultiPoly.variable(nvz, i) for i in range(dim))
    perp = [i for i in range(1, dim) if on.inner(on.basis(i, dim), e) == 0]
    units = [on.basis(i, dim) for i in perp]
    if len(perp) >= 2:
        i, j = perp[0], perp[1]
        units.append(
            on.add(on.scale(Fraction(3, 5), on.basis(i, dim)), on.scale(Fraction(4, 5), on.basis(j, dim)))
        )
    for x in units:
        val = on.norm_sq(q.table.contract(x, x, zs))
        xz = on.multiply(x, zs)
        ref = on.sub(on.multiply(x, on.multiply(xz, e)), on.multiply(on.multiply(x, xz), e))
        if not (val - s2 * s2 * on.norm_sq(ref)).is_zero():
            return False
    return True


# ---------------------------------------------------------------------------
# the c = -1 obstruction witnesses
# ---------------------------------------------------------------------------


def obstruction_c_minus_one(dim: int, x: tuple, y: tuple, w: tuple) -> Fraction:
    """The pairing that kills the hybrid-sign branch.

    Octonions: h(X, Y, W) = -4 (Im W) e with e = XY (error if X, Y are not
    orthonormal imaginary); returns <h, XW>, which is 4<X, X - e> = 4 at the
    standard witness W = e_0 + Xe.  Quaternions: returns <W, XY - YX><W, X>.
    """
    if x[0] != 0 or y[0] != 0:
        raise ValueError("X, Y must be purely imaginary")
    if on.norm_sq(x) != 1 or on.norm_sq(y) != 1 or on.inner(x, y) != 0:
        raise ValueError("X, Y must be orthonormal")
    if dim == 4:
        comm = on.sub(on.multiply(x, y), on.multiply(y, x))
        return on.inner(w, comm) * on.inner(w, x)
    e = on.multiply(x, y)
    h = on.scale(Fraction(-4), on.multiply(on.imaginary_part(w), e))
    return on.inner(h, on.multiply(x, w))


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


@dataclass
class Classification:
    label: QLabel
    matches: list
    note: str = ""


def classify_q(q: QCandidate, references: list) -> Classification:
    """Match q against the endpoint candidates ``references`` (OT, FKM-left
    and FKM-right at alpha = e_0, in that order): q matches a reference when
    their cubic components are equal.  Raises ``ValueError`` unless q passes
    its identity batteries (``QCandidate.batteries``); never coerces an
    unmatched candidate."""
    if not q.batteries.passed:
        raise ValueError("classification requires the identity suites to have passed on q")
    matches = [ref.label for ref in references if ref.tensor == q.tensor]
    if not matches:
        return Classification(QLabel.UNKNOWN, [])
    note = ""
    if q.dim == 4 and QLabel.OT_TYPE in matches and QLabel.FKM_LEFT in matches:
        note = "quaternion coincidence: (XY-YX)Z = X(YZ)-Y(XZ), OT and FKM-left agree"
    preferred = q.label if q.label in matches else matches[0]
    return Classification(preferred, matches, note)
