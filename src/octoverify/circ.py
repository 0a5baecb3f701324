"""Normalized orthogonal multiplications x o y on H and O.

Every normalized orthogonal multiplication on the octonions is one of

    left-shifted:  x o y = (x (y conj(alpha))) alpha
    right-shifted: x o y = alpha ((conj(alpha) y) x)

for a unit alpha = cos(theta) e_0 + sin(theta) e.  The angle endpoints map to
(left, e_0) <-> x o y = xy and (right, e_0) <-> x o y = yx; substituting
alpha = -e_0 into the left form still gives xy, so "theta = 0 or pi" is
encoded by the side tag, not by the sign of alpha.

Pythagorean alpha (built from a rational t) keeps every o-product rational.

``circ_definition`` evaluates the three chained octonion products above.  It
is the definition, and it builds each multiplication's table: ``Nom.table``,
an ``octonion.ProductTable`` of the values e_a o e_b on all basis pairs,
built in ints on first use (never at import) and kept on the ``Nom``.  The
octonion product itself is such a table, so for a rational alpha ``circ``
runs the same sparse bilinear kernel as ``octonion.multiply``, once,
instead of three products; at t = 1/2 the table holds 88 nonzeros out of
512 over the denominator 25, and at the endpoints it is a signed
permutation.  A float alpha (the CLI's float mode)
and all-int coordinates keep the three-product definition, so float
residuals are computed exactly as the definition computes them.

The operators U_a(x) = e_a o x and R_a(x) = x o e_a (``left_ops``,
``right_ops``) are the table's ``linalg.Op``s (``ProductTable.ops``), as
the octonion generators J_a, J'_a are the octonion table's, so a float nom
raises TypeError there and at the table; float mode builds U_a from the
definition.  ``nom_from_sharp_blocks`` goes the other way, from ``Op``
blocks A#_a back to a table.

``verify_normalized`` proves |x o y|^2 = |x|^2 |y|^2 in symbolic slots x, y
(``octonion.symbolic_octets``), which covers every basis pair as well.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial

from . import octonion as on
from .report import Report, proved
from .scalars import int_scaled, pythagorean_unit, rational_sqrt, sum_zero


class Side(enum.Enum):
    LEFT = "left"
    RIGHT = "right"


@dataclass(frozen=True)
class NormalizedOrthogonalMultiplication:
    """Side tag plus unit alpha.  The bare constructor does not validate (tests
    use it to build deliberately broken instances); go through make_nom/from_t."""

    side: Side
    alpha: tuple

    @property
    def dim(self) -> int:
        return len(self.alpha)

    @cached_property
    def table(self) -> on.ProductTable:
        """e_a o e_b on all basis pairs: ``circ_definition`` on int basis
        vectors and alpha's ``int_scaled`` numerators over den, which gives
        den^2 e_a o e_b (it is quadratic in alpha), over den^2.  Built on
        first use and kept (the frozen fields it reads never change) and
        shared, so nothing may modify it."""
        den, ints = int_scaled(self.alpha)
        scaled, dim = Nom(self.side, tuple(ints)), self.dim
        e = [tuple(int(j == i) for j in range(dim)) for i in range(dim)]
        return on.ProductTable.of([[circ_definition(scaled, x, y) for y in e] for x in e], den * den)


Nom = NormalizedOrthogonalMultiplication


def make_nom(side: Side, alpha) -> Nom:
    alpha = tuple(Fraction(c) if isinstance(c, int) else c for c in alpha)
    if on.norm_sq(alpha) != 1:
        raise ValueError("alpha must be a unit vector")
    if len(alpha) not in (4, 8):
        raise ValueError("alpha must live in H or O")
    return Nom(side, alpha)


def nom_from_t(side: Side, t: Fraction, axis: int = 4, dim: int = 8) -> Nom:
    """Nom with alpha = c e_0 + s e_axis for the Pythagorean point of t."""
    c, s = pythagorean_unit(Fraction(t))
    alpha = list(on.zero(dim))
    alpha[0] = c
    if s:
        if not 1 <= axis < dim:
            raise ValueError("axis must be an imaginary basis index")
        alpha[axis] = s
    return make_nom(side, tuple(alpha))


def circ_definition(nom: Nom, x, y):
    """x o y as three chained octonion products, over any coefficient ring."""
    a = nom.alpha
    if nom.side is Side.LEFT:
        return on.multiply(on.multiply(x, on.multiply(y, on.conjugate(a))), a)
    return on.multiply(a, on.multiply(on.multiply(on.conjugate(a), y), x))


def circ(nom: Nom, x, y):
    """x o y; works over any coefficient ring in the coordinates of x, y.

    The coordinate types decide the route, through ``scalars.sum_zero`` of
    alpha, x and y, the zero the definition's products come to: a rational
    or polynomial zero runs ``nom.table`` (see ``ProductTable.product``), a
    float or int zero runs ``circ_definition``.  Both return the same values
    in the same slot types."""
    zero = sum_zero(nom.alpha, x, y)
    if isinstance(zero, (int, float)):
        return circ_definition(nom, x, y)
    return nom.table.product(x, y, zero)


def left_ops(nom: Nom) -> list:
    """U_a(x) = e_a o x for a = 1..dim-1 (column b is e_a o e_b)."""
    return list(nom.table.ops[0])


def right_ops(nom: Nom) -> list:
    """R_a(x) = x o e_a for a = 1..dim-1 (column b is e_b o e_a)."""
    return list(nom.table.ops[1])


@dataclass(frozen=True)
class ThetaAxis:
    c: Fraction
    s: Fraction
    axis: tuple
    degenerate: bool  # s == 0: axis is the canonical default e_1


def theta_axis(alpha) -> ThetaAxis:
    """Split unit alpha into cos, sin, and the imaginary unit axis."""
    if on.norm_sq(alpha) != 1:
        raise ValueError("alpha must be a unit vector")
    dim = len(alpha)
    c = alpha[0]
    im = on.imaginary_part(alpha)
    s2 = on.norm_sq(im)
    if s2 == 0:
        return ThetaAxis(Fraction(c), Fraction(0), on.basis(1, dim), True)
    s = rational_sqrt(Fraction(s2))
    if s is None:
        raise ValueError("imaginary part has irrational norm; use a Pythagorean alpha in exact mode")
    axis = tuple(x / s for x in im)
    return ThetaAxis(Fraction(c), s, axis, False)


def cos_sin_2theta(nom: Nom) -> tuple[Fraction, Fraction]:
    ta = theta_axis(nom.alpha)
    return ta.c * ta.c - ta.s * ta.s, 2 * ta.s * ta.c


def verify_normalized(nom: Nom) -> Report:
    """Norm multiplicativity |x o y|^2 = |x|^2 |y|^2, proved in symbolic
    slots x, y (so on every pair, the basis pairs included), e_0 o x = x,
    and the skew Clifford relations of the left operators U_a.  The nom's
    alpha must be rational."""
    from .clifford import verify_skew_rep

    rep = Report("normalized_orthogonal_multiplication")
    dim = nom.dim
    w = proved("norm_multiplicativity", (on.norm_defect(partial(circ, nom), *on.symbolic_octets(dim, "XY")),))
    rep.add(w.identity_name, w.passed, Fraction(w.residual))
    ok_unit = all(circ(nom, on.basis(0, dim), on.basis(b, dim)) == on.basis(b, dim) for b in range(dim))
    rep.add("e0_left_identity", ok_unit)
    sk = verify_skew_rep(left_ops(nom))
    rep.add("left_ops_skew_clifford", sk.passed, sk.max_residual())
    return rep


def nom_from_sharp_blocks(sharp: list) -> on.ProductTable:
    """Rebuild the multiplication table from the mirror-point ``Op`` blocks A#_a.

    Preconditions (each checked, error names the first failure): A#_a is
    skew-symmetric orthogonal, the family pairwise Clifford-anticommutes, and
    A#_a(e_0) = e_a.
    """
    from .clifford import verify_skew_rep

    m = len(sharp)
    dim = m + 1
    for a, mat in enumerate(sharp, start=1):
        if len(mat.rows) != dim or mat.ncols != dim:
            raise ValueError(f"A#_{a} has wrong size (expected {dim}x{dim})")
        if mat.T != -mat:
            raise ValueError(f"A#_{a} is not skew-symmetric")
    sk = verify_skew_rep(sharp)
    if not sk.passed:
        raise ValueError(f"A# blocks fail skew Clifford relations: {sk.failing()}")
    columns = [[tuple(mat.apply(on.basis(b, dim))) for b in range(dim)] for mat in sharp]
    for a, cols in enumerate(columns, start=1):
        if cols[0] != on.basis(a, dim):
            raise ValueError(f"A#_{a}(e_0) != e_{a}")
    return on.ProductTable.of([[on.basis(b, dim) for b in range(dim)]] + columns)


def comparison_check(nom: Nom, a, b) -> Report:
    """Angle-comparison identity for a left-shifted nom on orthonormal
    imaginary a, b: if ab is parallel to the axis, a o b = ab; if a, b, ab are
    all perpendicular to the axis, a o b = cos(2 theta) ab + sin(2 theta)(ab)e.
    Configurations matching neither branch are an error."""
    rep = Report("comparison_identity")
    if nom.side is not Side.LEFT:
        raise ValueError("comparison formula applies to left-shifted noms")
    dim = nom.dim
    if a[0] != 0 or b[0] != 0 or on.norm_sq(a) != 1 or on.norm_sq(b) != 1 or on.inner(a, b) != 0:
        raise ValueError("a, b must be orthonormal purely imaginary")
    ta = theta_axis(nom.alpha)
    ab = on.multiply(a, b)
    got = circ(nom, a, b)
    c2, s2 = cos_sin_2theta(nom)
    axis = ta.axis
    parallel = on.sub(ab, on.scale(on.inner(ab, axis), axis)) == on.zero(dim)
    perp = (
        on.inner(a, axis) == 0
        and on.inner(b, axis) == 0
        and on.inner(ab, axis) == 0
    )
    if ta.degenerate or perp:
        want = on.add(on.scale(c2, ab), on.scale(s2, on.multiply(ab, axis)))
        diff = on.sub(got, want)
        rep.add("perpendicular_branch", diff == on.zero(dim), max(abs(x) for x in diff))
        return rep
    if parallel:
        diff = on.sub(got, ab)
        rep.add("parallel_branch_ab", diff == on.zero(dim), max(abs(x) for x in diff))
        return rep
    raise ValueError("configuration not covered by either comparison branch")
