"""Command-line entry point: suite orchestration and machine-readable reports.

An identity that a suite states as the values that must vanish is proved
with ``report.proved`` in symbolic slots.  Where a report entry records a
sample count (the algebra suite's ``trials``, or a witness's ``instances``
of 25), the count is the schema-v1 record of a check that once valued its
residuals at seeded points; the proof implies it.  Exact mode draws
nothing: ``--seed`` and ``--trials`` are only recorded in ``config`` (and
``--trials`` in those counts), and the Muenzner suite's agreement entry
records the verdict of the exact proof that it once re-checked at seeded
points.  Float mode's norm check draws its points from
``random.Random(seed)``.

Exit codes: 0 all selected suites pass, 1 at least one identity fails (or a
suite raised, which its report records as a failing check), 2 configuration
error (an unknown option, a bad value, or an ``--out`` or ``--dump-poly``
path that cannot be opened for writing, found before anything runs).
Reports are deterministic for a fixed config except for the top-level
"timing" object."""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from contextlib import ExitStack
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property, partial

from . import __version__
from . import octonion as on
from .circ import (
    Nom,
    Side,
    circ,
    comparison_check,
    left_ops,
    nom_from_sharp_blocks,
    nom_from_t,
    theta_axis,
    verify_normalized,
)
from .clifford import (
    delta_dimension,
    find_intertwiner,
    normalize_a_system,
    refined_residual,
    verify_skew_rep,
    verify_symmetric_system,
    volume_sign,
)
from .identities import (
    QCandidate,
    QLabel,
    classify_q,
    crucial_classify,
    exchange_suite,
    fkm_candidate,
    good_identity_check,
    obstruction_c_minus_one,
    ot_candidate,
    r_form,
)
from .linalg import Op
from .mirror import (
    EigenDecomp,
    assemble_star_blocks,
    mirror_points,
    p_star,
    sharp_from_q0,
    star_blocks_identity_check,
    trilinearity_extract,
    verify_ot_equations,
)
from .poly import MultiPoly, Rt2Poly, monomial_key, munzner_verify
from .report import SCHEMA_VERSION, Report, encode_value, proved
from .systems import (
    FkmSystem,
    OtSystem,
    blocks_from_forms,
    build_fkm_system,
    build_ot_system,
    condition_a_check,
    condition_b_check,
    extract_expansion_forms,
    fkm_formula_forms,
    fkm_mirror_frame,
    fkm_polynomial,
    focal_check,
    ot_display_report,
    ot_plus_frame,
    perturb_mirror,
    second_form_at_focal,
)

ALL_SUITES = ("algebra", "clifford", "nom", "munzner", "mirror", "identities", "classify")


@dataclass
class RunConfig:
    algebra: str = "octonion"  # "quaternion" | "octonion"
    side: str = "left"  # "left" | "right"
    alpha_t: Fraction | None = Fraction(0)
    theta: float | None = None  # float mode only
    mode: str = "exact"  # "exact" | "float"
    tol: float = 1e-9
    seed: int = 0
    suites: tuple = ALL_SUITES
    trials: int = 1000
    jobs: int = 1

    def validate(self) -> None:
        if self.algebra not in ("quaternion", "octonion"):
            raise ValueError(f"unknown algebra {self.algebra!r}")
        if self.side not in ("left", "right"):
            raise ValueError(f"unknown side {self.side!r}")
        if self.mode not in ("exact", "float"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "exact" and self.alpha_t is None:
            raise ValueError("exact mode requires a rational --alpha-t")
        if self.mode == "exact" and self.theta is not None:
            raise ValueError("--theta requires float mode; exact mode reads --alpha-t")
        if self.mode == "float" and self.theta is None and self.alpha_t is None:
            raise ValueError("float mode requires --theta or --alpha-t")
        if self.mode == "float" and not self.tol > 0:
            raise ValueError("float mode requires --tol > 0")
        if self.theta is not None and not math.isfinite(self.theta):
            raise ValueError("--theta must be finite")
        if not math.isfinite(self.tol):
            raise ValueError("--tol must be finite")
        bad = [s for s in self.suites if s not in ALL_SUITES]
        if bad:
            raise ValueError(f"unknown suites: {bad}")
        if not self.suites:
            raise ValueError("no suites selected")
        repeated = sorted({s for s in self.suites if self.suites.count(s) > 1})
        if repeated:
            raise ValueError(f"repeated suites: {repeated}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")

    @property
    def dim(self) -> int:
        return 4 if self.algebra == "quaternion" else 8

    def build_nom(self) -> Nom:
        side = Side.LEFT if self.side == "left" else Side.RIGHT
        if self.mode == "exact":
            axis = 4 if self.dim == 8 else 1
            return nom_from_t(side, Fraction(self.alpha_t), axis=axis, dim=self.dim)
        th = self.theta if self.theta is not None else 2 * math.atan(float(self.alpha_t))
        alpha = [0.0] * self.dim
        alpha[0] = math.cos(th)
        alpha[4 if self.dim == 8 else 1] = math.sin(th)
        return Nom(side, tuple(alpha))

    def to_json(self) -> dict:
        return {
            "algebra": self.algebra,
            "side": self.side,
            "alpha_t": encode_value(self.alpha_t) if self.alpha_t is not None else None,
            "theta": self.theta,
            "mode": self.mode,
            "tol": self.tol,
            "seed": self.seed,
            "suites": list(self.suites),
            "trials": self.trials,
            "jobs": self.jobs,
        }


class RunContext:
    """What one run builds once and its suites share: the configured nom, the
    q* candidates (with their coefficient tables and battery verdicts), the
    FKM and OT systems and their polynomials ``F``.

    No consumer mutates a system or an ``F`` (munzner, mirror, classify and
    ``--dump-poly`` only read operators, splits, frames and terms), so one
    copy serves them all.  Each ``F`` is kept from its first consumer to the
    end of the run; the run's heap peak, about 2 MB at d = 8, is set by the
    temporaries of the munzner and identities proofs, not by what it holds."""

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self._candidates: dict = {}

    @cached_property
    def nom(self) -> Nom:
        return self.cfg.build_nom()

    def candidate(self, kind: str, nom: Nom | None = None) -> QCandidate:
        """``fkm_candidate(nom)`` for kind "fkm", ``ot_candidate`` of the
        configured dimension for "ot", with the FKM candidate at its nom as
        its ``reference``; built once per (kind, nom)."""
        key = (kind, nom)
        cand = self._candidates.get(key)
        if cand is None:
            if kind == "fkm":
                cand = fkm_candidate(nom)
            else:
                cand = ot_candidate(self.cfg.dim)
                cand.reference = self.candidate("fkm", cand.nom)
            self._candidates[key] = cand
        return cand

    @cached_property
    def fkm(self) -> FkmSystem:
        return build_fkm_system(self.nom)

    @cached_property
    def ot(self) -> OtSystem:
        return build_ot_system(self.cfg.dim)

    @cached_property
    def fkm_poly(self) -> MultiPoly:
        return fkm_polynomial(self.fkm.system)

    @cached_property
    def ot_poly(self) -> MultiPoly:
        return fkm_polynomial(self.ot.system)


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def quaternion_slots(dim: int, names: str) -> tuple:
    """``on.symbolic_octets(4, names)``, each element padded with zeros to
    ``dim`` coordinates: symbolic slots that span the quaternion sub-span."""
    return tuple(v + (Fraction(0),) * (dim - 4) for v in on.symbolic_octets(4, names))


def suite_algebra(cfg: RunConfig, ctx: RunContext) -> Report:
    rep = Report("algebra")
    dim = cfg.dim
    from .octonion import cayley_dickson_multiply

    e = on.int_basis(8)
    ok = all(on.multiply(a, b) == cayley_dickson_multiply(a, b) for a in e for b in e)
    rep.add("table_matches_cayley_dickson_oracle", ok, detail={"pairs": 64})

    # ``trials`` is the schema-v1 record of these two proofs (see the module
    # docstring)
    x, y = on.symbolic_octets(dim, "XY")
    w = proved("norm_multiplicativity", [on.norm_defect(on.multiply, x, y)])
    rep.add(w.identity_name, w.passed, Fraction(w.residual), detail={"trials": cfg.trials})

    x, y, z = on.symbolic_octets(dim, "XYZ")
    w = proved(
        "exchange_identities",
        [on.inner(on.conjugate(x), on.conjugate(y)) - on.inner(x, y), *on.exchange_defects(on.multiply, x, y, z)],
    )
    rep.add(w.identity_name, w.passed, Fraction(w.residual), detail={"trials": cfg.trials})

    # xy = -yx, x(yz) = -y(xz) and (zx)y = -(zy)x for perpendicular imaginary
    # x, y, proved in polarised form: for all imaginary x, y the three sums
    # are -2<x,y> e_0, -2<x,y> z and -2<x,y> z
    x, y, z = on.symbolic_octets(dim, "xyZ")
    twice = 2 * on.inner(x, y)
    w = proved(
        "perpendicular_imaginary_rules",
        (
            *on.add(on.add(on.multiply(x, y), on.multiply(y, x)), on.scale(twice, on.basis(0, dim))),
            *on.add(on.add(on.multiply(x, on.multiply(y, z)), on.multiply(y, on.multiply(x, z))), on.scale(twice, z)),
            *on.add(on.add(on.multiply(on.multiply(z, x), y), on.multiply(on.multiply(z, y), x)), on.scale(twice, z)),
        ),
    )
    rep.add(w.identity_name, w.passed, Fraction(w.residual))

    j = on.j_generators(dim)
    jp = on.j_prime_generators(dim)
    rep.add("j_skew_clifford", verify_skew_rep(j).passed)
    rep.add("j_prime_skew_clifford", verify_skew_rep(jp).passed)
    rep.add("volume_sign_left", volume_sign(j) == -1)
    rep.add("volume_sign_right", volume_sign(jp) == 1)

    x, y, z = quaternion_slots(dim, "XYZ")
    w = proved(
        "quaternion_subspan_closed_associative",
        (
            *on.multiply(x, y)[4:],
            *on.sub(on.multiply(on.multiply(x, y), z), on.multiply(x, on.multiply(y, z))),
        ),
    )
    rep.add(w.identity_name, w.passed, Fraction(w.residual))
    return rep


def change_of_basis(dim: int) -> Op:
    """The fixed rational orthogonal O whose A-system O J_a the clifford
    suite normalizes: left multiplication by the unit u = (3, 1, ..., 1)/4
    at d = 8, or (1, 1, 1, 1)/2 at d = 4.  Every entry of O is nonzero, so
    the normalization starts from none of J's zeros."""
    u = (Fraction(3, 4),) + (Fraction(1, 4),) * 7 if dim == 8 else (Fraction(1, 2),) * 4
    return on.left_mult_matrix(u)


def suite_clifford(cfg: RunConfig, ctx: RunContext) -> Report:
    rep = Report("clifford")
    dim = cfg.dim
    table = [delta_dimension(m) for m in range(1, 9)]
    rep.add("delta_table", table == [1, 2, 4, 4, 8, 8, 8, 8], detail={"values": table})
    rep.add("delta_periodicity", delta_dimension(9) == 16 and delta_dimension(15) == 16 * 8)
    rep.add(
        "multiplicity_formula",
        2 * delta_dimension(7) - 7 - 1 == 8 and 2 * delta_dimension(3) - 3 - 1 == 4,
    )

    j = on.j_generators(dim)
    jp = on.j_prime_generators(dim)
    bad = verify_skew_rep([j[0], j[0]])
    rep.add("duplicate_generator_fails", not bad.passed)

    o = change_of_basis(dim)
    a_sys = [o @ ja for ja in j]
    norm = normalize_a_system(a_sys)
    wit = verify_skew_rep(norm.witness[:-1])
    rep.add("first_stage_witness_skew", wit.passed)
    rep.add("first_stage_last_generator_identity", norm.witness[-1] == Op.identity(dim))
    res = refined_residual(norm, a_sys)
    rep.add("refined_stage_residual", res == 0, res)

    rep.add("j_vs_jprime_not_equivalent", not find_intertwiner(j, jp).found)
    self_res = find_intertwiner(j, j)
    rep.add("self_intertwiner_found", self_res.found)
    return rep


def suite_nom(cfg: RunConfig, ctx: RunContext) -> Report:
    rep = Report("nom")
    dim = cfg.dim
    nom = ctx.nom
    vn = verify_normalized(nom)
    rep.add("verify_normalized", vn.passed, vn.max_residual())

    ta = theta_axis(nom.alpha)
    rep.add("theta_axis_consistent", ta.c * ta.c + ta.s * ta.s == 1, detail={"degenerate": ta.degenerate})

    if dim == 8 and nom.side is Side.LEFT:
        cc = comparison_check(nom, on.basis(1, 8), on.basis(2, 8))
        rep.add("comparison_perpendicular", cc.passed)
        if not ta.degenerate:
            x = on.basis(1, 8)
            y = on.neg(on.basis(5, 8))  # e_1 * (-e_5) = e_4 = default axis
            cc2 = comparison_check(nom, x, y)
            rep.add("comparison_parallel", cc2.passed)

    rebuilt = nom_from_sharp_blocks(left_ops(nom))
    rep.add("sharp_blocks_round_trip", rebuilt.entries == nom.table.entries)

    w = proved("circ_exchange_identities", on.exchange_defects(partial(circ, nom), *on.symbolic_octets(dim, "XYZ")))
    rep.add(w.identity_name, w.passed, Fraction(w.residual))

    # the quaternionic restriction needs alpha inside the quaternion sub-span
    hnom = nom_from_t(nom.side, Fraction(cfg.alpha_t), axis=1, dim=dim)
    x, y = quaternion_slots(dim, "XY")
    w = proved(
        "quaternionic_restriction",
        on.sub(circ(hnom, x, y), on.multiply(x, y) if hnom.side is Side.LEFT else on.multiply(y, x)),
    )
    rep.add(w.identity_name, w.passed, Fraction(w.residual))
    return rep


def _munzner_multiplicities(dim: int, n_ops: int) -> tuple[int, int]:
    # FKM convention on R^{2l}: m1 = (#ops - 1), m2 = l - m1 - 1; reported
    # sorted so that m2 = m1 + 1.
    l = 2 * dim
    m = n_ops - 1
    m1, m2 = m, l - m - 1
    return (min(m1, m2), max(m1, m2))


def suite_munzner(cfg: RunConfig, ctx: RunContext) -> Report:
    rep = Report("munzner")
    fkm = ctx.fkm
    vs = verify_symmetric_system(fkm.system)
    rep.add("fkm_clifford_relations", vs.passed, vs.max_residual())
    f = ctx.fkm_poly
    rep.add("fkm_polynomial_degree4", f.is_homogeneous(4))
    m1, m2 = _munzner_multiplicities(cfg.dim, len(fkm.system.operators))
    mv = munzner_verify(f, 4, m1, m2)
    rep.add("fkm_munzner_exact", mv.passed, detail={c.name: c.detail for c in mv.checks})
    # the schema-v1 entry of a sampled re-check of the same PDEs (see the
    # module docstring)
    rep.add("fkm_munzner_randomized_agrees", mv.passed)

    frame = fkm_mirror_frame(fkm)
    rep.add("fkm_mirror_point_focal", focal_check(fkm.system, frame.point))
    rep.add("fkm_polynomial_at_focal_rep", f.eval(list(frame.point.coords)) == 4)

    ot = ctx.ot
    vso = verify_symmetric_system(ot.system)
    rep.add("ot_clifford_relations", vso.passed, vso.max_residual())
    fo = ctx.ot_poly
    m1o, m2o = _munzner_multiplicities(cfg.dim, len(ot.system.operators))
    mvo = munzner_verify(fo, 4, m1o, m2o)
    rep.add("ot_munzner_exact", mvo.passed, detail={c.name: c.detail for c in mvo.checks})
    rep.add("ot_point_focal", focal_check(ot.system, ot_plus_frame(ot).point))
    return rep


def suite_mirror(cfg: RunConfig, ctx: RunContext) -> Report:
    rep = Report("mirror")
    dim = cfg.dim
    nom = ctx.nom
    fkm = ctx.fkm

    sf = second_form_at_focal(fkm)
    rep.add("second_form_matrix_vs_formula", sf.passed)

    frame = fkm_mirror_frame(fkm)
    forms = extract_expansion_forms(ctx.fkm_poly, frame)
    formula = fkm_formula_forms(nom)
    rep.add("extracted_p_matches_formula", all((a - b).is_zero() for a, b in zip(forms.p, formula, strict=True)))
    rep.add("q_original_component_vanishes", forms.q[0].is_zero())

    m1 = dim - 1
    qt = trilinearity_extract(forms.q, (m1, m1, dim))
    closed = ctx.candidate("fkm", nom).tensor
    same = qt == closed
    negd = qt == tuple(-f for f in closed)
    rep.add("extracted_q_matches_closed_form", same or negd, detail={"global_sign": 1 if same else (-1 if negd else 0)})

    rep.merge(verify_ot_equations(formula, closed))

    cb = condition_b_check(fkm.system, frame, formula, forms.q)
    rep.add("condition_b_at_x_star", cb.passed, detail={"failing": cb.failing()})

    theta0 = nom.alpha == on.basis(0, dim) and nom.side is Side.LEFT
    if theta0:
        ot_q_forms = [Rt2Poly.zero(forms.nvars)] + [Rt2Poly.rational(p) for p in ctx.candidate("ot").tensor]
        cb_ot = condition_b_check(fkm.system, frame, formula, ot_q_forms)
        if dim == 8:
            rep.add("ot_q_fails_condition_b_at_x_star", not cb_ot.passed)
        else:
            rep.add("ot_q_passes_condition_b_quaternion", cb_ot.passed)

    ot = ctx.ot
    disp, ot_forms, ot_frame = ot_display_report(ot, ctx.ot_poly)
    rep.add("ot_displays", disp.passed, detail={"failing": disp.failing()})
    blocks = blocks_from_forms(ot_forms.p, dim, dim, dim - 1)
    ca = condition_a_check(blocks)
    rep.add("ot_condition_a", ca.passed)
    cbo = condition_b_check(ot.system, ot_frame, ot_forms.p, ot_forms.q)
    rep.add("ot_condition_b_at_x_plus", cbo.passed)
    try:
        trilinearity_extract(ot_forms.q, (dim, dim, dim - 1))
        tri_err = False
    except ValueError:
        tri_err = True
    rep.add("ot_third_form_not_trilinear_at_x_plus", tri_err)

    zero = on.zero(dim)
    d = dim
    x_pt = fkm.split.join(zero, zero, on.neg(on.basis(0, d)), zero)
    n_pt = fkm.split.join(zero, on.basis(0, d), zero, zero)
    mf = mirror_points(x_pt, n_pt)
    rep.add("mirror_point_matches_frame", mf.x_star.coords == frame.point.coords)

    j4 = on.j_generators(d)
    sharp = left_ops(nom)
    b_star, c_star = assemble_star_blocks(j4, sharp)
    ok_zero_col = all(a - 1 not in row for a in range(1, d) for row in b_star[a - 1].rows)
    rep.add("bstar_ath_column_zero", ok_zero_col)
    gram = star_blocks_identity_check(b_star, c_star)
    rep.add("star_blocks_gram", gram.passed)

    q0 = MultiPoly(2 * d + (d - 1))
    for a, m in enumerate(sharp, start=1):
        for alpha, row in enumerate(m.rows):
            for mu, x in row.items():
                key = monomial_key(alpha, d + mu, 2 * d + a - 1)
                q0 = q0 + MultiPoly(2 * d + (d - 1), {key: Fraction(2 * x, m.den)})
    rec = sharp_from_q0(q0, d - 1)
    rep.add("sharp_from_q0_round_trip", rec == sharp)

    x_val = p_star(nom, EigenDecomp(on.basis(1, d), zero, on.basis(0, d)))
    rep.add(
        "p_star_spot_value",
        x_val.p_minus1 == 1 and x_val.p_vec.coords == on.neg(on.basis(1, d)) and x_val.p_vec.half == 1,
    )
    return rep


def suite_identities(cfg: RunConfig, ctx: RunContext) -> Report:
    rep = Report("identities")
    dim = cfg.dim
    nom = ctx.nom
    cands = [("fkm", ctx.candidate("fkm", nom)), ("ot", ctx.candidate("ot"))]
    for name, cand in cands:
        b = cand.batteries
        for battery, wl in (("exchange", b.exchange), ("skew", b.skew), ("anti", b.anti)):
            rep.add(f"{name}_{battery}_battery", all(w.passed for w in wl), detail={"witnesses": [w.to_json() for w in wl]})
        rep.add(f"{name}_norm_identity", b.norm)
    rep.add("fkm_good_identity", good_identity_check(cands[0][1]))

    fkmc = cands[0][1]
    ta = theta_axis(nom.alpha)
    if dim == 8 and not ta.degenerate:
        cc = crucial_classify(fkmc, on.basis(1, 8), on.basis(2, 8))
        rep.add("r_classification_perpendicular", cc.passed)
        cc2 = crucial_classify(fkmc, on.basis(1, 8), on.neg(on.basis(5, 8)))
        rep.add("r_classification_parallel", cc2.passed)
    left_end = ctx.candidate("fkm", Nom(Side.LEFT, on.basis(0, dim)))
    right_end = ctx.candidate("fkm", Nom(Side.RIGHT, on.basis(0, dim)))
    ok_l = all(
        r_form(left_end, on.basis(i, dim), on.basis(j, dim))
        == on.sub(
            on.multiply(on.basis(i, dim), on.basis(j, dim)),
            on.multiply(on.basis(j, dim), on.basis(i, dim)),
        )
        for i in range(1, dim)
        for j in range(1, dim)
    )
    ok_r = all(
        r_form(right_end, on.basis(i, dim), on.basis(j, dim)) == on.zero(dim)
        for i in range(1, dim)
        for j in range(1, dim)
    )
    rep.add("cor69_endpoints", ok_l and ok_r)

    bad = QCandidate(QLabel.CUSTOM, nom, lambda X, Y, Z: on.multiply(on.multiply(X, Y), Z))
    rep.add("unsymmetrized_candidate_fails", not all(w.passed for w in exchange_suite(bad)))

    if dim == 8:
        x, y = on.basis(1, 8), on.basis(2, 8)
        w = on.add(on.basis(0, 8), on.multiply(x, on.multiply(x, y)))
        val = obstruction_c_minus_one(8, x, y, w)
        rep.add("obstruction_octonion_value_4", val == 4, detail={"value": val})
        w2 = on.basis(4, 8)
        rep.add("obstruction_orthogonal_case_0", obstruction_c_minus_one(8, x, y, w2) == 0)
    xq = on.basis(1, 4)
    yq = on.basis(2, 4)
    wq = on.add(on.basis(1, 4), on.basis(3, 4))
    rep.add("obstruction_quaternion_value_2", obstruction_c_minus_one(4, xq, yq, wq) == 2)
    return rep


def suite_classify(cfg: RunConfig, ctx: RunContext) -> Report:
    rep = Report("classify")
    dim = cfg.dim
    otc = ctx.candidate("ot")
    leftc = ctx.candidate("fkm", Nom(Side.LEFT, on.basis(0, dim)))
    rightc = ctx.candidate("fkm", Nom(Side.RIGHT, on.basis(0, dim)))
    refs = [otc, leftc, rightc]
    cls = classify_q(otc, refs)
    rep.add("classify_ot", cls.label is QLabel.OT_TYPE, detail={"matches": [m.value for m in cls.matches], "note": cls.note})
    if dim == 4:
        rep.add("quaternion_coincidence_reported", bool(cls.note))

    rep.add("classify_fkm_left", classify_q(leftc, refs).label is QLabel.FKM_LEFT)
    rep.add("classify_fkm_right", classify_q(rightc, refs).label is QLabel.FKM_RIGHT)

    nom = ctx.nom
    if nom.alpha != on.basis(0, dim):
        cls_c = classify_q(ctx.candidate("fkm", nom), refs)
        rep.note(f"config nom classifies as {cls_c.label.value} before perturbation")

    pm = perturb_mirror(ctx.fkm)
    branch = next((c.detail for c in pm.checks if c.name == "second_form_branch_identity"), None)
    rep.add("perturbation_branch_verified", pm.passed, detail={"branch": branch})
    return rep


def suite_nom_float(cfg: RunConfig, ctx: RunContext) -> Report:
    """Float-theta verification: residual-based versions of the nom checks."""
    import random as _random

    rep = Report("nom")
    dim = cfg.dim
    nom = ctx.nom
    tol = cfg.tol
    pr = _random.Random(cfg.seed)

    def rand_o():
        return tuple(pr.uniform(-1, 1) for _ in range(dim))

    o = partial(circ, nom)
    worst = 0.0
    for _ in range(min(cfg.trials, 200)):
        x, y = rand_o(), rand_o()
        worst = max(worst, abs(on.norm_defect(o, x, y)))
    rep.add("norm_multiplicativity_residual", worst <= tol * 100, worst)
    worst = 0.0
    for b in range(dim):
        v = circ(nom, on.basis(0, dim), tuple(float(c) for c in on.basis(b, dim)))
        worst = max(worst, max(abs(v[r] - (1.0 if r == b else 0.0)) for r in range(dim)))
    rep.add("e0_identity_residual", worst <= tol, worst)
    # U_a[i][k] = <e_a o e_k, e_i>, read off the float table for a = 1..dim-1
    ops = nom.table.entries[1:]
    worst = 0.0
    for a in range(len(ops)):
        for b in range(a, len(ops)):
            for i in range(dim):
                for j in range(dim):
                    s = sum(ops[a][k][i] * ops[b][j][k] + ops[b][k][i] * ops[a][j][k] for k in range(dim))
                    want = -2.0 if (i == j and a == b) else 0.0
                    worst = max(worst, abs(s - want))
    rep.add("left_ops_clifford_residual", worst <= tol * 10, worst)
    return rep


SUITE_FUNCS = {
    "algebra": suite_algebra,
    "clifford": suite_clifford,
    "nom": suite_nom,
    "munzner": suite_munzner,
    "mirror": suite_mirror,
    "identities": suite_identities,
    "classify": suite_classify,
}

_FLOAT_SUITE_FUNCS = {
    "algebra": suite_algebra,
    "clifford": suite_clifford,
    "nom": suite_nom_float,
}


def contained(name: str, build) -> Report:
    """``build()``, or, if it raises, the report ``name`` with one failing
    check ``completed`` whose detail names the exception (its traceback goes
    to stderr)."""
    try:
        return build()
    except Exception as e:
        import traceback  # imported here, so that start-up does not pay for it

        traceback.print_exc()
        r = Report(name)
        r.add("completed", False, detail=f"{type(e).__name__}: {e}")
        return r


def run(cfg: RunConfig, ctx: RunContext | None = None) -> tuple[dict, int]:
    """Execute the selected suites, sharing ``ctx`` (a fresh RunContext by
    default); returns (report dict, exit code).

    An exception raised inside a suite does not end the run: that suite's
    report becomes one failing check ``completed`` (see ``contained``), and
    the remaining suites still run."""
    try:
        cfg.validate()
    except ValueError as e:
        return {"schema_version": SCHEMA_VERSION, "error": str(e)}, 2
    t0 = time.perf_counter()
    ctx = ctx or RunContext(cfg)
    suite_reports = []
    suite_s = {}
    all_pass = True
    for name in cfg.suites:
        ts = time.perf_counter()
        fn = (_FLOAT_SUITE_FUNCS if cfg.mode == "float" else SUITE_FUNCS).get(name)
        if fn is None:
            r = Report(name)
            r.note("skipped: suite requires exact mode")
        else:
            r = contained(name, partial(fn, cfg, ctx))
        suite_reports.append(r)
        all_pass = all_pass and r.passed
        suite_s[name] = round(time.perf_counter() - ts, 3)
    out = {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "octoverify", "version": __version__},
        "config": cfg.to_json(),
        "suites": [r.to_json() for r in suite_reports],
        "pass": all_pass,
        "timing": {"total_s": round(time.perf_counter() - t0, 3), "suites": suite_s},
    }
    return out, 0 if all_pass else 1


def sweep_point(cfg: RunConfig, name: str) -> Report:
    """The sweep's perturbation report ``name`` at ``cfg``'s t, from its own
    ``RunContext``."""
    ctx = RunContext(cfg)
    rep = Report(name)
    vn = verify_normalized(ctx.nom)
    rep.add("verify_normalized", vn.passed)
    vs = verify_symmetric_system(ctx.fkm.system)
    rep.add("clifford_relations", vs.passed)
    pm = perturb_mirror(ctx.fkm)
    branch = next((c.detail for c in pm.checks if c.name == "second_form_branch_identity"), None)
    rep.add("perturb_mirror", pm.passed, detail=branch)
    return rep


def sweep_theta(cfg: RunConfig, t_values: list) -> tuple[list, int]:
    """One ``sweep_point`` report per rational t; exact mode only.

    Like a suite in ``run``, a t whose report raises gets one failing check
    ``completed`` (see ``contained``), and the other t's still run."""
    if cfg.mode != "exact":
        raise ValueError("sweep requires exact mode")
    reports = []
    worst = 0
    for t in t_values:
        sub = replace(cfg, alpha_t=Fraction(t))
        sub.validate()
        name = f"sweep_t={t}"
        rep = contained(name, partial(sweep_point, sub, name))
        reports.append(rep)
        if not rep.passed:
            worst = 1
    out = [
        {
            "schema_version": SCHEMA_VERSION,
            "config": {**cfg.to_json(), "alpha_t": encode_value(Fraction(t))},
            "suites": [r.to_json()],
            "pass": r.passed,
        }
        for t, r in zip(t_values, reports)
    ]
    return out, worst


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def rational(text: str) -> Fraction:
    """``Fraction(text)``, with a zero denominator raised as ``ValueError``
    (argparse turns that, as a ``type=`` callable, into a usage error)."""
    try:
        return Fraction(text)
    except ZeroDivisionError as e:
        raise ValueError(f"zero denominator in {text!r}") from e


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="octoverify",
        description="Exact verification of octonion/Clifford isoparametric identities",
    )
    p.add_argument("--algebra", choices=["quaternion", "octonion"], default="octonion")
    p.add_argument("--side", choices=["left", "right"], default="left")
    p.add_argument("--alpha-t", type=rational, default=Fraction(0), metavar="RAT", help="rational t parametrizing alpha (exact mode)")
    p.add_argument("--theta", type=float, default=None, help="float-mode angle theta")
    p.add_argument("--mode", choices=["exact", "float"], default="exact")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--seed", type=int, default=0, help="float mode: seed of the norm check's points; exact mode records it only")
    p.add_argument("--suites", default=",".join(ALL_SUITES), help="comma-separated subset of " + ",".join(ALL_SUITES))
    p.add_argument(
        "--trials",
        type=int,
        default=1000,
        help="float mode: random points of the norm check (at most 200); "
        "exact mode proves every identity and only records this count",
    )
    p.add_argument("--out", default=None, help="write the JSON report here instead of stdout")
    p.add_argument("--dump-poly", default=None, metavar="PATH", help="dump the FKM polynomial for the configured system")
    p.add_argument("--jobs", type=int, default=1, help="worker count hint (suites are cheap; accepted for interface stability)")
    p.add_argument("--sweep-t", default=None, metavar="LIST", help="comma-separated rational t values: run the theta sweep")
    return p


def main(argv: list | None = None) -> int:
    args = build_parser().parse_args(argv)
    with ExitStack() as files:
        try:
            suites = tuple(s.strip() for s in args.suites.split(",") if s.strip())
            cfg = RunConfig(
                algebra=args.algebra,
                side=args.side,
                alpha_t=args.alpha_t,
                theta=args.theta,
                mode=args.mode,
                tol=args.tol,
                seed=args.seed,
                suites=suites,
                trials=args.trials,
                jobs=args.jobs,
            )
            cfg.validate()
            if cfg.mode == "float":
                # F of a float system is not a rational polynomial, and the
                # sweep checks the exact family
                for flag, value in (("--dump-poly", args.dump_poly), ("--sweep-t", args.sweep_t)):
                    if value is not None:
                        raise ValueError(f"{flag} requires exact mode")
            if args.sweep_t is not None:
                try:
                    ts = [rational(x.strip()) for x in args.sweep_t.split(",") if x.strip()]
                except ValueError as e:
                    raise ValueError(f"bad --sweep-t: {e}") from e
                if not ts:
                    raise ValueError("--sweep-t selects no t values")
            # opened before anything runs: a path that cannot be written is
            # a config error, not a failed identity after the whole run
            dump = files.enter_context(open(args.dump_poly, "w", encoding="utf-8")) if args.dump_poly else None
            out = files.enter_context(open(args.out, "w", encoding="utf-8")) if args.out else sys.stdout
        except (ValueError, OSError) as e:
            print(f"config error: {e}", file=sys.stderr)
            return 2

        ctx = RunContext(cfg)
        if dump is not None:
            dump.write(ctx.fkm_poly.dump() + "\n")

        if args.sweep_t is not None:
            reports, code = sweep_theta(cfg, ts)
            text = json.dumps(reports, indent=2, sort_keys=True)
        else:
            report, code = run(cfg, ctx)
            text = json.dumps(report, indent=2, sort_keys=True)
        out.write(text + "\n")
        return code


if __name__ == "__main__":
    raise SystemExit(main())
