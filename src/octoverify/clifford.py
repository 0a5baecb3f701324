"""Skew Clifford representations and symmetric Clifford systems.

Covers verification of the defining relations, normalization of A-systems
(A_a A_b^T + A_b A_a^T = 2 delta_ab Id) to the standard left-multiplication
generators, exact intertwiner search between representations, volume signs,
and the delta(m) dimension table.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg, octonion
from .linalg import identity, int_mat_mul, kernel_basis, mat_mul, mat_neg, mat_sub, to_int_scaled, to_int_scaled_shared, transpose
from .report import Report
from .scalars import rational_sqrt

_DELTA_TABLE = [1, 2, 4, 4, 8, 8, 8, 8]


def delta_dimension(m: int) -> int:
    """Dimension of an irreducible module of the skew Clifford algebra C_{m-1}."""
    if m < 1:
        raise ValueError("m must be >= 1")
    k, r = divmod(m - 1, 8)
    return _DELTA_TABLE[r] * 16**k


def _residual_int(mat: list[list[int]], want: list[list[int]]) -> int:
    return max(abs(a - b) for ra, rb in zip(mat, want) for a, b in zip(ra, rb))


def verify_skew_rep(mats: list) -> Report:
    """Check orthogonality, E^2 = -Id, and pairwise anticommutation.

    Residuals are reported scaled back to rationals; pass means literally zero.
    """
    rep = Report("skew_rep")
    if not mats:
        rep.add("nonempty", False)
        return rep
    n = len(mats[0])
    for m in mats:
        if len(m) != n or any(len(row) != n for row in m):
            raise ValueError("generator dimension mismatch")
    dens_mats = [to_int_scaled(m) for m in mats]
    worst_orth = Fraction(0)
    worst_sq = Fraction(0)
    worst_anti = Fraction(0)
    for den, im in dens_mats:
        d2 = den * den
        mt = [list(r) for r in zip(*im)]
        prod = int_mat_mul(im, mt)
        want = [[d2 if i == j else 0 for j in range(n)] for i in range(n)]
        worst_orth = max(worst_orth, Fraction(_residual_int(prod, want), d2))
        sq = int_mat_mul(im, im)
        wantm = [[-d2 if i == j else 0 for j in range(n)] for i in range(n)]
        worst_sq = max(worst_sq, Fraction(_residual_int(sq, wantm), d2))
    for a in range(len(mats)):
        dena, ia = dens_mats[a]
        for b in range(a + 1, len(mats)):
            denb, ib = dens_mats[b]
            anti = linalg.anticommutator_int(ia, ib)
            worst_anti = max(worst_anti, Fraction(max(abs(x) for row in anti for x in row), dena * denb))
    rep.add("orthogonality", worst_orth == 0, worst_orth)
    rep.add("square_minus_id", worst_sq == 0, worst_sq)
    rep.add("anticommutation", worst_anti == 0, worst_anti)
    return rep


@dataclass
class SymmetricCliffordSystem:
    """Family P_first, ..., P_{first+len-1} of symmetric orthogonal operators
    with P_i P_j + P_j P_i = 2 delta_ij Id.  The usual index range is -1..m
    with index -1 stored at slot 0."""

    operators: list
    first_index: int = -1

    @property
    def indices(self) -> list[int]:
        return list(range(self.first_index, self.first_index + len(self.operators)))

    def operator(self, index: int):
        return self.operators[index - self.first_index]

    @property
    def dim(self) -> int:
        return len(self.operators[0])


def verify_symmetric_system(sys: SymmetricCliffordSystem) -> Report:
    rep = Report("symmetric_clifford_system")
    mats = sys.operators
    n = sys.dim
    scaled = [to_int_scaled(m) for m in mats]
    worst_sym = Fraction(0)
    worst_cliff = Fraction(0)
    for den, im in scaled:
        mt = [list(r) for r in zip(*im)]
        worst_sym = max(worst_sym, Fraction(_residual_int(im, mt), den))
    for a in range(len(mats)):
        dena, ia = scaled[a]
        for b in range(a, len(mats)):
            denb, ib = scaled[b]
            anti = linalg.anticommutator_int(ia, ib)
            d2 = dena * denb
            want = [[2 * d2 if (i == j and a == b) else 0 for j in range(n)] for i in range(n)]
            worst_cliff = max(worst_cliff, Fraction(_residual_int(anti, want), d2))
    rep.add("symmetry", worst_sym == 0, worst_sym)
    rep.add("clifford_relations", worst_cliff == 0, worst_cliff)
    return rep


def volume_sign(rep_mats: list) -> int:
    """Sign of the product of all generators; must be +-Id (full system)."""
    n = len(rep_mats[0])
    prod = identity(n)
    for m in rep_mats:
        prod = mat_mul(prod, m)
    if prod == identity(n):
        return 1
    if prod == mat_neg(identity(n)):
        return -1
    raise ValueError("not a full irreducible system: product of generators is not +-Id")


@dataclass
class IntertwinerResult:
    found: bool
    matrix: list | None = None
    lam: Fraction | None = None
    exact: bool = True

    @staticmethod
    def not_equivalent() -> "IntertwinerResult":
        return IntertwinerResult(False)


def _kernel_of_intertwiner_system(rep1: list, rep2: list) -> list:
    """Kernel of the stacked system O A - B O = 0 over the n*n entries of O
    (column i*n + k is O[i][k]): one sparse int row per (A, B, i, j), with A
    and B scaled to ints over one shared denominator."""
    n = len(rep1[0])
    rows = []
    for A, B in zip(rep1, rep2):
        _, (ia, ib) = to_int_scaled_shared([A, B])
        a_cols = [[(k, x) for k, x in enumerate(col) if x] for col in zip(*ia)]
        b_rows = [[(k, y) for k, y in enumerate(row) if y] for row in ib]
        for i in range(n):
            for j in range(n):
                row: dict = {}
                for k, x in a_cols[j]:
                    row[i * n + k] = x
                for k, y in b_rows[i]:
                    c = k * n + j
                    row[c] = row.get(c, 0) - y
                rows.append(row)
    return kernel_basis(rows, n * n)


def _as_matrix(vec: list, n: int) -> list:
    return [vec[i * n : (i + 1) * n] for i in range(n)]


def _scalar_multiple_of_id(m: list) -> Fraction | None:
    n = len(m)
    lam = m[0][0]
    for i in range(n):
        for j in range(n):
            if m[i][j] != (lam if i == j else 0):
                return None
    return lam


def find_intertwiner(rep1: list, rep2: list) -> IntertwinerResult:
    """Orthogonal O with O rep1_a O^{-1} = rep2_a for all a, or NotEquivalent.

    Solves the stacked homogeneous system O X_a - Y_a O = 0 exactly.  Any
    kernel element K of an irreducible pair satisfies K K^T = lam Id; kernel
    basis elements are scanned in row-echelon order (then pairwise sums) for a
    perfect-square lam, which yields an exact orthogonal K/sqrt(lam).  If no
    rational square shows up the result falls back to a float matrix.
    """
    if len(rep1) != len(rep2):
        raise ValueError("generator count mismatch")
    n = len(rep1[0])
    if any(len(m) != n for m in rep1 + rep2):
        raise ValueError("dimension mismatch")
    ker = _kernel_of_intertwiner_system(rep1, rep2)
    if not ker:
        return IntertwinerResult.not_equivalent()

    candidates = [vec for vec in ker]
    for i in range(len(ker)):
        for j in range(i + 1, len(ker)):
            candidates.append([x + y for x, y in zip(ker[i], ker[j])])
            candidates.append([x - y for x, y in zip(ker[i], ker[j])])
    fallback = None
    for vec in candidates:
        K = _as_matrix(vec, n)
        lam = _scalar_multiple_of_id(mat_mul(K, transpose(K)))
        if lam is None or lam == 0:
            continue
        if fallback is None:
            fallback = (K, lam)
        root = rational_sqrt(lam)
        if root is not None:
            O = [[x / root for x in row] for row in K]
            return IntertwinerResult(True, O, lam, exact=True)
    if fallback is None:
        # kernel exists but no usable scalar element surfaced; treat as failure
        return IntertwinerResult.not_equivalent()
    K, lam = fallback
    root = float(lam) ** 0.5
    O = [[float(x) / root for x in row] for row in K]
    return IntertwinerResult(True, O, lam, exact=False)


def conjugation_residual(result: IntertwinerResult, rep1: list, rep2: list):
    """max |O X_a - Y_a O| over generators (exact when result.exact).

    No run-time caller: the ``test_find_intertwiner_*`` tests in
    ``tests/test_clifford.py`` use it to check ``find_intertwiner``'s result."""
    if not result.found:
        raise ValueError("no intertwiner to check")
    O = result.matrix
    worst = 0 if not result.exact else Fraction(0)
    for A, B in zip(rep1, rep2):
        if result.exact:
            d = mat_sub(mat_mul(O, A), mat_mul(B, O))
            worst = max(worst, linalg.max_abs(d))
        else:
            OA = [[sum(O[i][k] * float(A[k][j]) for k in range(len(A))) for j in range(len(A))] for i in range(len(A))]
            BO = [[sum(float(B[i][k]) * O[k][j] for k in range(len(A))) for j in range(len(A))] for i in range(len(A))]
            worst = max(worst, max(abs(x - y) for r1, r2 in zip(OA, BO) for x, y in zip(r1, r2)))
    return worst


def verify_a_system(a_mats: list) -> Report:
    """A_a A_b^T + A_b A_a^T = 2 delta_ab Id; failure names the first bad pair."""
    rep = Report("a_system")
    n = len(a_mats[0])
    ok = True
    first_bad = None
    for a in range(len(a_mats)):
        for b in range(a, len(a_mats)):
            s = mat_add_t(a_mats[a], a_mats[b])
            want = linalg.mat_scale(Fraction(2 if a == b else 0), identity(n))
            if s != want:
                ok = False
                if first_bad is None:
                    first_bad = (a + 1, b + 1)
    rep.add("defining_relations", ok, detail={"first_failing_pair": first_bad})
    return rep


def mat_add_t(a: list, b: list) -> list:
    return linalg.mat_add(mat_mul(a, transpose(b)), mat_mul(b, transpose(a)))


@dataclass
class NormalizedASystem:
    """First-stage (P, Q) with P^-1 A_m Q = Id plus the refined pair with
    P J_a Q^-1 = A_a for every a; neither pair is canonical, both are
    recorded."""

    p_initial: list
    q_initial: list
    witness: list  # E_a = P^-1 A_a Q, a = 1..m (E_m = Id)
    p_refined: list
    q_refined: list
    exact: bool


def normalize_a_system(a_mats: list) -> NormalizedASystem:
    m = len(a_mats)
    n = len(a_mats[0])
    if (m, n) not in ((3, 4), (7, 8)):
        raise ValueError("expected m in {3,7} with (m+1)-square matrices")
    arep = verify_a_system(a_mats)
    if not arep.passed:
        bad = arep.checks[0].detail["first_failing_pair"]
        raise ValueError(f"A-system relations fail first at pair {bad}")

    p0 = identity(n)
    q0 = transpose(a_mats[-1])  # A_m^{-1} = A_m^T
    witness = [mat_mul(a, q0) for a in a_mats]

    j = [octonion.left_mult_matrix(octonion.basis(i, n)) for i in range(1, n)]
    jm = j[m - 1]
    jjm = [mat_mul(j[a], jm) for a in range(m - 1)]
    e_part = witness[:-1]
    res = find_intertwiner(jjm, e_part)
    if not res.found:
        raise ValueError("no intertwiner between witness and J_a J_m generators")
    O = res.matrix
    # P <- P0 O J_m^{-1} = P0 O (-J_m), Q <- Q0 O  gives P^{-1} A_a Q = J_a.
    p_ref = mat_mul(mat_mul(p0, O), mat_neg(jm))
    q_ref = mat_mul(q0, O)
    return NormalizedASystem(p0, q0, witness, p_ref, q_ref, res.exact)


def refined_residual(norm: NormalizedASystem, a_mats: list):
    """max |P J_a Q^{-1} - A_a| for the refined pair (Q orthogonal: Q^{-1} = Q^T)."""
    n = len(a_mats[0])
    j = [octonion.left_mult_matrix(octonion.basis(i, n)) for i in range(1, n)]
    qinv = transpose(norm.q_refined)
    worst = Fraction(0)
    for a, A in enumerate(a_mats):
        got = mat_mul(mat_mul(norm.p_refined, j[a]), qinv)
        worst = max(worst, linalg.max_abs(mat_sub(got, A)))
    return worst
