"""Skew Clifford representations and symmetric Clifford systems.

Covers verification of the defining relations, normalization of A-systems
(A_a A_b^T + A_b A_a^T = 2 delta_ab Id) to the standard left-multiplication
generators, exact intertwiner search between representations, volume signs,
and the delta(m) dimension table.  Every matrix taken or returned is a
``linalg.Op``, and every representation, A-system or symmetric system is a
plain list of them in index order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import octonion
from .linalg import Op, kernel_basis
from .report import Report
from .scalars import rational_sqrt

_DELTA_TABLE = [1, 2, 4, 4, 8, 8, 8, 8]


def delta_dimension(m: int) -> int:
    """Dimension of an irreducible module of the skew Clifford algebra C_{m-1}."""
    if m < 1:
        raise ValueError("m must be >= 1")
    k, r = divmod(m - 1, 8)
    return _DELTA_TABLE[r] * 16**k


def _square_dim(ops: list) -> int:
    """n when every operator is n x n for one n, else ValueError."""
    n = ops[0].ncols
    if any(len(m.rows) != n or m.ncols != n for m in ops):
        raise ValueError("generator dimension mismatch")
    return n


def _residual(a: Op, b: Op, lam: int = 0, twice: bool = True) -> Fraction:
    """The largest |entry| of m + m^T - 2 lam Id (``twice``) or m - lam Id
    for m = a b, read off the int numerators of that one product.  m + m^T
    is a b + b a when b a = (a b)^T, as for two symmetric or two skew
    matrices."""
    den = a.den * b.den
    m = a.int_product(b)
    for i, row in enumerate(m if lam else ()):  # m - lam Id, so m + m^T - 2 lam Id too
        row[i] = row.get(i, 0) - lam * den
    entries = (x + m[c].get(i, 0) if twice else x for i, row in enumerate(m) for c, x in row.items())
    return Fraction(max(map(abs, entries), default=0), den)


def _two_products(a: Op, b: Op, lam: int = 0) -> Fraction:
    """The largest |entry| of a b + b a - 2 lam Id, from both products."""
    return (a @ b + b @ a - 2 * lam * Op.identity(a.ncols)).max_abs()


def verify_skew_rep(ops: list) -> Report:
    """Check orthogonality E E^T = Id, E^2 = -Id, and pairwise anticommutation.

    Each residual is the largest |entry| of the difference; pass means
    literally zero.  Once the first two hold, E^T = E^-1 = -E, so each
    anticommutator is one product m plus m^T; otherwise it takes two, so a
    broken input's residuals are those of the defining sums.
    """
    rep = Report("skew_rep")
    if not ops:
        rep.add("nonempty", False)
        return rep
    _square_dim(ops)
    worst_orth = max(_residual(m, m.T, 1, False) for m in ops)
    worst_sq = max(_residual(m, m, -1, False) for m in ops)
    anti = _residual if worst_orth == 0 and worst_sq == 0 else _two_products
    worst_anti = max((anti(a, b) for i, a in enumerate(ops) for b in ops[i + 1 :]), default=Fraction(0))
    rep.add("orthogonality", worst_orth == 0, worst_orth)
    rep.add("square_minus_id", worst_sq == 0, worst_sq)
    rep.add("anticommutation", worst_anti == 0, worst_anti)
    return rep


def verify_symmetric_system(ops: list) -> Report:
    """Check symmetry P^T = P and P_a P_b + P_b P_a = 2 delta_ab Id for a
    symmetric Clifford system, the ``Op``s P_i in index order (-1..m for the
    FKM family, 0..m for the OT family); once every P is symmetric,
    P_b P_a = (P_a P_b)^T and each pair takes one product."""
    rep = Report("symmetric_clifford_system")
    worst_sym = max((m - m.T).max_abs() for m in ops)
    anti = _residual if worst_sym == 0 else _two_products
    worst_cliff = max(anti(ops[a], ops[b], int(a == b)) for a in range(len(ops)) for b in range(a, len(ops)))
    rep.add("symmetry", worst_sym == 0, worst_sym)
    rep.add("clifford_relations", worst_cliff == 0, worst_cliff)
    return rep


def volume_sign(ops: list) -> int:
    """Sign of the product of all generators; must be +-Id (full system)."""
    prod = Op.identity(ops[0].ncols)
    for m in ops:
        prod = prod @ m
    lam = prod.scalar()
    if lam in (1, -1):
        return int(lam)
    raise ValueError("not a full irreducible system: product of generators is not +-Id")


def _kernel_of_intertwiner_system(rep1: list, rep2: list) -> list:
    """Kernel of the stacked system O A - B O = 0 over the n*n entries of O
    (column i*n + k is O[i][k]): one sparse int row per (A, B, i, j), the
    equation times A.den * B.den, read off the entries of the ``Op``s."""
    n = rep1[0].ncols
    rows = []
    for A, B in zip(rep1, rep2):
        a_cols = A.T.rows
        for i in range(n):
            b_row = B.rows[i]
            for j in range(n):
                row = {i * n + k: x * B.den for k, x in a_cols[j].items()}
                for k, y in b_row.items():
                    c = k * n + j
                    row[c] = row.get(c, 0) - y * A.den
                rows.append(row)
    return kernel_basis(rows, n * n)


def find_intertwiner(rep1: list, rep2: list) -> Op | None:
    """Orthogonal O with O rep1_a O^{-1} = rep2_a for all a, or None when
    the two are not equivalent.

    Solves the stacked homogeneous system O X_a - Y_a O = 0 exactly; an empty
    kernel means not equivalent.  Any nonzero kernel element K of an
    irreducible pair satisfies K K^T = lam Id; kernel basis elements are
    scanned in row-echelon order (then pairwise sums) for a perfect-square
    lam, which yields an exact orthogonal K/sqrt(lam).  A nonzero kernel with
    no such element raises ValueError: it names lam when the scalar lams
    found have irrational square roots, and calls the pair reducible when no
    scanned K K^T is scalar (for an irreducible pair every one is).
    """
    if len(rep1) != len(rep2):
        raise ValueError("generator count mismatch")
    n = _square_dim(list(rep1) + list(rep2))
    ker = _kernel_of_intertwiner_system(rep1, rep2)
    if not ker:
        return None

    candidates = [vec for vec in ker]
    for i in range(len(ker)):
        for j in range(i + 1, len(ker)):
            candidates.append([x + y for x, y in zip(ker[i], ker[j])])
            candidates.append([x - y for x, y in zip(ker[i], ker[j])])
    first = None
    for vec in candidates:
        K = Op.of([vec[i * n : (i + 1) * n] for i in range(n)])
        lam = (K @ K.T).scalar()
        if not lam:
            continue
        root = rational_sqrt(lam)
        if root is not None:
            return K * (1 / root)
        if first is None:
            first = lam
    if first is None:
        raise ValueError(f"reducible pair: kernel of dimension {len(ker)}, no scanned K has K K^T = lam Id")
    raise ValueError(f"no rational intertwiner: K K^T = lam Id with lam = {first}, whose square root is irrational")


def verify_a_system(ops: list) -> Report:
    """A_a A_b^T + A_b A_a^T = 2 delta_ab Id, one product A_a A_b^T per
    pair; failure names the first bad pair."""
    rep = Report("a_system")
    ts = [x.T for x in ops]
    pairs = ((a, b) for a in range(len(ops)) for b in range(a, len(ops)))
    first_bad = next(((a + 1, b + 1) for a, b in pairs if _residual(ops[a], ts[b], int(a == b))), None)
    rep.add("defining_relations", first_bad is None, detail={"first_failing_pair": first_bad})
    return rep


@dataclass
class NormalizedASystem:
    """The first-stage witness E_a = A_a Q0 with Q0 = A_m^T (so E_m = Id),
    and the refined pair (P, Q) with P J_a Q^-1 = A_a for every a; the pair
    is not canonical."""

    witness: list  # E_a, a = 1..m
    p_refined: Op
    q_refined: Op


def normalize_a_system(a_ops: list) -> NormalizedASystem:
    m = len(a_ops)
    n = a_ops[0].ncols
    if (m, n) not in ((3, 4), (7, 8)):
        raise ValueError("expected m in {3,7} with (m+1)-square matrices")
    arep = verify_a_system(a_ops)
    if not arep.passed:
        bad = arep.checks[0].detail["first_failing_pair"]
        raise ValueError(f"A-system relations fail first at pair {bad}")

    q0 = a_ops[-1].T  # A_m^{-1} = A_m^T
    witness = [a @ q0 for a in a_ops]

    j = octonion.j_generators(n)
    jm = j[m - 1]
    jjm = [j[a] @ jm for a in range(m - 1)]
    O = find_intertwiner(jjm, witness[:-1])
    if O is None:
        raise ValueError("no intertwiner between witness and J_a J_m generators")
    # P <- O J_m^{-1} = O (-J_m), Q <- Q0 O  gives P^{-1} A_a Q = J_a.
    return NormalizedASystem(witness, O @ -jm, q0 @ O)


def refined_residual(norm: NormalizedASystem, a_ops: list) -> Fraction:
    """max |P J_a Q^{-1} - A_a| for the refined pair (Q orthogonal: Q^{-1} = Q^T)."""
    n = norm.p_refined.ncols
    qinv = norm.q_refined.T
    pairs = zip(octonion.j_generators(n), a_ops, strict=True)
    return max((norm.p_refined @ ja @ qinv - A).max_abs() for ja, A in pairs)
