from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from octoverify import octonion as on
from octoverify.octonion import ProductTable
from octoverify.clifford import (
    _residual,
    _two_products,
    delta_dimension,
    find_intertwiner,
    normalize_a_system,
    refined_residual,
    verify_a_system,
    verify_skew_rep,
    verify_symmetric_system,
    volume_sign,
)
from matrix_oracle import add, dense, identity, max_abs, mul, neg, scale, sub, transpose, zeros
from conftest import Draws
from octoverify.linalg import Op
from octoverify.scalars import sum_zero


def test_delta_dimension_table():
    assert [delta_dimension(m) for m in range(1, 9)] == [1, 2, 4, 4, 8, 8, 8, 8]
    assert delta_dimension(3) == 4
    assert delta_dimension(7) == 8
    assert delta_dimension(9) == 16
    assert delta_dimension(17) == 256
    with pytest.raises(ValueError):
        delta_dimension(0)


def test_multiplicity_formula_consistency():
    # m2 = k delta(m1) - m1 - 1 with k = 2 for both exceptional pairs
    assert 2 * delta_dimension(7) - 7 - 1 == 8
    assert 2 * delta_dimension(3) - 3 - 1 == 4


def test_verify_skew_rep():
    j = on.j_generators()
    jp = on.j_prime_generators()
    assert verify_skew_rep(j).passed
    assert verify_skew_rep(jp).passed
    bad = verify_skew_rep([j[0], j[0]])
    assert not bad.passed
    with pytest.raises(ValueError):
        verify_skew_rep([j[0], Op.of([row[:4] for row in dense(j[1])[:4]])])


@pytest.mark.parametrize("dim", [4, 8])
def test_verify_skew_rep_on_one_generator(dim):
    # one generator has no pair to anticommute: that residual is 0 whether
    # the generator passes (J_1) or fails its own checks (2 J_1, for which
    # E E^T = 4 Id and E^2 = -4 Id)
    e = on.j_generators(dim)[1]
    for ops, orth, sq in (([e], 0, 0), ([e * 2], 3, 3)):
        got = {c.name: (c.passed, c.residual) for c in verify_skew_rep(ops).checks}
        assert got == {
            "orthogonality": (orth == 0, orth),
            "square_minus_id": (sq == 0, sq),
            "anticommutation": (True, 0),
        }


def test_verify_symmetric_system(fkm_systems):
    assert verify_symmetric_system(fkm_systems[("left", Fraction(0))].system).passed
    ident = Op.identity(4)
    assert verify_symmetric_system([ident]).passed
    assert not verify_symmetric_system([ident, ident]).passed


def test_volume_signs():
    assert volume_sign(on.j_generators()) == -1
    assert volume_sign(on.j_prime_generators()) == 1
    assert volume_sign(on.j_generators(4)) == -1
    assert volume_sign(on.j_prime_generators(4)) == 1
    with pytest.raises(ValueError):
        volume_sign(on.j_generators()[:2])


def test_normalize_identity_a_system():
    j = on.j_generators()
    norm = normalize_a_system(j)
    assert refined_residual(norm, j) == 0
    assert norm.witness[-1] == Op.identity(8)
    assert verify_skew_rep(norm.witness[:-1]).passed


def test_normalize_seeded_a_systems():
    rng = Draws(101)
    j = on.j_generators()
    for _ in range(3):
        o = rng.orthogonal(8)
        a = [o @ m for m in j]
        norm = normalize_a_system(a)
        assert refined_residual(norm, a) == 0
        # refined P, Q are orthogonal
        assert norm.p_refined @ norm.p_refined.T == Op.identity(8)
        assert norm.q_refined @ norm.q_refined.T == Op.identity(8)


def test_refined_residual_refuses_a_short_system():
    # a prefix of a correct system would otherwise compare as a perfect fit
    o = Draws(101).orthogonal(8)
    a = [o @ m for m in on.j_generators()]
    norm = normalize_a_system(a)
    with pytest.raises(ValueError):
        refined_residual(norm, a[:2])


def test_normalize_quaternionic():
    j4 = on.j_generators(4)
    norm = normalize_a_system(j4)
    assert refined_residual(norm, j4) == 0


def test_normalize_rejects_bad_system():
    j = on.j_generators()
    bad = list(j)
    bad[0] = bad[0] * 2
    with pytest.raises(ValueError, match="pair"):
        normalize_a_system(bad)
    rep = verify_a_system(bad)
    assert not rep.passed
    assert rep.checks[0].detail["first_failing_pair"] == (1, 1)


def conjugation_residual(O: Op, rep1: list, rep2: list) -> Fraction:
    """max |O X_a - Y_a O| over the generators, for the intertwiner O."""
    return max((O @ A - B @ O).max_abs() for A, B in zip(rep1, rep2, strict=True))


def test_find_intertwiner_conjugated():
    j = on.j_generators()
    o = Draws(55).orthogonal(8)
    rep2 = [o @ m @ o.T for m in j]
    res = find_intertwiner(j, rep2)
    assert res is not None
    assert conjugation_residual(res, j, rep2) == 0


def test_find_intertwiner_inequivalent_and_self():
    j = on.j_generators()
    jp = on.j_prime_generators()
    assert find_intertwiner(j, jp) is None
    res = find_intertwiner(j, j)
    assert res is not None
    assert conjugation_residual(res, j, j) == 0
    with pytest.raises(ValueError):
        conjugation_residual(res, j, j[:1])


def test_find_intertwiner_raises_without_a_rational_square_root():
    # K = Id + J_1 has K K^T = 2 Id, so K/sqrt2 conjugates J_a to
    # K J_a K^T / 2, and every kernel element is a rational multiple of K
    j = on.j_generators()
    k = Op.identity(8) + j[0]
    assert (k @ k.T).scalar() == 2
    rep2 = [k @ m @ k.T * Fraction(1, 2) for m in j]
    assert verify_skew_rep(rep2).passed
    with pytest.raises(ValueError, match="lam = 2"):
        find_intertwiner(j, rep2)


def test_find_intertwiner_raises_on_a_reducible_pair():
    # one complex structure on R^4 is reducible: the kernel is 8-dimensional
    # and no scanned K has K K^T = lam Id, yet the pair is equivalent
    j = on.j_generators(4)[:1]
    o = Draws(0).orthogonal(4)
    rep2 = [o @ j[0] @ o.T]
    with pytest.raises(ValueError, match="reducible"):
        find_intertwiner(j, rep2)


def test_skew_rep_plus_identity_is_orthogonal_multiplication():
    # cross-module property: any verified skew rep E_a with Id appended gives
    # a normalized orthogonal multiplication e_a o x := E_a(x)
    for rep in (on.j_prime_generators(), on.j_generators()):
        assert verify_skew_rep(rep).passed
        entries = [[on.basis(b, 8) for b in range(8)]]
        for m in map(dense, rep):
            entries.append([tuple(m[r][b] for r in range(8)) for b in range(8)])
        table = ProductTable.of(entries)
        rng = Draws(77)
        for _ in range(50):
            x, y = tuple(rng.rationals(5, 8)), tuple(rng.rationals(5, 8))
            assert on.norm_sq(table.product(x, y, sum_zero(x, y))) == on.norm_sq(x) * on.norm_sq(y)
        assert table.product(on.basis(0, 8), on.basis(3, 8), sum_zero(on.basis(0, 8))) == on.basis(3, 8)


# ---------------------------------------------------------------------------
# the Op residuals against the naive Fraction oracle
# ---------------------------------------------------------------------------


def _block_system(es: list) -> list:
    """diag(I, -I) and [[0, E], [E^T, 0]] for each E: a symmetric Clifford
    system whenever E_a E_b^T + E_b E_a^T = 2 delta_ab Id."""
    ident, zero = identity(len(es[0])), zeros(len(es[0]))

    def blocks(tl, tr, bl, br):
        return [a + b for a, b in zip(tl, tr)] + [a + b for a, b in zip(bl, br)]

    return [blocks(ident, zero, zero, neg(ident))] + [blocks(zero, e, transpose(e), zero) for e in es]


def _anticommutator(a: list, b: list) -> list:
    return add(mul(a, b), mul(b, a))


def _perturbed(mats: list, edits: list) -> list:
    out = [[list(row) for row in m] for m in mats]
    for k, i, j, delta in edits:
        m = out[k % len(out)]
        m[i % len(m)][j % len(m)] += delta
    return out


_edits = st.lists(
    st.tuples(
        st.integers(0, 7),
        st.integers(0, 7),
        st.integers(0, 7),
        st.fractions(min_value=-3, max_value=3, max_denominator=12).filter(bool),
    ),
    max_size=3,
)


def _assert_skew_rep_matches_oracle(mats: list) -> None:
    got = {c.name: c for c in verify_skew_rep([Op.of(m) for m in mats]).checks}
    ident = identity(len(mats[0]))
    want = {
        "orthogonality": max(max_abs(sub(mul(m, transpose(m)), ident)) for m in mats),
        "square_minus_id": max(max_abs(add(mul(m, m), ident)) for m in mats),
        "anticommutation": max(max_abs(_anticommutator(a, b)) for i, a in enumerate(mats) for b in mats[i + 1 :]),
    }
    for name, residual in want.items():
        assert got[name].residual == residual, name
        assert got[name].passed == (residual == 0), name


def _assert_symmetric_system_matches_oracle(mats: list) -> None:
    got = {c.name: c for c in verify_symmetric_system([Op.of(m) for m in mats]).checks}
    sym = max(max_abs(sub(m, transpose(m))) for m in mats)
    ident = identity(len(mats[0]))
    cliff = max(
        max_abs(sub(_anticommutator(a, b), scale(Fraction(2 if i == k else 0), ident)))
        for i, a in enumerate(mats)
        for k, b in enumerate(mats)
        if i <= k
    )
    for name, residual in (("symmetry", sym), ("clifford_relations", cliff)):
        assert got[name].residual == residual, name
        assert got[name].passed == (residual == 0), name


def _assert_a_system_matches_oracle(mats: list) -> None:
    ident = identity(len(mats[0]))
    bad = [
        (a + 1, b + 1)
        for a in range(len(mats))
        for b in range(a, len(mats))
        if add(mul(mats[a], transpose(mats[b])), mul(mats[b], transpose(mats[a])))
        != scale(Fraction(2 if a == b else 0), ident)
    ]
    rep = verify_a_system([Op.of(m) for m in mats])
    assert rep.passed == (not bad)
    assert rep.checks[0].detail["first_failing_pair"] == (bad[0] if bad else None)


@settings(max_examples=40, deadline=None)
@given(_edits)
def test_verify_a_system_first_failing_pair_matches_fraction_oracle(edits):
    # J_a J_b^T + J_b J_a^T = -(J_a J_b + J_b J_a) = 2 delta_ab Id
    _assert_a_system_matches_oracle(_perturbed([dense(m) for m in on.j_generators(4)], edits))


def _square_pairs(n: int):
    entry = st.one_of(st.just(Fraction(0)), st.fractions(min_value=-3, max_value=3, max_denominator=6))
    matrix = st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)
    return st.tuples(matrix, matrix)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(_square_pairs), st.integers(-1, 1), st.booleans())
def test_residual_kernels_match_fraction_oracle(ab, lam, twice):
    """Every residual the one-product kernel returns, and the two-product
    one, against the dense sums: a b + (a b)^T - 2 lam Id or a b - lam Id,
    and a b + b a - 2 lam Id."""
    a, b = ab
    m, ident = mul(a, b), identity(len(a))
    want = sub(add(m, transpose(m)), scale(2 * lam, ident)) if twice else sub(m, scale(lam, ident))
    assert _residual(Op.of(a), Op.of(b), lam, twice) == max_abs(want)
    assert _two_products(Op.of(a), Op.of(b), lam) == max_abs(sub(add(m, mul(b, a)), scale(2 * lam, ident)))


@settings(max_examples=40, deadline=None)
@given(_edits)
def test_verify_skew_rep_residuals_match_fraction_oracle(edits):
    _assert_skew_rep_matches_oracle(_perturbed([dense(m) for m in on.j_generators(4)], edits))


def test_verify_skew_rep_one_product_residuals_match_fraction_oracle():
    # orthogonal generators with E^2 = -Id, so E^T = -E and each
    # anticommutator comes from one product, that do not all anticommute:
    # a repeated J_a, J_a beside -J_a, and J_0 J_1, which commutes with J_2
    j0, j1, j2 = (dense(m) for m in on.j_generators(4))
    for mats in ([j0, j0], [j0, neg(j0), j1], [j0, j1, mul(j0, j1), j2]):
        assert max(max_abs(add(mul(m, m), identity(4))) for m in mats) == 0
        _assert_skew_rep_matches_oracle(mats)
        assert not verify_skew_rep([Op.of(m) for m in mats]).checks[2].passed


@settings(max_examples=40, deadline=None)
@given(_edits)
def test_verify_symmetric_system_residuals_match_fraction_oracle(edits):
    # random edits almost always break symmetry: the two-product route
    base = _block_system([identity(4)] + [dense(m) for m in on.j_generators(4)])
    assert verify_symmetric_system([Op.of(m) for m in base]).passed
    _assert_symmetric_system_matches_oracle(_perturbed(base, edits))


@settings(max_examples=40, deadline=None)
@given(_edits)
def test_verify_symmetric_system_symmetric_edits_match_fraction_oracle(edits):
    # each edit changes entries (i, j) and (j, i) alike, so every operator
    # stays symmetric and each anticommutator comes from one product
    mats = [[list(row) for row in m] for m in _block_system([identity(4)] + [dense(m) for m in on.j_generators(4)])]
    for k, i, j, delta in edits:
        m = mats[k % len(mats)]
        m[i][j] += delta
        if i != j:
            m[j][i] += delta
    assert all(m == transpose(m) for m in mats)
    _assert_symmetric_system_matches_oracle(mats)
