"""``extract_expansion_forms`` expands F at a focal frame from the squares it
is built of and reads t^4, p and q off the grades of one product; the oracle
(``expansion_oracle``) substitutes all of F and decodes every term.  Both
must give the same forms and the same t^4 errors, with or without the
squares, and for an F that is not the sum of its squares."""

from __future__ import annotations

import re
from fractions import Fraction

import pytest

import octoverify.poly as poly
import octoverify.systems as systems
from conftest import make_nom
from expansion_oracle import decoded_expansion_forms, frame_forms
from octoverify.poly import MultiPoly, monomial_key, split_squares
from octoverify.systems import (
    ScaledVec,
    build_fkm_system,
    build_ot_system,
    extract_expansion_forms,
    fkm_mirror_frame,
    fkm_polynomial,
    fkm_squares,
    ot_plus_frame,
)

T_VALUES = [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(3)]


def _graded(f, squares, frame):
    forms = extract_expansion_forms(split_squares(f, squares), frame)
    return forms.p, forms.q


def _same_outcome(f, squares, frame) -> None:
    """The graded route and the oracle return equal forms, or raise the
    same ``ValueError`` text."""
    try:
        want = decoded_expansion_forms(f, frame)
    except ValueError as e:
        with pytest.raises(ValueError, match=re.escape(str(e))):
            _graded(f, squares, frame)
        return
    assert _graded(f, squares, frame) == want


@pytest.mark.parametrize("dim", [4, 8])
@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("t", T_VALUES, ids=str)
def test_graded_forms_at_the_mirror_point_equal_the_decoded_ones(dim, side, t):
    fkm = build_fkm_system(make_nom(side, t, dim))
    _same_outcome(fkm_polynomial(fkm.system), fkm_squares(fkm.system), fkm_mirror_frame(fkm))


@pytest.mark.parametrize("dim", [4, 8])
def test_graded_forms_at_the_condition_a_point_equal_the_decoded_ones(dim):
    ot = build_ot_system(dim)
    _same_outcome(fkm_polynomial(ot), fkm_squares(ot), ot_plus_frame(ot))


def _frames(dim):
    """(system, F, frame) at x* (left nom, t = 1/2) and at x_+."""
    fkm = build_fkm_system(make_nom("left", Fraction(1, 2), dim))
    ot = build_ot_system(dim)
    return [(fkm.system, fkm_polynomial(fkm.system), fkm_mirror_frame(fkm)), (ot, fkm_polynomial(ot), ot_plus_frame(ot))]


@pytest.mark.parametrize("dim", [4, 8])
def test_a_planted_quartic_is_read_through_its_own_terms(dim):
    # F + x0 x1 x2 x3 is no longer the sum of its squares (E != 0).  At x*
    # the planted term reaches q; at x_+ it reaches neither form, so a second
    # plant adds a t w y^2 and a w y^3 term there, which reach p_0 and q_0
    (fkm, f, star), (ot, fo, plus) = _frames(dim)
    x0123 = {monomial_key(0, 1, 2, 3): 1}
    reaching = {monomial_key(2 * dim, 3 * dim, 0, 1): 1, monomial_key(3 * dim, 0, 1, 2): 1}
    for system, g, frame, terms, moved in (
        (fkm, f, star, x0123, (False, True)),
        (ot, fo, plus, x0123, (False, False)),
        (ot, fo, plus, reaching, (True, True)),
    ):
        planted = g + MultiPoly(4 * dim, terms)
        got = _graded(planted, fkm_squares(system), frame)
        assert got == decoded_expansion_forms(planted, frame)
        clean = _graded(g, fkm_squares(system), frame)
        assert (got[0] != clean[0], got[1] != clean[1]) == moved


@pytest.mark.parametrize("dim", [4, 8])
def test_the_squares_are_a_hint(dim):
    # no squares, or only some of them: E carries the rest of F
    for system, f, frame in _frames(dim):
        want = decoded_expansion_forms(f, frame)
        assert _graded(f, (), frame) == want
        assert _graded(f, fkm_squares(system)[:2], frame) == want


def test_the_t4_errors_are_the_decoded_ones():
    for system, f, frame in _frames(8):
        squares = fkm_squares(system)
        off = frame.__class__(ScaledVec(frame.tangent[0].coords, 0), frame.tangent, frame.normals)
        _same_outcome(f, squares, off)  # t^4 coeff -1
        _same_outcome(3 * f, squares, frame)  # t^4 coeff 3
        with pytest.raises(ValueError, match="t\\^4 coeff 3"):
            _graded(3 * f, squares, frame)


def test_a_square_that_is_not_quadratic_is_refused():
    system, f, frame = _frames(4)[1]
    cubic = MultiPoly(16, {monomial_key(0, 1, 2): 1})
    with pytest.raises(ValueError, match="homogeneous quadratic"):
        split_squares(f, [(1, cubic)])


def test_extraction_decodes_fewer_keys_than_the_expansion_has_terms(monkeypatch):
    # at the octonion x*, F(t x + y + w) has 1962 terms; the graded route
    # decodes the squares' and the substituted quadratics' terms only
    system, f, frame = _frames(8)[0]
    squares = fkm_squares(system)
    expansion_terms = len(f.substitute_linear(frame_forms(frame, f.nvars)).terms)
    keys = []
    real = poly.monomial_exponents

    def counting(key):
        keys.append(key)
        return real(key)

    for module in (poly, systems):
        monkeypatch.setattr(module, "monomial_exponents", counting)
    forms = extract_expansion_forms(split_squares(f, squares), frame)
    assert expansion_terms == 1962
    assert 0 < len(keys) < expansion_terms
    assert (forms.p, forms.q) == decoded_expansion_forms(f, frame)
