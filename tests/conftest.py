"""Shared fixtures: building the 32x32 operator systems and their degree-4
polynomials is the expensive part, so they are cached per session."""

from __future__ import annotations

from fractions import Fraction

import pytest

from octoverify.circ import Side, nom_from_t
from octoverify.systems import build_fkm_system, build_ot_system, fkm_polynomial

NOM_KEYS = [
    ("left", Fraction(0)),
    ("right", Fraction(0)),
    ("left", Fraction(1, 2)),
    ("left", Fraction(1, 3)),
]


def make_nom(side: str, t: Fraction, dim: int = 8):
    return nom_from_t(Side.LEFT if side == "left" else Side.RIGHT, t, axis=4 if dim == 8 else 1, dim=dim)


@pytest.fixture(scope="session")
def noms():
    return {key: make_nom(*key) for key in NOM_KEYS}


@pytest.fixture(scope="session")
def fkm_systems(noms):
    return {key: build_fkm_system(nom) for key, nom in noms.items()}


@pytest.fixture(scope="session")
def fkm_polys(fkm_systems):
    return {key: fkm_polynomial(sys.system) for key, sys in fkm_systems.items()}


@pytest.fixture(scope="session")
def ot_octonion():
    return build_ot_system(8)


@pytest.fixture(scope="session")
def ot_octonion_poly(ot_octonion):
    return fkm_polynomial(ot_octonion.system)


@pytest.fixture(scope="session")
def ot_quaternion():
    return build_ot_system(4)


@pytest.fixture(scope="session")
def fkm_quaternion():
    return build_fkm_system(make_nom("left", Fraction(0), dim=4))
