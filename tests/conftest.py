"""Shared fixtures: building the 32x32 operator systems and their degree-4
polynomials is the expensive part, so they are cached per session.  Seeded
test data comes from ``Draws``."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from octoverify.circ import Side, nom_from_t
from octoverify.linalg import Op
from octoverify.poly import split_squares
from octoverify.scalars import pythagorean_unit
from octoverify.systems import (
    build_fkm_system,
    build_ot_system,
    fkm_polynomial,
    fkm_squares,
    ot_display_report,
    ot_plus_frame,
)


class Draws(random.Random):
    """The standard library's seeded generator, with the rational test data
    the tests draw from it."""

    def rational(self, bound: int) -> Fraction:
        """A rational n/d with |n| <= bound and 1 <= d <= bound."""
        return Fraction(self.randint(-bound, bound), self.randint(1, bound))

    def rationals(self, bound: int, count: int) -> list[Fraction]:
        return [self.rational(bound) for _ in range(count)]

    def orthogonal(self, n: int) -> Op:
        """An exact orthogonal n x n matrix: a product of up to 2n Givens
        rotations by Pythagorean angles."""
        m = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        for _ in range(2 * n):
            i, j = self.randrange(n), self.randrange(n)
            if i == j:
                continue
            c, s = pythagorean_unit(self.rational(3))
            for row in m:
                row[i], row[j] = c * row[i] - s * row[j], s * row[i] + c * row[j]
        return Op.of(m)

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
    return fkm_polynomial(ot_octonion)


def ot_display(ot: list) -> tuple:
    """(report, forms, frame) of ``ot_display_report`` at the OT system's
    x_+, with F split around its squares as a run splits it."""
    frame = ot_plus_frame(ot)
    return (*ot_display_report(ot, split_squares(fkm_polynomial(ot), fkm_squares(ot)), frame), frame)


@pytest.fixture(scope="session")
def ot_quaternion():
    return build_ot_system(4)


@pytest.fixture(scope="session")
def fkm_quaternion():
    return build_fkm_system(make_nom("left", Fraction(0), dim=4))
