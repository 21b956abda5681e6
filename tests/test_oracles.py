"""The Dirac engine against the exact sympy derivation in oracles.py, a path
that shares no numpy rounding with the engine or its closed forms."""

import math

import numpy as np
import pytest
import sympy

import oracles
from vfvacuum import dirac


def _polarization(angle: float) -> np.ndarray:
    return np.array([0.0, math.cos(angle), math.sin(angle), 0.0])


def test_oracle_derives_the_closed_form():
    closed = 2 * sympy.sin(oracles.b - oracles.a) ** 2 / oracles.m**2
    assert sympy.simplify(oracles.squared_matrix_element() - closed) == 0
    assert oracles.cross_section_coefficient("singlet_only") == 8
    assert oracles.cross_section_coefficient("all_four") == 2


@pytest.mark.parametrize("mass, energy", [(1.0, 1.0), (0.51099895, 0.51099895), (105.66, 3.0), (1e-3, 1e4)])
@pytest.mark.parametrize("angle_i, angle_f", [(0.0, 0.0), (0.0, math.pi / 2), (0.3, 1.9), (2.5, -0.7), (0.7, 0.701)])
def test_squared_matrix_element_meets_the_oracle(mass, energy, angle_i, angle_f):
    numeric = dirac.squared_matrix_element(
        _polarization(angle_i), _polarization(angle_f), energy * np.array([1.0, 0.0, 0.0, 1.0]), mass
    )
    exact = oracles.squared_matrix_element().evalf(
        30, subs={oracles.m: mass, oracles.w: energy, oracles.a: angle_i, oracles.b: angle_f}
    )
    # Float64 products of a few terms of size 2/m^2: a few ulp of that scale.
    assert abs(numeric - float(exact)) <= 1e-12 * 2.0 / mass**2


@pytest.mark.parametrize("mode", ["singlet_only", "all_four"])
@pytest.mark.parametrize("mass", [1.0, 0.51099895, 1776.86, 1e-30])
def test_cross_section_coefficient_meets_the_oracle(mode, mass):
    exact = oracles.cross_section_coefficient(mode)
    assert exact.is_Integer
    assert dirac.cross_section_coefficient(mode, mass=mass) == pytest.approx(float(exact), rel=1e-12)
