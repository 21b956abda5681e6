"""Exact symbolic oracle for the Dirac engine, derived with sympy's Dirac
matrices and free of numpy rounding.

The pair is at rest, p_+ = p_- = (m, 0, 0, 0); the photon is k = (w, 0, 0, w);
both polarizations are transverse unit vectors, e_i at angle a and e_f at
angle b from the x axis. Tracing the engine's chain

    Tr[(pslash - m) (ei ef - ef ei) kslash (pslash + m) kslash (ef ei - ei ef)] / (16 m^4 w^2)

gives M = 2 sin^2(b - a) / m^2, and assembling the cross-section coefficient
from it gives 8 when only the singlet contributes and 2 over all four spin states.
"""

from __future__ import annotations

import functools

import sympy
from sympy.physics.matrices import mgamma

m, w, a, b = sympy.symbols("m w a b", positive=True)


def slash(vector) -> sympy.Matrix:
    """a_mu gamma^mu for a contravariant four-vector (t, x, y, z)."""
    return sum((component * mgamma(mu, lower=True) for mu, component in enumerate(vector)), sympy.zeros(4))


@functools.cache
def squared_matrix_element() -> sympy.Expr:
    """The reduced squared amplitude as a simplified function of m, w, a and b."""
    rest, photon = slash((m, 0, 0, 0)), slash((w, 0, 0, w))
    e_i = slash((0, sympy.cos(a), sympy.sin(a), 0))
    e_f = slash((0, sympy.cos(b), sympy.sin(b), 0))
    one = sympy.eye(4)
    commutator = e_i * e_f - e_f * e_i
    chain = (rest - m * one) * commutator * photon * (rest + m * one) * photon * (-commutator)
    return sympy.simplify(chain.trace() / (16 * m**4 * w**2))


@functools.cache
def cross_section_coefficient(spin_average_mode: str) -> sympy.Expr:
    """sigma |v_rel| m^2 / (pi alpha^2) as the engine assembles it: the spin factor
    times the initial-polarization average 1/2 of the sum of M over the four pairs
    of the x and y polarizations, times 4, the phase-space integral pi, and m^2/pi."""
    spin_factor = {"all_four": sympy.Rational(1, 4), "singlet_only": sympy.Integer(1)}[spin_average_mode]
    angles = (0, sympy.pi / 2)
    element_sum = sum(squared_matrix_element().subs({a: i, b: f}) for i in angles for f in angles)
    return sympy.simplify(spin_factor * sympy.Rational(1, 2) * element_sum * 4 * sympy.pi * m**2 / sympy.pi)
