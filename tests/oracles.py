"""Independent oracles the tests compare the library with; no command runs them.

Exact symbolic oracle for the Dirac engine, derived with sympy's Dirac
matrices and free of numpy rounding.

The pair is at rest, p_+ = p_- = (m, 0, 0, 0); the photon is k = (w, 0, 0, w);
both polarizations are transverse unit vectors, e_i at angle a and e_f at
angle b from the x axis. Tracing the engine's chain

    Tr[(pslash - m) (ei ef - ef ei) kslash (pslash + m) kslash (ef ei - ei ef)] / (16 m^4 w^2)

gives M = 2 sin^2(b - a) / m^2, and assembling the cross-section coefficient
from it gives 8 when only the singlet contributes and 2 over all four spin states.

Matrix-diagonalization oracle for the oscillator: the oscillator plus the
linear field coupling in a truncated number basis, diagonalized without
perturbation theory, gives the polarized ground state, its dipole and its
uncertainty product.

Alternative closed forms of quantities the library derives another way: the
binding energy through alpha, the exact interaction probability
1 - exp(-Gamma*dt), the effective density (alpha^5/4)(4mc/hbar)^3, the
oscillator levels and first-order mixing amplitude, and the single-photon
kinematic constraint.
"""

from __future__ import annotations

import functools
import math

import numpy as np
import sympy
from sympy.physics.matrices import mgamma

from vfvacuum.constants import ConstantsSet, LeptonSpecies
from vfvacuum.dirac import AnnihilationResult
from vfvacuum.vfmodel import VfCharacterization, characterize

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


def _dimensionless_operators(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Position and momentum matrices in the number basis, units of the
    oscillator length sqrt(hbar/(mu*omega)) and hbar over that length."""
    off = np.sqrt(np.arange(1, n) / 2.0)
    x = np.zeros((n, n))
    x[np.arange(n - 1), np.arange(1, n)] = off
    x[np.arange(1, n), np.arange(n - 1)] = off
    p = np.zeros((n, n), dtype=complex)
    p[np.arange(n - 1), np.arange(1, n)] = -1j * off
    p[np.arange(1, n), np.arange(n - 1)] = 1j * off
    return x, p


def _diagonalized_ground_state(
    reduced_mass: float, omega0: float, field: float, charge: float, constants: ConstantsSet, basis_size: int
) -> tuple[np.ndarray, np.ndarray, float]:
    """Ground state of the oscillator (reduced mass in kg, omega0 in rad/s) coupled to
    a charge (C) in a frozen field (V/m), in the number basis truncated at
    ``basis_size`` levels, with the position matrix and the oscillator length.

    Works in dimensionless oscillator units so the matrix is well scaled
    regardless of the SI magnitudes involved.
    """
    if int(basis_size) != basis_size or basis_size < 8:
        raise ValueError("basis_size must be an integer >= 8")
    length = math.sqrt(constants.hbar / (reduced_mass * omega0))
    strength = charge * field * length / (constants.hbar * omega0)
    x, _ = _dimensionless_operators(basis_size)
    _, vectors = np.linalg.eigh(np.diag(np.arange(basis_size) + 0.5) - strength * x)
    return vectors[:, 0], x, length


def dipole_oracle(
    reduced_mass: float,
    omega0: float,
    field: float,
    charge: float,
    constants: ConstantsSet,
    basis_size: int = 64,
) -> float:
    """Dipole moment from brute-force diagonalization of the full Hamiltonian.

    Independent of the perturbative path: builds the basis_size x basis_size
    matrix of the oscillator plus the linear field coupling, diagonalizes it,
    and evaluates q<x> in the true ground state.
    """
    ground, x, length = _diagonalized_ground_state(reduced_mass, omega0, field, charge, constants, basis_size)
    return charge * length * float(ground @ x @ ground)


def ground_state_uncertainty_product(
    reduced_mass: float, omega0: float, constants: ConstantsSet, basis_size: int = 64
) -> float:
    """Delta-x * Delta-p of the diagonalized zero-field ground state (hbar/2)."""
    ground, _, _ = _diagonalized_ground_state(reduced_mass, omega0, 0.0, 0.0, constants, basis_size)
    x, p = _dimensionless_operators(basis_size)
    g = ground.astype(complex)
    x_mean = (g.conj() @ x @ g).real
    x_sq = (g.conj() @ x @ x @ g).real
    p_mean = (g.conj() @ p @ g).real
    p_sq = (g.conj() @ p @ p @ g).real
    return constants.hbar * math.sqrt(x_sq - x_mean**2) * math.sqrt(p_sq - p_mean**2)


def oscillator_for_species(species: LeptonSpecies, constants: ConstantsSet) -> tuple[float, float]:
    """The species' oscillator: its pair's reduced mass (kg) and resonant frequency (rad/s)."""
    return species.reduced_mass, characterize(species, constants).omega0


def energy_level(omega0: float, n: int, constants: ConstantsSet) -> float:
    """Oscillator eigenvalue hbar*omega0*(n + 1/2)."""
    if int(n) != n or n < 0:
        raise ValueError("level index must be a non-negative integer")
    return constants.hbar * omega0 * (n + 0.5)


def perturbed_ground_state_coefficient(
    reduced_mass: float, omega0: float, field: float, charge: float, constants: ConstantsSet
) -> float:
    """First-order amplitude of the first excited state in the polarized
    ground state; the only level mixed in by a field linear in x."""
    return charge * field / math.sqrt(2.0 * reduced_mass * constants.hbar * omega0**3)


def binding_energy_alpha_form(species: LeptonSpecies, constants: ConstantsSet) -> float:
    """The pair's Coulomb binding energy written through the fine-structure constant."""
    return -species.mass * constants.alpha**2 * constants.c_defined**2 / 4.0


def interaction_probability(
    pair: VfCharacterization, constants: ConstantsSet, decay: AnnihilationResult
) -> float:
    """Probability that a pair interacts with a photon during its lifetime,
    1 - exp(-Gamma*dt)."""
    # expm1 keeps the ~5e-12 exponent from drowning in the 1-ulp of 1.0.
    return -math.expm1(-constants.from_natural(decay.gamma, "rate") * pair.lifetime)


def effective_density_closed_form(species: LeptonSpecies, constants: ConstantsSet) -> float:
    """Closed form (alpha^5/4) (4mc/hbar)^3 of the effective density."""
    return (constants.alpha**5 / 4.0) * (4.0 * species.mass * constants.c_defined / constants.hbar) ** 3


def kinematic_check(electron_energy: float, photon_energy: float) -> str:
    """Single-photon annihilation kinematics for a pair at rest.

    The squared conservation constraint reduces to E^2 + E*w = 0, which a
    physical pair (E > 0) can never satisfy; only the transient-pair limit
    E -> 0 opens the channel.
    """
    if electron_energy < 0.0 or photon_energy < 0.0:
        raise ValueError("energies must be non-negative")
    constraint = electron_energy**2 + electron_energy * photon_energy
    return "allowed" if constraint == 0.0 else "forbidden"
