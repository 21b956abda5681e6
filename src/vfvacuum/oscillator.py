"""One-dimensional oscillator model of a photon-polarized pair.

The photon's oscillating field enters frozen at its value at the moment of
interaction, so the response is static: first-order perturbation theory gives
the polarized ground state and its dipole moment. An independent
matrix-diagonalization oracle validates the closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constants import ConstantsSet, LeptonSpecies
from .vfmodel import VfCharacterization, resonant_frequency


@dataclass(frozen=True)
class OscillatorSpec:
    reduced_mass: float  # kg
    omega0: float  # rad/s
    basis_size: int = 64  # oracle truncation

    def __post_init__(self):
        if not (self.reduced_mass > 0.0):
            raise ValueError("reduced_mass must be positive")
        if not (self.omega0 > 0.0):
            raise ValueError("omega0 must be positive")
        if int(self.basis_size) != self.basis_size or self.basis_size < 8:
            raise ValueError("basis_size must be an integer >= 8")


@dataclass(frozen=True)
class PhotonField:
    """Electric field of one photon frozen at the interaction instant."""

    e_field_at_interaction: float  # V/m, may be negative or zero
    charge: float  # C

    def __post_init__(self):
        if not (self.charge > 0.0):
            raise ValueError("charge must be positive")
        if not math.isfinite(self.e_field_at_interaction):
            raise ValueError("field value must be finite")


def energy_level(spec: OscillatorSpec, n: int, constants: ConstantsSet) -> float:
    """Oscillator eigenvalue hbar*omega0*(n + 1/2)."""
    if int(n) != n or n < 0:
        raise ValueError("level index must be a non-negative integer")
    return constants.hbar * spec.omega0 * (n + 0.5)


def perturbed_ground_state_coefficient(
    spec: OscillatorSpec, photon: PhotonField, constants: ConstantsSet
) -> float:
    """First-order amplitude of the first excited state in the polarized
    ground state; the only level mixed in by a field linear in x."""
    return photon.charge * photon.e_field_at_interaction / math.sqrt(
        2.0 * spec.reduced_mass * constants.hbar * spec.omega0**3
    )


def dipole_expectation(spec: OscillatorSpec, photon: PhotonField, constants: ConstantsSet) -> float:
    """Dipole moment of the polarized ground state, (q^2/mu) E / omega0^2.

    First order in the field: only the ground/first-excited cross term
    contributes.
    """
    return (photon.charge**2 / spec.reduced_mass) * photon.e_field_at_interaction / spec.omega0**2


def _ladder_offdiagonal(n: int) -> np.ndarray:
    return np.sqrt(np.arange(1, n) / 2.0)


def _dimensionless_operators(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Position and momentum matrices in the number basis, units of the
    oscillator length sqrt(hbar/(mu*omega)) and hbar over that length."""
    off = _ladder_offdiagonal(n)
    x = np.zeros((n, n))
    x[np.arange(n - 1), np.arange(1, n)] = off
    x[np.arange(1, n), np.arange(n - 1)] = off
    p = np.zeros((n, n), dtype=complex)
    p[np.arange(n - 1), np.arange(1, n)] = -1j * off
    p[np.arange(1, n), np.arange(n - 1)] = 1j * off
    return x, p


def _diagonalized_ground_state(
    spec: OscillatorSpec, photon: PhotonField, constants: ConstantsSet
) -> tuple[np.ndarray, np.ndarray, float]:
    """Ground state of the full Hamiltonian in the truncated number basis.

    Works in dimensionless oscillator units so the matrix is well scaled
    regardless of the SI magnitudes involved.
    """
    n = spec.basis_size
    length = math.sqrt(constants.hbar / (spec.reduced_mass * spec.omega0))
    strength = photon.charge * photon.e_field_at_interaction * length / (constants.hbar * spec.omega0)
    x, _ = _dimensionless_operators(n)
    hamiltonian = np.diag(np.arange(n) + 0.5) - strength * x
    try:
        _, vectors = np.linalg.eigh(hamiltonian)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"oscillator diagonalization failed to converge: {exc}") from exc
    return vectors[:, 0], x, length


def dipole_oracle(spec: OscillatorSpec, photon: PhotonField, constants: ConstantsSet) -> float:
    """Dipole moment from brute-force diagonalization of the full Hamiltonian.

    Independent of the perturbative path: builds the basis_size x basis_size
    matrix of the oscillator plus the linear field coupling, diagonalizes it,
    and evaluates q<x> in the true ground state.
    """
    ground, x, length = _diagonalized_ground_state(spec, photon, constants)
    return photon.charge * length * float(ground @ x @ ground)


def ground_state_uncertainty_product(
    spec: OscillatorSpec, constants: ConstantsSet, photon: PhotonField | None = None
) -> float:
    """Delta-x * Delta-p of the diagonalized ground state (hbar/2 at zero field)."""
    if photon is None:
        photon = PhotonField(0.0, constants.e_charge)
    ground, _, _ = _diagonalized_ground_state(spec, photon, constants)
    x, p = _dimensionless_operators(spec.basis_size)
    g = ground.astype(complex)
    x_mean = (g.conj() @ x @ g).real
    x_sq = (g.conj() @ x @ x @ g).real
    p_mean = (g.conj() @ p @ g).real
    p_sq = (g.conj() @ p @ p @ g).real
    return constants.hbar * math.sqrt(x_sq - x_mean**2) * math.sqrt(p_sq - p_mean**2)


def oscillator_for_species(
    species: LeptonSpecies, constants: ConstantsSet, basis_size: int = 64
) -> OscillatorSpec:
    return OscillatorSpec(
        reduced_mass=species.reduced_mass,
        omega0=resonant_frequency(species, constants),
        basis_size=basis_size,
    )


def species_dipole(pair: VfCharacterization, constants: ConstantsSet, photon: PhotonField) -> float:
    """Dipole of a polarized pair from its record (reduced mass and omega0); the
    coupling charge is the species charge."""
    spec = OscillatorSpec(reduced_mass=pair.species.reduced_mass, omega0=pair.omega0)
    effective = PhotonField(photon.e_field_at_interaction, pair.species.charge_magnitude)
    return dipole_expectation(spec, effective, constants)
