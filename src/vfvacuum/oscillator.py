"""One-dimensional oscillator model of a photon-polarized pair.

The photon's oscillating field enters frozen at its value at the moment of
interaction, so the response is static: first-order perturbation theory gives
the polarized ground state and its dipole moment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .constants import ConstantsSet
from .vfmodel import VfCharacterization


@dataclass(frozen=True)
class OscillatorSpec:
    reduced_mass: float  # kg
    omega0: float  # rad/s

    def __post_init__(self):
        if not (self.reduced_mass > 0.0):
            raise ValueError("reduced_mass must be positive")
        if not (self.omega0 > 0.0):
            raise ValueError("omega0 must be positive")


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


def dipole_expectation(spec: OscillatorSpec, photon: PhotonField, constants: ConstantsSet) -> float:
    """Dipole moment of the polarized ground state, (q^2/mu) E / omega0^2.

    First order in the field: only the ground/first-excited cross term
    contributes.
    """
    return (photon.charge**2 / spec.reduced_mass) * photon.e_field_at_interaction / spec.omega0**2


def species_dipole(pair: VfCharacterization, constants: ConstantsSet, photon: PhotonField) -> float:
    """Dipole of a polarized pair from its record (reduced mass and omega0); the
    coupling charge is the species charge."""
    spec = OscillatorSpec(reduced_mass=pair.species.reduced_mass, omega0=pair.omega0)
    effective = PhotonField(photon.e_field_at_interaction, pair.species.charge_magnitude)
    return dipole_expectation(spec, effective, constants)
