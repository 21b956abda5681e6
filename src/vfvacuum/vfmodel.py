"""Characteristics of a transient bound lepton-antilepton pair (a VF).

Everything here is evaluated in SI; natural-unit views go through
``ConstantsSet.to_natural`` so no hbar=c=1 shortcut leaks between modules.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .constants import ConstantsSet, LeptonSpecies


@dataclass(frozen=True)
class VfCharacterization:
    species: LeptonSpecies
    binding_energy: float  # J, negative
    omega0: float  # rad/s
    creation_energy: float  # J
    lifetime: float  # s
    length: float  # m
    volume: float  # m^3
    number_density: float  # 1/m^3


def binding_energy(species: LeptonSpecies, constants: ConstantsSet) -> float:
    """Ground-state binding energy of the pair, Coulomb form (J, negative). Where the
    direct form leaves the normal floats, mu/2 (e^2/(4 pi eps0 hbar))^2 keeps its
    intermediates in range; ValueError where that is no normal float either."""
    mu = species.reduced_mass
    e = species.charge_magnitude
    forms = (
        lambda: -mu * e**4 / (2.0 * (4.0 * math.pi * constants.eps0_accepted) ** 2 * constants.hbar**2),
        lambda: -mu / 2.0 * (e**2 / (4.0 * math.pi * constants.eps0_accepted * constants.hbar)) ** 2,
    )
    for form in forms:
        try:
            value = form()
        except (OverflowError, ZeroDivisionError):
            continue
        if sys.float_info.min <= -value < math.inf:
            return value
    raise ValueError(f"the {species.name} pair's binding energy is out of float range")


def resonant_frequency(species: LeptonSpecies, constants: ConstantsSet) -> float:
    """Effective oscillator frequency: level spacing equals |binding energy|."""
    return species.mass * constants.alpha**2 * constants.c_defined**2 / (4.0 * constants.hbar)


def creation_energy(species: LeptonSpecies, constants: ConstantsSet) -> float:
    """Energy borrowed to create the pair at rest, 2*m*c^2 (binding neglected)."""
    return 2.0 * species.mass_energy


def vf_lifetime(species: LeptonSpecies, constants: ConstantsSet) -> float:
    """Average lifetime of the pair, hbar/(2 * creation energy)."""
    return constants.hbar / (4.0 * species.mass_energy)


def vf_length(species: LeptonSpecies, constants: ConstantsSet) -> float:
    """Light-travel distance during the lifetime; also the internal trembling
    amplitude that sets the pair's size, hbar/(4*m*c)."""
    return constants.hbar / (4.0 * species.mass * constants.c_defined)


def number_density(species: LeptonSpecies, constants: ConstantsSet) -> float:
    """One pair per pair volume: 1/length^3."""
    return 1.0 / vf_length(species, constants) ** 3


def characterize(species: LeptonSpecies, constants: ConstantsSet) -> VfCharacterization:
    """Aggregate every per-species quantity. Its identities hold by construction
    on an audited ``ConstantsSet``, so none is re-checked here."""
    length = vf_length(species, constants)
    return VfCharacterization(
        species=species,
        binding_energy=binding_energy(species, constants),
        omega0=resonant_frequency(species, constants),
        creation_energy=creation_energy(species, constants),
        lifetime=vf_lifetime(species, constants),
        length=length,
        volume=length**3,
        number_density=1.0 / length**3,
    )
