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
    omega0: float  # rad/s; the level spacing hbar*omega0 equals |binding energy|
    creation_energy: float  # J, 2 m c^2 borrowed to create the pair at rest (binding neglected)
    lifetime: float  # s, hbar / (2 * creation energy)
    length: float  # m, light travel in one lifetime, the pair's trembling amplitude hbar/(4 m c)
    volume: float  # m^3
    number_density: float  # 1/m^3, one pair per volume


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


def characterize(species: LeptonSpecies, constants: ConstantsSet) -> VfCharacterization:
    """Aggregate every per-species quantity. Its identities hold by construction
    on an audited ``ConstantsSet``, so none is re-checked here."""
    length = constants.hbar / (4.0 * species.mass * constants.c_defined)
    return VfCharacterization(
        species=species,
        binding_energy=binding_energy(species, constants),
        omega0=species.mass * constants.alpha**2 * constants.c_defined**2 / (4.0 * constants.hbar),
        creation_energy=2.0 * species.mass_energy,
        lifetime=constants.hbar / (4.0 * species.mass_energy),
        length=length,
        volume=length**3,
        number_density=1.0 / length**3,
    )
