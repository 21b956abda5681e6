"""Vacuum permittivity and speed of light from polarizable transient pairs.

The headline numbers flow through the full pipeline: the decay rate comes
from the Dirac engine, the pair characteristics from ``vfmodel``, and the
dipole response from ``oscillator``; the closed forms are kept only as
cross-checks. Each lepton species contributes the same amount because the
mass cancels, so the total is three times the per-species term. Quark
contributions carry no closed form and are reported as excluded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import dirac, oscillator, vfmodel
from .constants import ConsistencyError, ConstantsSet, LeptonSpecies

QUARK_CONTRIBUTION_NOTE = (
    "quark-antiquark pairs excluded: suppressed by at least 1e-4 relative to the "
    "lepton total, no closed form"
)


@dataclass(frozen=True)
class SpeciesContribution:
    species: str
    n_vf: float  # effective interacting density, 1/m^3
    dipole_per_field: float  # C*m^2/V
    contribution: float  # C/(V*m)
    decay: dirac.AnnihilationResult  # the pipeline decay that sets n_vf


@dataclass(frozen=True)
class PermittivityReport:
    per_species: tuple[SpeciesContribution, ...]
    eps0_calculated: float  # C/(V*m)
    eps0_accepted: float
    deviation_percent: float
    c_calculated: float  # m/s
    c_deviation_percent: float
    eps0_alpha_form: float  # closed form through alpha
    eps0_mu0_form: float  # closed form through mu0
    quark_contributions: str


@dataclass(frozen=True)
class LaserSpec:
    power: float  # W
    wavelength: float  # m
    beam_radius: float  # m

    def __post_init__(self):
        if not all(0.0 < value < math.inf for value in (self.power, self.wavelength, self.beam_radius)):
            raise ValueError("laser power, wavelength, and beam radius must all be finite and positive")


def annihilation_rate_closed_form(species: LeptonSpecies, constants: ConstantsSet) -> float:
    """Closed-form decay rate alpha^5 m c^2 / hbar, 1/s; pipeline cross-check."""
    return constants.alpha**5 * species.mass_energy / constants.hbar


def interaction_probability_linearized(
    species: LeptonSpecies, constants: ConstantsSet, decay: dirac.AnnihilationResult
) -> float:
    """Rate-lifetime product Gamma * dt of ``decay`` (a ``decay_rate`` result),
    the small exponent of the interaction probability; algebraically alpha^5/4."""
    return constants.from_natural(decay.gamma, "rate") * vfmodel.vf_lifetime(species, constants)


def interaction_probability(
    species: LeptonSpecies, constants: ConstantsSet, decay: dirac.AnnihilationResult
) -> float:
    """Probability that a pair interacts with a photon during its lifetime,
    1 - exp(-Gamma*dt)."""
    # expm1 keeps the ~5e-12 exponent from drowning in the 1-ulp of 1.0.
    return -math.expm1(-interaction_probability_linearized(species, constants, decay))


def effective_density(
    species: LeptonSpecies, constants: ConstantsSet, decay: dirac.AnnihilationResult
) -> float:
    """Density of pairs that actually interact: number density times the
    linearized interaction probability."""
    return vfmodel.number_density(species, constants) * interaction_probability_linearized(
        species, constants, decay
    )


def effective_density_closed_form(species: LeptonSpecies, constants: ConstantsSet) -> float:
    """Closed form (alpha^5/4) (4mc/hbar)^3 of the effective density."""
    return (constants.alpha**5 / 4.0) * (
        4.0 * species.mass * constants.c_defined / constants.hbar
    ) ** 3


def _species_contribution(
    species: LeptonSpecies, constants: ConstantsSet, decay: dirac.AnnihilationResult
) -> SpeciesContribution:
    """One species' permittivity contribution: effective density times the
    dipole response per unit field, from its held ``decay_rate`` result."""
    dipole_per_field = oscillator.species_dipole(
        species, constants, oscillator.PhotonField(1.0, species.charge_magnitude)
    )
    n_vf = effective_density(species, constants, decay)
    return SpeciesContribution(species.name, n_vf, dipole_per_field, n_vf * dipole_per_field, decay)


def eps0_contribution_closed_form(constants: ConstantsSet) -> float:
    """Closed form 8^3 alpha e^2/(hbar c) of the per-species contribution."""
    return 512.0 * constants.alpha * constants.e_charge**2 / (constants.hbar * constants.c_defined)


def eps0_total(constants: ConstantsSet) -> PermittivityReport:
    """Assemble the permittivity report: per-species pipeline contributions,
    totals, closed forms, and deviations from the accepted values."""
    leptons = constants.leptons()
    decays = dirac.decay_rate(leptons, constants)  # one batched pass for all three
    per_species = [_species_contribution(s, constants, d) for s, d in zip(leptons, decays)]
    contributions = [entry.contribution for entry in per_species]
    # The one guard: c_calculated needs it. Mass cancellation and the alpha-vs-mu0
    # agreement are the report rows per-species-equality and alpha-vs-mu0-closed-form.
    if not all(0.0 < value < math.inf for value in contributions):  # NaN fails too
        raise ConsistencyError("every species contribution must be finite and positive")

    eps0_calculated = sum(contributions)
    alpha_form = 3.0 * eps0_contribution_closed_form(constants)
    mu0_form = (6.0 * constants.mu0 / math.pi) * (8.0 * constants.e_charge**2 / constants.hbar) ** 2

    c_calculated = 1.0 / math.sqrt(constants.mu0 * eps0_calculated)
    return PermittivityReport(
        per_species=tuple(per_species),
        eps0_calculated=eps0_calculated,
        eps0_accepted=constants.eps0_accepted,
        deviation_percent=100.0 * (eps0_calculated / constants.eps0_accepted - 1.0),
        c_calculated=c_calculated,
        c_deviation_percent=100.0 * (c_calculated / constants.c_defined - 1.0),
        eps0_alpha_form=alpha_form,
        eps0_mu0_form=mu0_form,
        quark_contributions=QUARK_CONTRIBUTION_NOTE,
    )


def photon_number_density(laser: LaserSpec, constants: ConstantsSet) -> float:
    """Beam photon density P*lambda/(h c^2 pi r^2); ValueError unless it is finite and positive."""
    denominator = constants.h * constants.c_defined**2 * (math.pi * laser.beam_radius**2)
    density = laser.power * laser.wavelength / denominator if denominator else math.inf
    if not 0.0 < density < math.inf:
        raise ValueError(f"the beam's photon number density {density!r} per m^3 is out of float range")
    return density
