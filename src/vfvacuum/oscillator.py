"""One-dimensional oscillator model of a photon-polarized pair.

The photon's oscillating field enters frozen at its value at the moment of
interaction, so the response is static: first-order perturbation theory gives
the polarized ground state, whose dipole moment is linear in the field.
"""

from __future__ import annotations

from .vfmodel import VfCharacterization


def species_dipole(pair: VfCharacterization) -> float:
    """Dipole per unit field of a polarized pair, (q^2/mu) / omega0^2 in C*m^2/V, from its
    record (reduced mass and omega0); the coupling charge is the species charge. First
    order in the field: only the ground/first-excited cross term contributes."""
    return (pair.species.charge_magnitude**2 / pair.species.reduced_mass) / pair.omega0**2
