"""Vacuum permittivity and speed of light from polarizable lepton-antilepton
vacuum fluctuations, with a numerically verified Dirac trace engine."""

from .constants import (
    ConsistencyError,
    ConstantsSet,
    LeptonSpecies,
    constants_digest,
    load_constants,
    read_override_table,
)
from .dirac import AnnihilationResult, decay_rate
from .permittivity import LaserSpec, PermittivityReport, eps0_total, photon_number_density
from .vfmodel import VfCharacterization, characterize

__version__ = "0.1.0"

__all__ = [
    "AnnihilationResult",
    "ConsistencyError",
    "ConstantsSet",
    "LaserSpec",
    "LeptonSpecies",
    "PermittivityReport",
    "VfCharacterization",
    "characterize",
    "constants_digest",
    "decay_rate",
    "eps0_total",
    "load_constants",
    "photon_number_density",
    "read_override_table",
    "__version__",
]
