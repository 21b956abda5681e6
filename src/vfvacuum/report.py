"""Deterministic report assembly: one document, stable field order, no clocks.

Reference targets for the self-check table are fixed here so that identical
inputs always produce byte-identical output.
"""

from __future__ import annotations

import functools
import json
import math
from typing import Mapping, Sequence

from . import dirac, permittivity, vfmodel
from .checks import CheckRow, check_row
from .constants import ConstantsSet, constants_digest

# Self-check targets and tolerances.
_EPS0_TARGET = 9.10e-12
_EPS0_DEVIATION_TARGET = 2.7
_C_TARGET = 2.96e8
_C_DEVIATION_TARGET = -1.4
_ELECTRON_DENSITY_TARGET = 1.12e39
_TAU_DENSITY_TARGET = 4.70e49
_ELECTRON_VF_LIFETIME_TARGET = 3.2e-22
_ELECTRON_DECAY_LIFETIME_TARGET = 6.2e-11
_LASER_REFERENCE = permittivity.LaserSpec(power=6000.0, wavelength=10e-6, beam_radius=0.16e-3)
_EVALUATION_CACHE_SIZE = 8  # distinct constants tables whose evaluation one process keeps


def _relative_to(value: float, target: float) -> float:
    return abs(value / target - 1.0)


def decay_checks(
    constants: ConstantsSet, decay: dirac.AnnihilationResult, closed_rate: float
) -> list[CheckRow]:
    """Rows of one lepton's decay pipeline against its closed-form rate
    ``closed_rate`` (1/s); the ``report`` and ``decay`` commands both emit them."""
    pipeline_rate = constants.from_natural(decay.gamma, "rate")
    return [
        check_row("sigma-coefficient-singlet", abs(decay.sigma_coefficient - 8.0), 1e-8),
        check_row(
            "decay-closed-form-agreement", _relative_to(pipeline_rate, closed_rate), 1e-9
        ),
    ]


def laser_checks(laser_density: float, electron_density: float) -> list[CheckRow]:
    """Row comparing a beam's photon density with the electron pair density,
    both per m^3; the ``report`` and ``laser`` commands both emit it."""
    return [check_row("laser-below-vf-density", laser_density / electron_density, 1.0)]


def report_checks(
    constants: ConstantsSet,
    report: permittivity.PermittivityReport,
    vf_records: Sequence[vfmodel.VfCharacterization],
) -> list[CheckRow]:
    """Deterministic (no-RNG) self-checks backing the report's exit code, read
    from the one evaluation of ``build_report``: no pipeline quantity is recomputed."""
    electron_vf, _, tau_vf = vf_records  # both in constants.leptons() order
    electron, decay = electron_vf.species, report.per_species[0].decay
    closed_rate = permittivity.annihilation_rate_closed_form(electron, constants)
    two_photon = dirac.two_photon_rate_natural(decay)
    laser_density = permittivity.photon_number_density(_LASER_REFERENCE, constants)

    contributions = [entry.contribution for entry in report.per_species]
    spread = (max(contributions) - min(contributions)) / min(contributions)
    closed_contribution = permittivity.eps0_contribution_closed_form(constants)
    two_path = max(_relative_to(value, closed_contribution) for value in contributions)

    return [
        check_row("eps0-headline", _relative_to(report.eps0_calculated, _EPS0_TARGET), 5e-3),
        check_row(
            "eps0-deviation-window", abs(report.deviation_percent - _EPS0_DEVIATION_TARGET), 0.3
        ),
        check_row("c-headline", _relative_to(report.c_calculated, _C_TARGET), 5e-3),
        check_row(
            "c-deviation-window", abs(report.c_deviation_percent - _C_DEVIATION_TARGET), 0.3
        ),
        check_row("per-species-equality", spread, 1e-9),
        check_row("pipeline-vs-closed-contribution", two_path, 1e-9),
        check_row(
            "alpha-vs-mu0-closed-form",
            abs(report.eps0_mu0_form / report.eps0_alpha_form - 1.0),
            1e-6,
        ),
        check_row(
            "electron-vf-density",
            _relative_to(electron_vf.number_density, _ELECTRON_DENSITY_TARGET),
            0.02,
        ),
        check_row("tau-vf-density", _relative_to(tau_vf.number_density, _TAU_DENSITY_TARGET), 0.02),
        check_row(
            "electron-vf-lifetime",
            _relative_to(electron_vf.lifetime, _ELECTRON_VF_LIFETIME_TARGET),
            0.02,
        ),
        check_row(
            "electron-decay-lifetime",
            _relative_to(decay.lifetime, _ELECTRON_DECAY_LIFETIME_TARGET),
            0.01,
        ),
        *decay_checks(constants, decay, closed_rate),
        check_row("two-photon-half-rate", abs(2.0 * two_photon / decay.gamma - 1.0), 1e-12),
        check_row(
            "permeability-identity",
            abs(constants.mu0 * constants.eps0_accepted * constants.c_defined**2 - 1.0),
            1e-6,
        ),
        check_row("laser-density-window", abs(math.log10(laser_density) - 22.0), 1.0),
        *laser_checks(laser_density, electron_vf.number_density),
    ]


def permittivity_to_dict(report: permittivity.PermittivityReport) -> dict:
    return {
        "per_species": [
            {
                "species": entry.species,
                "n_vf_per_m3": entry.n_vf,
                "dipole_per_field_Cm2_per_V": entry.dipole_per_field,
                "contribution_C_per_Vm": entry.contribution,
            }
            for entry in report.per_species
        ],
        "eps0_calculated_C_per_Vm": report.eps0_calculated,
        "eps0_accepted_C_per_Vm": report.eps0_accepted,
        "deviation_percent": report.deviation_percent,
        "c_calculated_m_per_s": report.c_calculated,
        "c_deviation_percent": report.c_deviation_percent,
        "eps0_alpha_form_C_per_Vm": report.eps0_alpha_form,
        "eps0_mu0_form_C_per_Vm": report.eps0_mu0_form,
        "quark_contributions": report.quark_contributions,
    }


def vf_to_dict(record: vfmodel.VfCharacterization) -> dict:
    return {
        "species": record.species.name,
        "binding_energy_J": record.binding_energy,
        "omega0_rad_per_s": record.omega0,
        "creation_energy_J": record.creation_energy,
        "lifetime_s": record.lifetime,
        "length_m": record.length,
        "volume_m3": record.volume,
        "number_density_per_m3": record.number_density,
    }


def decay_to_dict(result: dirac.AnnihilationResult) -> dict:
    return {
        "species": result.species,
        "sigma_coefficient": result.sigma_coefficient,
        "gamma_natural_MeV": result.gamma,
        "lifetime_s": result.lifetime,
    }


def checks_to_dicts(rows: Sequence[CheckRow]) -> list[dict]:
    return [
        {
            "name": row.name,
            "status": row.status,
            "measured": row.measured,
            "tolerance": row.tolerance,
        }
        for row in rows
    ]


def build_report(
    constants: ConstantsSet, overrides: Mapping[str, float] | None = None
) -> dict:
    """Full report document with stable field order, built fresh on every call
    from the one evaluation of ``constants`` that its tables and checks read."""
    perm, vf_records, checks = _evaluate(constants)
    return {
        "constants_digest": constants_digest(),
        "overrides": {name: overrides[name] for name in sorted(overrides)} if overrides else {},
        "permittivity": permittivity_to_dict(perm),
        "vf_table": [vf_to_dict(record) for record in vf_records],
        "decay_table": [decay_to_dict(entry.decay) for entry in perm.per_species],
        "checks": checks_to_dicts(checks),
    }


@functools.lru_cache(maxsize=_EVALUATION_CACHE_SIZE)
def _evaluate(constants: ConstantsSet) -> tuple[permittivity.PermittivityReport, tuple, tuple]:
    """Frozen (report, pair records, check rows) of a table. Equal audited tables are bit-identical
    (all fields positive finite floats), so the memo changes no output; a raise is not kept."""
    vf_records = tuple(vfmodel.characterize(s, constants) for s in constants.leptons())
    perm = permittivity.eps0_total(constants)
    return perm, vf_records, tuple(report_checks(constants, perm, vf_records))


def to_json(document: dict) -> str:
    """Canonical JSON form: full float precision, stable key order."""
    return json.dumps(document, indent=2)


def format_number(value) -> str:
    """Text-mode rendering, 6 significant digits for floats."""
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _render_table(rows: list[dict], title: str, lines: list[str]) -> None:
    lines.append(title)
    for row in rows:
        parts = [f"{key}={format_number(value)}" for key, value in row.items()]
        lines.append("  " + "  ".join(parts))


def render_text(document: dict) -> str:
    """Human-readable rendering of a report document."""
    lines: list[str] = []
    for key, value in document.items():
        if key == "overrides" and not value:
            continue
        if key == "permittivity":
            perm = dict(value)
            _render_table(perm.pop("per_species"), "per-species contributions:", lines)
            for name, entry in perm.items():
                lines.append(f"{name}: {format_number(entry)}")
        elif key == "vf_table":
            _render_table(value, "pair characteristics:", lines)
        elif key == "decay_table":
            _render_table(value, "decay rates:", lines)
        elif key == "checks":
            lines.append("checks:")
            for row in value:
                lines.append(
                    f"  [{row['status']}] {row['name']}: measured={format_number(row['measured'])}"
                    f" tolerance={format_number(row['tolerance'])}"
                )
        elif isinstance(value, dict):
            lines.append(f"{key}:")
            for name, entry in value.items():
                lines.append(f"  {name} = {format_number(entry)}")
        else:
            lines.append(f"{key}: {format_number(value)}")
    return "\n".join(lines)
