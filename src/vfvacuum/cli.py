"""Command-line surface: reproducible reports, per-species tables, and the
verification suite. Exit codes: 0 all requested checks pass, 1 any check
failed, 2 usage or input error."""

from __future__ import annotations

import argparse
import functools
import sys

from . import dirac, permittivity, report, vfmodel
from .checks import all_pass, check_row
from .constants import (
    CONSTANT_NAMES,
    LEPTON_NAMES,
    ConsistencyError,
    constants_digest,
    load_constants,
    read_override_table,
)


def _common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--constants", metavar="FILE", help="constants override file")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="vfvacuum",
        description=(
            "Vacuum permittivity and speed of light from polarizable "
            "lepton-antilepton pairs, with a verified Dirac trace engine."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    sub = subparsers.add_parser("report", help="full report with self-checks")
    _common_flags(sub)

    sub = subparsers.add_parser("species", help="pair characteristics for one lepton")
    sub.add_argument("name", choices=LEPTON_NAMES)
    _common_flags(sub)

    sub = subparsers.add_parser("decay", help="annihilation pipeline for one lepton")
    sub.add_argument("name", choices=LEPTON_NAMES)
    _common_flags(sub)

    sub = subparsers.add_parser("trace-check", help="Dirac engine verification suite")
    sub.add_argument("--trials", type=int, default=100)
    sub.add_argument("--seed", type=int, default=0)
    _common_flags(sub)

    sub = subparsers.add_parser("laser", help="photon number density of a beam")
    sub.add_argument("--power", type=float, required=True, help="W")
    sub.add_argument("--wavelength", type=float, required=True, help="m")
    sub.add_argument("--radius", type=float, required=True, help="m")
    _common_flags(sub)

    sub = subparsers.add_parser("constants", help="pinned constants and digest")
    _common_flags(sub)

    return parser


def _emit(document: dict, fmt: str) -> None:
    if fmt == "json":
        print(report.to_json(document))
    else:
        print(report.render_text(document))


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    overrides = None
    if getattr(args, "constants", None):
        try:
            overrides = read_override_table(args.constants)
        except (OSError, ValueError) as exc:
            print(f"error: cannot read constants file: {exc}", file=sys.stderr)
            return 2
    try:
        constants = load_constants(overrides)
    except (ConsistencyError, ValueError) as exc:
        print(f"error: bad constants: {exc}", file=sys.stderr)
        return 2

    if args.command == "report":
        document = report.build_report(constants, overrides)
        _emit(document, args.format)
        return 0 if all(row["status"] == "pass" for row in document["checks"]) else 1

    if args.command == "species":
        record = vfmodel.characterize(constants.lepton(args.name), constants)
        document = {
            "constants_digest": constants_digest(),
            "species": report.vf_to_dict(record),
        }
        _emit(document, args.format)
        return 0

    if args.command == "decay":
        species = constants.lepton(args.name)
        result = dirac.decay_rate(species, constants)
        closed = permittivity.annihilation_rate_closed_form(species, constants)
        pipeline = constants.from_natural(result.gamma, "rate")
        rows = [
            check_row("sigma-coefficient-singlet", abs(result.sigma_coefficient - 8.0), 1e-8),
            check_row("decay-closed-form-agreement", abs(pipeline / closed - 1.0), 1e-9),
        ]
        document = {
            "constants_digest": constants_digest(),
            "decay": report.decay_to_dict(result),
            "closed_form_rate_per_s": closed,
            "checks": report.checks_to_dicts(rows),
        }
        _emit(document, args.format)
        return 0 if all_pass(rows) else 1

    if args.command == "trace-check":
        if args.trials < 1:
            print("error: --trials must be at least 1", file=sys.stderr)
            return 2
        if args.seed < 0:
            print("error: --seed must be non-negative", file=sys.stderr)
            return 2
        rows = dirac.verification_suite(trials=args.trials, seed=args.seed)
        document = {
            "constants_digest": constants_digest(),
            "trials": args.trials,
            "seed": args.seed,
            "checks": report.checks_to_dicts(rows),
        }
        _emit(document, args.format)
        return 0 if all_pass(rows) else 1

    if args.command == "laser":
        try:
            laser = permittivity.LaserSpec(
                power=args.power, wavelength=args.wavelength, beam_radius=args.radius
            )
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        density = permittivity.photon_number_density(laser, constants)
        electron_density = vfmodel.number_density(constants.lepton("electron"), constants)
        rows = [
            check_row("laser-below-vf-density", density / electron_density, 1.0),
        ]
        document = {
            "constants_digest": constants_digest(),
            "laser": {
                "power_W": laser.power,
                "wavelength_m": laser.wavelength,
                "beam_radius_m": laser.beam_radius,
            },
            "photon_density_per_m3": density,
            "electron_vf_density_per_m3": electron_density,
            "checks": report.checks_to_dicts(rows),
        }
        _emit(document, args.format)
        return 0 if all_pass(rows) else 1

    if args.command == "constants":
        document = {
            "constants_digest": constants_digest(),
            "values": {name: getattr(constants, name) for name in CONSTANT_NAMES},
            "overrides": {k: overrides[k] for k in sorted(overrides)} if overrides else {},
        }
        _emit(document, args.format)
        return 0

    parser.error(f"unknown command {args.command!r}")
    return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
