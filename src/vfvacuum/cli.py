"""Command-line surface: reproducible reports, per-species tables, and the
verification suite. Exit codes: 0 all requested checks pass, 1 any check
failed, 2 usage or input error."""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import dirac, permittivity, report, vfmodel
# Unused here: bench/test_bench.py::test_tracer_patches_every_binding_site asserts cli.check_row.
from .checks import check_row  # noqa: F401
from .constants import (
    CONSTANT_NAMES,
    LEPTON_NAMES,
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


def _document(args: argparse.Namespace, constants, overrides) -> dict:
    """The fields the subcommand prints after ``constants_digest``. Raises
    ValueError for an input the subcommand cannot evaluate, and an
    ArithmeticError where an audited table's evaluation leaves the floats."""
    if args.command == "report":
        return report.build_report(constants, overrides)

    if args.command == "species":
        record = vfmodel.characterize(constants.lepton(args.name), constants)
        return {"species": report.vf_to_dict(record)}

    if args.command == "decay":
        species = constants.lepton(args.name)
        decay = dirac.decay_rate(species, constants)
        closed = permittivity.annihilation_rate_closed_form(species, constants)
        return {
            "decay": report.decay_to_dict(decay),
            "closed_form_rate_per_s": closed,
            "checks": report.checks_to_dicts(report.decay_checks(constants, decay, closed)),
        }

    if args.command == "trace-check":
        if args.trials < 1:
            raise ValueError("--trials must be at least 1")
        if args.seed < 0:
            raise ValueError("--seed must be non-negative")
        rows = dirac.verification_suite(trials=args.trials, seed=args.seed)
        return {"trials": args.trials, "seed": args.seed, "checks": report.checks_to_dicts(rows)}

    if args.command == "laser":
        laser = permittivity.LaserSpec(
            power=args.power, wavelength=args.wavelength, beam_radius=args.radius
        )
        density = permittivity.photon_number_density(laser, constants)
        electron_density = vfmodel.characterize(constants.lepton("electron"), constants).number_density
        return {
            "laser": {
                "power_W": laser.power,
                "wavelength_m": laser.wavelength,
                "beam_radius_m": laser.beam_radius,
            },
            "photon_density_per_m3": density,
            "electron_vf_density_per_m3": electron_density,
            "checks": report.checks_to_dicts(report.laser_checks(density, electron_density)),
        }

    return {  # constants
        "values": {name: getattr(constants, name) for name in CONSTANT_NAMES},
        "overrides": overrides,  # sorted by name
    }


def run(argv: list[str] | None = None) -> int:
    """Parse, load the constants, build and print one document. The exit code
    is 1 when any row of its ``checks`` fails, 2 for a usage or input error."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    overrides = None
    if args.constants:
        try:
            overrides = read_override_table(args.constants)
        except (OSError, ValueError) as exc:
            print(f"error: cannot read constants file: {exc}", file=sys.stderr)
            return 2
    try:
        constants = load_constants(overrides)
    except ValueError as exc:
        print(f"error: bad constants: {exc}", file=sys.stderr)
        return 2
    fields = tuple(item for item in sorted(vars(args).items()) if item[0] != "constants")
    try:
        # A ConsistencyError is a ValueError: an input the evaluation rejects.
        text, code = _output(fields, constants, tuple(sorted((overrides or {}).items())))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:  # an audited table whose evaluation leaves the floats
        print(f"error: the evaluation left float range: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    print(text)
    return code


@functools.lru_cache(maxsize=8)
def _output(fields: tuple, constants, override_items: tuple) -> tuple[str, int]:
    """(stdout text, exit code) of one parsed command. Every field that reaches the output
    is a positive finite float, a validated int or a choice string, so equal keys are
    bit-identical inputs and the memo changes no output; a raise is not kept."""
    args = argparse.Namespace(**dict(fields))
    document = {"constants_digest": constants_digest(), **_document(args, constants, dict(override_items))}
    text = report.to_json(document) if args.format == "json" else report.render_text(document)
    return text, 0 if all(row["status"] == "pass" for row in document.get("checks", ())) else 1


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout: point it at devnull so the flush at exit raises nothing.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
