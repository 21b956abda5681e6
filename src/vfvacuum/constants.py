"""Pinned fundamental constants, lepton data, and SI/natural-unit conversion.

All values live in a versioned data file shipped with the package; nothing is
fetched at runtime. Every ``ConstantsSet`` is immutable and audited when it
is built, so neither a bad override nor a set built directly can be silently
inconsistent.
"""

from __future__ import annotations

import functools
import hashlib
import math
import sys
from dataclasses import dataclass, fields
from importlib import resources
from typing import Mapping


class ConsistencyError(ValueError):
    """A constants table violates one of its self-consistency requirements."""


LEPTON_NAMES = ("electron", "muon", "tau")

# Lepton masses (kg) accepted by load_constants. Every invariant check row of
# the report passes from 10^-82.4 to 10^21.4 kg for each lepton; outside that
# the decay pipeline under- or overflows.
LEPTON_MASS_DOMAIN = (1e-80, 1e20)

# Natural-unit convention: masses and rates in MeV.
NATURAL_DIMENSIONS = ("mass", "rate")

# Located once per process; pinned_constants_text still reads it on every call.
_PINNED_FILE = resources.files("vfvacuum.data").joinpath("si_constants.txt")


@dataclass(frozen=True)
class LeptonSpecies:
    """One charged lepton flavor; parameterizes every per-species formula."""

    name: str
    mass: float
    mass_energy: float
    charge_magnitude: float

    @property
    def reduced_mass(self) -> float:
        """Reduced mass of the lepton-antilepton pair (half the lepton mass)."""
        return self.mass / 2.0


@dataclass(frozen=True)
class ConstantsSet:
    """Immutable set of SI constants, audited when built. Safe for concurrent reads."""

    c_defined: float
    h: float
    hbar: float
    e_charge: float
    alpha: float
    mu0: float
    eps0_accepted: float
    electronvolt: float
    m_electron: float
    m_muon: float
    m_tau: float

    def __post_init__(self):
        _check_invariants(self)

    def lepton(self, name: str) -> LeptonSpecies:
        if name not in LEPTON_NAMES:
            raise ValueError(f"unknown lepton species: {name!r} (expected one of {LEPTON_NAMES})")
        mass = getattr(self, f"m_{name}")
        return LeptonSpecies(
            name=name,
            mass=mass,
            mass_energy=mass * self.c_defined**2,
            charge_magnitude=self.e_charge,
        )

    def leptons(self) -> tuple[LeptonSpecies, ...]:
        return tuple(self.lepton(name) for name in LEPTON_NAMES)

    def _natural_scale(self, dimension: str) -> float:
        """Multiplier taking an SI value to MeV-based natural units."""
        mev = self.electronvolt * 1e6
        if dimension == "mass":
            return self.c_defined**2 / mev
        if dimension == "rate":
            return self.hbar / mev
        raise ValueError(
            f"unsupported dimension tag: {dimension!r} (expected one of {NATURAL_DIMENSIONS})"
        )

    def to_natural(self, value: float, dimension: str) -> float:
        """Convert an SI value to natural units (MeV powers)."""
        return value * self._natural_scale(dimension)

    def from_natural(self, value: float, dimension: str) -> float:
        """Convert a natural-unit value back to SI."""
        return value / self._natural_scale(dimension)


CONSTANT_NAMES = tuple(field.name for field in fields(ConstantsSet))


def pinned_constants_text() -> str:
    """Raw text of the pinned constants file shipped with the package."""
    return _PINNED_FILE.read_text(encoding="utf-8")


@functools.cache
def constants_digest() -> str:
    """SHA-256 hex digest of the pinned constants file, hashed once per process."""
    return hashlib.sha256(pinned_constants_text().encode("utf-8")).hexdigest()


def parse_constants_text(text: str) -> dict[str, float]:
    """Parse line-oriented ``name = value`` text with ``#`` comments.

    Names are case-sensitive; values may be decimal or scientific notation. A
    name given twice is an error naming both lines.
    """
    table: dict[str, float] = {}
    first_line: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'name = value', got {raw!r}")
        name, _, value = line.partition("=")
        name = name.strip()
        if name in first_line:
            raise ValueError(f"line {lineno}: {name!r} already set on line {first_line[name]}")
        first_line[name] = lineno
        try:
            table[name] = float(value.strip())
        except ValueError as exc:
            raise ValueError(f"line {lineno}: bad numeric value for {name!r}: {value.strip()!r}") from exc
    return table


@functools.lru_cache(maxsize=1)
def _parse_pinned(text: str) -> tuple[tuple[str, float], ...]:
    return tuple(parse_constants_text(text).items())


def read_override_table(path) -> dict[str, float]:
    """Read a constants override file (same format as the pinned file)."""
    with open(path, encoding="utf-8") as handle:
        return parse_constants_text(handle.read())


def load_constants(overrides: Mapping[str, float] | None = None) -> ConstantsSet:
    """Load the pinned constants and apply overrides; building the set audits it.

    Raises ValueError for an unknown override name and ConsistencyError when
    the merged table violates a self-consistency requirement.
    """
    table = dict(_parse_pinned(pinned_constants_text()))
    if overrides:
        for name, value in overrides.items():
            if name not in CONSTANT_NAMES:
                raise ValueError(f"unknown constant name: {name!r}")
            table[name] = float(value)
    missing = [name for name in CONSTANT_NAMES if name not in table]
    if missing:
        raise ConsistencyError(f"pinned constants file is missing entries: {missing}")
    return ConstantsSet(**{name: table[name] for name in CONSTANT_NAMES})


def _rel_err(value: float, reference: float) -> float:
    return abs(value - reference) / abs(reference)


def _check_invariants(c: ConstantsSet) -> None:
    """The one home of every table invariant; the physics layers re-check none."""
    for name in CONSTANT_NAMES:
        value = getattr(c, name)
        if not math.isfinite(value) or value <= 0.0:
            raise ConsistencyError(f"constant {name} must be positive and finite, got {value!r}")

    low, high = LEPTON_MASS_DOMAIN
    for name in LEPTON_NAMES:
        mass = getattr(c, f"m_{name}")
        if not low <= mass <= high:
            raise ConsistencyError(
                f"m_{name} = {mass!r} kg is outside the lepton mass domain [{low!r}, {high!r}] kg"
            )

    # eps0 is stored independently and audited against the defining relation,
    # never derived silently; the headline comparison must not be circular.
    # 5e-10 keeps alpha^2, which the pair formulas read in both forms, within 1e-9.
    relations = (
        (lambda: _rel_err(c.hbar, c.h / (2.0 * math.pi)), 1e-15, "hbar != h/(2*pi) at machine precision"),
        (lambda: _rel_err(c.e_charge**2 / (4.0 * math.pi * c.eps0_accepted * c.hbar * c.c_defined), c.alpha),
         5e-10, "alpha != e^2/(4*pi*eps0*hbar*c) within 5e-10"),
        (lambda: abs(c.mu0 * c.eps0_accepted * c.c_defined**2 - 1.0), 1e-6, "mu0*eps0*c^2 != 1 within 1e-6"),
    )
    for deviation, tolerance, message in relations:
        try:
            holds = deviation() <= tolerance  # a NaN deviation fails too
        except (ZeroDivisionError, OverflowError):  # not evaluable in floats: violated
            holds = False
        if not holds:
            raise ConsistencyError(message)
    subnormal = [name for name in CONSTANT_NAMES if getattr(c, name) < sys.float_info.min]
    if subnormal:  # last, so that the relations name the tables they reject; too few bits for unit conversions
        raise ConsistencyError(f"constant {subnormal[0]} must be a normal float, got {getattr(c, subnormal[0])!r}")
