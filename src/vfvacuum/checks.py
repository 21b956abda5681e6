"""Shared pass/fail row type for verification reports."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CheckRow:
    name: str
    status: str  # "pass" | "fail"
    measured: float
    tolerance: float


def check_row(name: str, measured: float, tolerance: float) -> CheckRow:
    status = "pass" if measured <= tolerance else "fail"
    return CheckRow(name=name, status=status, measured=float(measured), tolerance=float(tolerance))
