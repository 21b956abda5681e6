"""Shared pass/fail row type for verification reports."""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class CheckRow:
    name: str
    status: str  # "pass" | "fail"
    measured: float
    tolerance: float


def check_row(name: str, measured: float, tolerance: float) -> CheckRow:
    if math.isinf(measured):  # a value that left the floats; JSON has no strict form for it
        raise OverflowError(f"{name} measured {measured}")
    status = "pass" if measured <= tolerance else "fail"
    return CheckRow(name=name, status=status, measured=float(measured), tolerance=float(tolerance))
