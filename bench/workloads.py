"""Seeded inputs and output checks for the vfvacuum benchmark.

Every input the program receives is built here from the workload seed: the
same seed gives the same argv list and the same override-file contents. The
program itself never sees the seed, only the generated inputs.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("report-warm", "verify-warm")
FORMATS = ("json", "text")

# Every table with m_muon in this range passes all 17 report rows, because the
# lepton mass cancels out of the permittivity.
M_MUON_RANGE_KG = (1e-29, 1e-26)

VERIFY_TRIALS = 1000
# Distinct override tables pre-written for report-warm. The sequence cycles
# after 2 * OVERRIDE_POOL ops; repeats beyond that show in repeat_share.
OVERRIDE_POOL = 8192
VERIFY_OPS = 4096

# Relative tolerances of the output checks. JSON carries full precision; text
# carries 6 significant digits.
JSON_REL_TOL = 1e-9
TEXT_REL_TOL = 5e-6


@dataclass(frozen=True)
class Op:
    """One CLI invocation and what its output must satisfy."""

    argv: tuple[str, ...]
    kind: str  # the subcommand
    fmt: str
    golden_key: str | None = None  # fixed output of the pinned constants
    override_m_muon: float | None = None


@dataclass
class Workload:
    ops: list[Op]
    files: dict[Path, str]  # override files to pre-write

    def write_files(self) -> None:
        for path, text in self.files.items():
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")


def _log_uniform(rng: random.Random, bounds: tuple[float, float]) -> float:
    low, high = bounds
    return math.exp(rng.uniform(math.log(low), math.log(high)))


def _override(rng: random.Random, work_dir: Path, index: int, files: dict[Path, str]):
    m_muon = _log_uniform(rng, M_MUON_RANGE_KG)
    path = work_dir / f"override-{index:05d}.txt"
    files[path] = f"# benchmark override table {index}\nm_muon = {m_muon!r}\n"
    return path, m_muon


def report_op(fmt: str, override: tuple[Path, float] | None = None) -> Op:
    if override is None:
        return Op(argv=("report", "--format", fmt), kind="report", fmt=fmt, golden_key=f"report.{fmt}")
    path, m_muon = override
    return Op(argv=("report", "--format", fmt, "--constants", str(path)), kind="report",
              fmt=fmt, override_m_muon=m_muon)


def _report_warm(rng: random.Random, work_dir: Path, files: dict[Path, str]) -> list[Op]:
    ops: list[Op] = []
    for block in range(OVERRIDE_POOL // 2):
        block_ops = [report_op(fmt) for fmt in FORMATS] + [
            report_op(fmt, _override(rng, work_dir, 2 * block + i, files))
            for i, fmt in enumerate(FORMATS)
        ]
        rng.shuffle(block_ops)
        ops.extend(block_ops)
    return ops


def _verify_warm(rng: random.Random) -> list[Op]:
    base = rng.randrange(2**31)
    return [
        Op(argv=("trace-check", "--format", "json", "--trials", str(VERIFY_TRIALS),
                 "--seed", str(base + i)), kind="trace-check", fmt="json")
        for i in range(VERIFY_OPS)
    ]


def build(name: str, seed: int, work_dir: Path) -> Workload:
    """The op sequence of one workload; override files go under ``work_dir``."""
    rng = random.Random(f"{name}:{seed}")
    files: dict[Path, str] = {}
    if name == "report-warm":
        ops = _report_warm(rng, work_dir, files)
    elif name == "verify-warm":
        ops = _verify_warm(rng)
    else:
        raise ValueError(f"unknown workload {name!r} (expected one of {WORKLOADS})")
    return Workload(ops=ops, files=files)


def input_key(op: Op) -> tuple:
    """Identity of an op's input, for the share of repeated inputs."""
    if op.override_m_muon is None:
        return op.argv
    return op.argv[:3] + (op.override_m_muon,)


def trials_of(op: Op) -> int:
    if op.kind != "trace-check":
        return 0
    return int(op.argv[op.argv.index("--trials") + 1])


# ---------------------------------------------------------------- checks

_TEXT_ROW = re.compile(r"^  \[(\w+)\] ([^:]+): measured=(\S+)", re.M)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def parse_rows(fmt: str, out: str) -> tuple[list[tuple[str, str]], dict | None]:
    """Check rows (name, status) of an output, and the JSON document if any.
    Raises ValueError when a JSON output does not parse."""
    if fmt == "json":
        document = json.loads(out)
        return [(row["name"], row["status"]) for row in document.get("checks", [])], document
    return [(name, status) for status, name, _ in _TEXT_ROW.findall(out)], None


def _rel(value: float, reference: float) -> float:
    return abs(value / reference - 1.0) if reference else abs(value)


def _text_value(out: str, key: str) -> float:
    match = re.search(rf"^\s*{re.escape(key)}[:=] ?(\S+)", out, re.M)
    if match is None:
        raise ValueError(f"{key} missing from text output")
    return float(match.group(1))


@dataclass(frozen=True)
class Verdict:
    ok: bool
    rows: int
    failed_rows: int
    reason: str = ""


class Checker:
    """Decides whether one op's output is correct, against golden data
    captured from the seed commit (see make_golden.py)."""

    def __init__(self, golden: dict):
        self.golden = golden
        self._cache: dict[tuple, Verdict] = {}

    def check(self, op: Op, code: int | None, out: str, err: str) -> Verdict:
        key = (op.argv, code, sha256(out), "Traceback" in err)
        verdict = self._cache.get(key)
        if verdict is None:
            verdict = self._cache[key] = self._check(op, code, out, err)
        return verdict

    def _check(self, op: Op, code: int | None, out: str, err: str) -> Verdict:
        try:
            rows, document = parse_rows(op.fmt, out)
        except (ValueError, KeyError, TypeError) as exc:
            return Verdict(False, 0, 0, f"unparseable output: {exc}")
        failed_rows = sum(status != "pass" for _, status in rows)
        reason = self._reason(op, code, out, err, rows, document, failed_rows)
        return Verdict(not reason, len(rows), failed_rows, reason)

    def _reason(self, op, code, out, err, rows, document, failed_rows) -> str:
        golden = self.golden
        if code != 0:
            return f"exit code {code}"
        if "Traceback" in err:
            return "traceback on stderr"
        names = [name for name, _ in rows]
        if names != golden["row_names"].get(op.kind, []):
            return f"check rows {names} differ from the seed's"
        if failed_rows:
            return f"{failed_rows} check rows fail"
        if op.golden_key is not None:
            return "" if sha256(out) == golden["outputs"][op.golden_key] else "golden bytes differ"
        if op.override_m_muon is not None:
            if document is not None:
                if document["overrides"].get("m_muon") != op.override_m_muon:
                    return "override not echoed"
                eps0 = document["permittivity"]["eps0_calculated_C_per_Vm"]
                tolerance = JSON_REL_TOL
            else:
                eps0, tolerance = _text_value(out, "eps0_calculated_C_per_Vm"), TEXT_REL_TOL
            if _rel(eps0, golden["eps0_calculated"]) > tolerance:
                return f"eps0 {eps0!r} differs from the pinned {golden['eps0_calculated']!r}"
            return ""
        if op.kind == "trace-check" and document is not None:
            argv = dict(zip(op.argv[1::2], op.argv[2::2]))
            if document["trials"] != trials_of(op) or document["seed"] != int(argv.get("--seed", 0)):
                return "trials or seed not echoed"
        return ""
