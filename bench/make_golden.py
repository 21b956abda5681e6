"""Capture the golden outputs that the benchmark's correctness gate compares
against: the pinned report's bytes and the check-row names.

Run from the repository root at the commit whose outputs are the reference:

    python3 bench/make_golden.py > bench/golden.json
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from vfvacuum import cli  # noqa: E402


def invoke(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(argv)
    if code != 0:
        raise SystemExit(f"{argv} exited {code}")
    return out.getvalue()


def main() -> None:
    outputs = {}
    for fmt in workloads.FORMATS:
        op = workloads.report_op(fmt)
        outputs[op.golden_key] = workloads.sha256(invoke(list(op.argv)))

    def names(argv: list[str]) -> list[str]:
        return [row["name"] for row in json.loads(invoke(argv))["checks"]]

    report = json.loads(invoke(["report", "--format", "json"]))
    commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                            capture_output=True, text=True).stdout.strip()
    golden = {
        "commit": commit,
        "eps0_calculated": report["permittivity"]["eps0_calculated_C_per_Vm"],
        "row_names": {
            "report": names(["report", "--format", "json"]),
            "trace-check": names(["trace-check", "--format", "json", "--trials", "10"]),
        },
        "outputs": outputs,
    }
    print(json.dumps(golden, indent=1))


if __name__ == "__main__":
    main()
