#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's median and
spread (distance between the first and third quartile, as a share of the
median), which is how a metric's bound in BENCHMARK.json is judged.

    python3 bench/repeat.py --workloads report-warm verify-warm --seeds 1-10 [--trace 1] [--out FILE]

Runs are sequential, one at a time. With --out the per-seed values and the
summary are written as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        low, high = map(int, text.split("-", 1))
        return list(range(low, high + 1))
    return [int(part) for part in text.split(",")]


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    report: dict[str, dict] = {}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            started = time.monotonic()
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            wall = time.monotonic() - started
            runs.append({"seed": seed, "wall_s": wall, **result})
            values = " ".join(f"{name}={m['value']:.5g}" for name, m in result["metrics"].items())
            print(f"{workload} seed {seed} wall={wall:.1f}s correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {values}", flush=True)
        summary = {}
        for name in runs[0]["metrics"]:
            values = [run["metrics"][name]["value"] for run in runs]
            summary[name] = {
                "unit": runs[0]["metrics"][name]["unit"],
                "median": statistics.median(values),
                "spread": spread(values) if len(values) > 1 else 0.0,
            }
            bound = bounds.get(name)
            note = f" (bound {bound}, spread/bound {summary[name]['spread'] / bound:.2f})" if bound else ""
            print(f"  {workload} {name}: median {summary[name]['median']:.6g} "
                  f"spread {summary[name]['spread']:.4f}{note}", flush=True)
        report[workload] = {"runs": runs, "summary": summary}
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
