#!/usr/bin/env python3
"""vfvacuum benchmark: one seeded workload, measured for a fixed time.

Run from the repository root:

    python3 bench/run.py --workload report-warm --seed 1 --seconds 20 --trace 0

Every workload is a closed loop with one client. ``--trace 0`` measures the
end-to-end metrics with tracing off; ``--trace 1`` measures the per-layer
metrics in a separate traced run. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

sys.path.insert(0, str(BENCH_DIR))
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 5  # fresh interpreters per run for setup_s
STARTUP_PROBES = 3  # fresh interpreters per traced run for cli.startup_share
IMPORT_PROBES = 3  # -X importtime runs per traced run
INTERPRETER_PROBES = 5  # `python -c pass` runs per traced run
CHILD_TIMEOUT_S = 120
# Tail percentile of each workload, fixed so that runs with different op
# counts stay comparable. Each leaves at least ten samples beyond it at the
# seed commit's op rate in a 50 s run. On report-warm p95 and p99 would too,
# but single stalls set them: over two sets of ten seeds on a 2-core VM their
# spread was 0.13-0.21 and 0.17-0.34 of the median, against 0.08-0.09 for p90.
TAIL_PERCENTILE = {"report-warm": 90.0, "verify-warm": 85.0}

END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "import.interpreter_ms": "ms",
    "import.numpy_ms": "ms",
    "import.scipy_ms": "ms",
    "import.vfvacuum_ms": "ms",
    "cli.self_ms_per_op": "ms/op",
    "cli.argparse_ms_per_op": "ms/op",
    "cli.startup_share": "ratio",
    "constants.self_ms_per_op": "ms/op",
    "constants.load_calls_per_op": "count/op",
    "constants.file_reads_per_op": "count/op",
    "vfmodel.self_ms_per_op": "ms/op",
    "vfmodel.characterize_calls_per_op": "count/op",
    "oscillator.self_ms_per_op": "ms/op",
    "oscillator.species_dipole_calls_per_op": "count/op",
    "dirac.self_ms_per_op": "ms/op",
    "dirac.decay_rate_calls_per_op": "count/op",
    "dirac.decay_rate_useful_ratio": "ratio",
    "dirac.squared_matrix_element_calls_per_op": "count/op",
    "dirac.slash_calls_per_op": "count/op",
    "dirac.spinor_calls_per_op": "count/op",
    "dirac.quad_ms_per_op": "ms/op",
    "dirac.us_per_trial": "us/trial",
    "permittivity.self_ms_per_op": "ms/op",
    "permittivity.eps0_total_calls_per_op": "count/op",
    "report.self_ms_per_op": "ms/op",
    "report.build_report_ms_per_op": "ms/op",
    "report.render_ms_per_op": "ms/op",
    "report.bytes_per_op": "bytes/op",
    "checks.rows_per_op": "count/op",
    "checks.failed_rows_per_op": "count/op",
    "trace.overhead_ratio": "ratio",
}

CALL_COUNTS = {  # per-layer call-count metric -> traced function
    "constants.load_calls_per_op": "constants.load_constants",
    "vfmodel.characterize_calls_per_op": "vfmodel.characterize",
    "oscillator.species_dipole_calls_per_op": "oscillator.species_dipole",
    "dirac.decay_rate_calls_per_op": "dirac.decay_rate",
    "dirac.squared_matrix_element_calls_per_op": "dirac.squared_matrix_element",
    "dirac.slash_calls_per_op": "dirac.slash",
    "dirac.spinor_calls_per_op": "dirac.spinor",
    "permittivity.eps0_total_calls_per_op": "permittivity.eps0_total",
}
# Every traced function a per-layer metric reads; a traced run refuses to
# start when one of them is not there to wrap, instead of reading 0.
TRACED_FUNCTIONS = (*CALL_COUNTS.values(), tracer.KEYED, "cli.build_parser",
                    "report.build_report", "report.to_json", "report.render_text")

# A fresh interpreter that imports the CLI, runs one op, and reports the
# monotonic time (system-wide on Linux) at which the op finished.
SETUP_PROBE = """\
import contextlib, io, sys, time
import vfvacuum.cli as cli
out, err = io.StringIO(), io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    code = cli.run(sys.argv[1:])
done = time.monotonic()
sys.stderr.write(err.getvalue())
sys.stdout.write(f"{done!r} {code}\\n" + out.getvalue())
"""


@dataclass
class Window:
    """Ops run in one timed loop, with their latencies and verdicts."""

    latencies: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    rows: int = 0
    failed_rows: int = 0
    out_bytes: int = 0
    repeats: int = 0
    wall: float = 0.0
    harness: float = 0.0  # wall time the loop spent checking outputs, not running ops
    trials: dict[int, int] = field(default_factory=dict)
    first_failure: str = ""

    @property
    def ops_per_s(self) -> float:
        return (self.attempted - self.failed) / (self.wall - self.harness)

    def record(self, op, latency: float, verdict, out: str, repeated: bool) -> None:
        self.latencies.append(latency)
        self.attempted += 1
        self.rows += verdict.rows
        self.failed_rows += verdict.failed_rows
        self.out_bytes += len(out.encode("utf-8"))
        self.repeats += repeated
        if not verdict.ok:
            self.failed += 1
            if not self.first_failure:
                self.first_failure = f"{' '.join(op.argv)}: {verdict.reason}"


class Bench:
    def __init__(self, args: argparse.Namespace, cli_module):
        self.args = args
        self.cli = cli_module
        self.work_dir = OUT_DIR / f"work-{os.getpid()}"
        self.workload = workloads.build(args.workload, args.seed, self.work_dir)
        golden = json.loads((BENCH_DIR / "golden.json").read_text(encoding="utf-8"))
        self.checker = workloads.Checker(golden)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.seen: set = set()
        self.next_op = 0
        self.spans: tracer.Tracer | None = None
        self.probes = 0
        self.probe_failures = 0

    # ----------------------------------------------------------- ops

    def _child(self, argv: list[str]) -> subprocess.CompletedProcess:
        return subprocess.run(argv, capture_output=True, text=True, env=self.env, cwd=ROOT,
                              timeout=CHILD_TIMEOUT_S)

    def run_warm(self, op: workloads.Op, index: int):
        out, err = io.StringIO(), io.StringIO()
        if self.spans is not None:
            self.spans.op_id = index
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.run(list(op.argv))
        except Exception:  # an escaped exception is a failed op, not a harness crash
            code = None
            err.write(traceback.format_exc())
        return time.perf_counter() - start, code, out.getvalue(), err.getvalue()

    def measure(self, seconds: float) -> Window:
        """Closed loop: the next op starts when the previous one has ended."""
        ops = self.workload.ops
        window = Window()
        start = time.perf_counter()
        deadline = start + seconds
        while time.perf_counter() < deadline:
            index = self.next_op
            op = ops[index % len(ops)]
            self.next_op += 1
            latency, code, out, err = self.run_warm(op, index)
            checking = time.perf_counter()
            verdict = self.checker.check(op, code, out, err)
            key = workloads.input_key(op)
            window.record(op, latency, verdict, out, key in self.seen)
            self.seen.add(key)
            if workloads.trials_of(op):
                window.trials[index] = workloads.trials_of(op)
            window.harness += time.perf_counter() - checking
        window.wall = time.perf_counter() - start
        return window

    # ------------------------------------------------ fresh processes

    def _check_probe(self, op, code, out, err) -> None:
        self.probes += 1
        if not self.checker.check(op, code, out, err).ok:
            self.probe_failures += 1

    def setup_seconds(self) -> list[float]:
        """Spawn-to-first-op-done times of fresh interpreters."""
        op = self.workload.ops[0]
        times = []
        for _ in range(SETUP_PROBES):
            start = time.monotonic()
            proc = self._child([sys.executable, "-c", SETUP_PROBE, *op.argv])
            ended = time.monotonic()
            stamp, _, out = proc.stdout.partition("\n")
            done, _, code = stamp.partition(" ")
            try:
                times.append(float(done) - start)
                code = int(code)
            except ValueError:  # the probe died before its op finished
                times.append(ended - start)
                code, out = None, proc.stdout
            self._check_probe(op, code, out, proc.stderr)
        return times

    def import_ms(self) -> dict[str, float]:
        """Median import times from -X importtime, and the bare interpreter."""
        samples: dict[str, list[float]] = {"numpy": [], "scipy": [], "vfvacuum": []}
        for _ in range(IMPORT_PROBES):
            proc = self._child([sys.executable, "-X", "importtime", "-c", "import vfvacuum.cli"])
            cumulative = parse_importtime(proc.stderr)
            for package, values in samples.items():
                values.append(cumulative.get(package, 0.0))
        interpreter = []
        for _ in range(INTERPRETER_PROBES):
            start = time.perf_counter()
            self._child([sys.executable, "-c", "pass"])
            interpreter.append(time.perf_counter() - start)
        result = {f"import.{package}_ms": statistics.median(v) / 1e3 for package, v in samples.items()}
        result["import.interpreter_ms"] = 1e3 * statistics.median(interpreter)
        return result

    def startup_share(self) -> float:
        """(cold wall - warm cli.run) / cold wall for the workload's first op."""
        op = self.workload.ops[0]
        cold = []
        for _ in range(STARTUP_PROBES):
            start = time.perf_counter()
            proc = self._child([sys.executable, "-m", "vfvacuum.cli", *op.argv])
            cold.append(time.perf_counter() - start)
            self._check_probe(op, proc.returncode, proc.stdout, proc.stderr)
        warm = []
        for _ in range(STARTUP_PROBES):
            latency, code, out, err = self.run_warm(op, -1)
            warm.append(latency)
            self._check_probe(op, code, out, err)
        cold_wall = statistics.median(cold)
        return (cold_wall - statistics.median(warm)) / cold_wall

    # ------------------------------------------------------- runs

    def run(self) -> tuple[dict[str, float], list[Window], dict]:
        self.workload.write_files()
        if not self.args.trace:
            setup = self.setup_seconds()
            window = self.measure(self.args.seconds)
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics, extra = end_to_end(window, self.args.workload, setup, rss_kb / 1024.0)
            return metrics, [window], extra
        imports = self.import_ms()
        share = self.startup_share()
        untraced = self.measure(self.args.seconds / 2.0)
        self.spans = tracer.Tracer()
        self.spans.install(TRACED_FUNCTIONS)
        try:
            missing = self.spans.unpatched()
            if missing:
                raise RuntimeError(f"tracer left these bindings unpatched: {missing}")
            traced = self.measure(self.args.seconds / 2.0)
        finally:
            self.spans.uninstall()
        metrics = per_layer(self.spans.summarize(traced.attempted, traced.trials), traced)
        metrics.update(imports)
        metrics["cli.startup_share"] = share
        metrics["trace.overhead_ratio"] = traced.ops_per_s / untraced.ops_per_s
        self.spans.write(OUT_DIR / f"spans-{self.args.workload}.tsv")
        extra = {"untraced_ops_per_s": untraced.ops_per_s, "traced_ops_per_s": traced.ops_per_s,
                 "traced_ops": traced.attempted, "spans": len(self.spans.start)}
        return {name: metrics[name] for name in PER_LAYER}, [untraced, traced], extra


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative import microseconds per top package (numpy, scipy, vfvacuum),
    summed over its outermost entries so nested imports are not counted twice."""
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|", 2)
        try:
            value = float(cumulative)
        except ValueError:
            continue  # the header line
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        entries.append((depth, name.strip(), value))
    totals: dict[str, float] = {}
    ancestors: list[str] = []
    # importtime prints children before their parent; reversed, each entry
    # follows its ancestors.
    for depth, name, value in reversed(entries):
        del ancestors[depth:]
        package = name.split(".", 1)[0]
        if package not in ancestors:
            totals[package] = totals.get(package, 0.0) + value
        ancestors.append(package)
    return totals


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def end_to_end(window: Window, workload: str, setup: list[float], rss_mb: float):
    q = TAIL_PERCENTILE[workload]
    n = len(window.latencies)
    metrics = {
        "ops_per_s": window.ops_per_s,
        "latency_p50_ms": 1e3 * statistics.median(window.latencies),
        "latency_tail_ms": 1e3 * percentile(window.latencies, q),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss_mb,
    }
    extra = {
        "tail_percentile": q,
        "latency_percentiles_ms": {f"p{p:g}": 1e3 * percentile(window.latencies, p)
                                   for p in (50, 70, 75, 80, 85, 90, 95, 99, 99.9)},
        "tail_samples_beyond": n - math.ceil(q / 100.0 * n),
        "latency_samples": n,
        "setup_samples_s": setup,
        "checker_share_of_wall": window.harness / window.wall,
    }
    return metrics, extra


def per_layer(summary: dict, window: Window) -> dict[str, float]:
    n = window.attempted
    self_ms, calls, inclusive = summary["self_ms"], summary["calls"], summary["inclusive_ms"]
    decay_calls = calls.get("dirac.decay_rate", 0.0)
    metrics = {
        f"{layer}.self_ms_per_op": self_ms.get(layer, 0.0)
        for layer in ("cli", "constants", "vfmodel", "oscillator", "dirac", "permittivity", "report")
    }
    for metric, function in CALL_COUNTS.items():
        metrics[metric] = calls.get(function, 0.0)
    metrics.update({
        "cli.argparse_ms_per_op": inclusive.get("cli.build_parser", 0.0)
        + inclusive.get("argparse.parse_args", 0.0),
        "constants.file_reads_per_op": summary["file_reads"],
        # With no calls nothing was wasted.
        "dirac.decay_rate_useful_ratio": summary["distinct_inputs"] / decay_calls if decay_calls else 1.0,
        "dirac.quad_ms_per_op": inclusive.get("scipy.quad", 0.0),
        "dirac.us_per_trial": summary["dirac_us_per_trial"],
        "report.build_report_ms_per_op": inclusive.get("report.build_report", 0.0),
        "report.render_ms_per_op": inclusive.get("report.to_json", 0.0)
        + inclusive.get("report.render_text", 0.0),
        "report.bytes_per_op": window.out_bytes / n,
        "checks.rows_per_op": window.rows / n,
        "checks.failed_rows_per_op": window.failed_rows / n,
    })
    return metrics


def environment(args: argparse.Namespace) -> dict:
    def version(package: str) -> str:
        try:
            return importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            return "absent"

    cpu_model = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=30).stdout.strip() or commit
    digest = hashlib.sha256()
    for path in sorted((SRC / "vfvacuum").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    blas = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "blas_threads_env": {name: os.environ.get(name) for name in blas},
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "vfvacuum" / "cli.py").is_file():
        print(f"error: no vfvacuum sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from vfvacuum import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: vfvacuum imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    bench = Bench(args, cli)
    try:
        metrics, windows, extra = bench.run()
    finally:
        shutil.rmtree(bench.work_dir, ignore_errors=True)

    # Ops of the fresh-process probes count as attempted ops too.
    attempted = sum(w.attempted for w in windows) + bench.probes
    failed = sum(w.failed for w in windows) + bench.probe_failures
    units = PER_LAYER if args.trace else END_TO_END
    last = windows[-1]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    for name, value in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {units[name]}")
    print(f"  {'failed_ops_ratio':<44} {failed / attempted:>14.6g} ({failed} failed / {attempted} attempted)")
    print(f"  {'repeat_share':<44} {last.repeats / last.attempted:>14.6g} of measured ops repeat an input")
    for failure in (w.first_failure for w in windows if w.first_failure):
        print(f"  first failure: {failure}")
    record = {"env": environment(args), "metrics": metrics, "extra": extra,
              "attempted": attempted, "failed": failed,
              "repeat_share": last.repeats / last.attempted}
    print("env " + json.dumps(record["env"], sort_keys=True))
    print("extra " + json.dumps(extra, sort_keys=True))
    result_file = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_file.write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
