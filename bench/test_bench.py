"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest bench
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import io
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from vfvacuum import cli, constants, dirac  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
GOLDEN = json.loads((BENCH_DIR / "golden.json").read_text(encoding="utf-8"))
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")


def invoke(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(list(argv))
    return code, out.getvalue()


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_same_inputs(name, tmp_path):
    first = workloads.build(name, 7, tmp_path)
    second = workloads.build(name, 7, tmp_path)
    assert first.ops == second.ops
    assert first.files == second.files
    assert workloads.build(name, 8, tmp_path).ops != first.ops


def test_written_override_files_match_the_seed(tmp_path):
    workload = workloads.build("report-warm", 5, tmp_path)
    workload.write_files()
    for path, text in workload.files.items():
        assert path.read_text(encoding="utf-8") == text


def test_every_generated_table_loads(tmp_path):
    workload = workloads.build("report-warm", 11, tmp_path)
    assert workload.files
    low, high = workloads.M_MUON_RANGE_KG
    for text in workload.files.values():
        overrides = constants.parse_constants_text(text)
        assert set(overrides) == {"m_muon"}
        assert low <= overrides["m_muon"] <= high
        constants.load_constants(overrides)


def test_declared_metrics_match_benchmark_json():
    assert {name: unit for name, unit in run.END_TO_END.items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {name: unit for name, unit in run.PER_LAYER.items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for name in [*run.END_TO_END, *run.PER_LAYER]:
        assert METRIC_NAME.fullmatch(name), name
    assert set(run.TAIL_PERCENTILE) == set(workloads.WORKLOADS) == {w["name"] for w in SPEC["workloads"]}


@pytest.mark.parametrize("trace, declared", [(0, run.END_TO_END), (1, run.PER_LAYER)])
def test_emitted_metrics_are_declared(trace, declared):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "report-warm", "--seed", "1",
         "--seconds", "0.5", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == list(declared)
    for name, metric in result["metrics"].items():
        assert METRIC_NAME.fullmatch(name)
        assert metric["unit"] == declared[name]


def test_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "report-warm", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tracer_patches_every_binding_site():
    spans = tracer.Tracer()
    spans.install(run.TRACED_FUNCTIONS)
    try:
        assert spans.unpatched() == []
        wrappers = {id(wrapper) for wrapper in spans._wrappers.values()}
        for layer in tracer.LAYERS:
            module = importlib.import_module(f"vfvacuum.{layer}")
            for attr, obj in vars(module).items():
                if (callable(obj) and not inspect.isclass(obj) and not attr.startswith("_")
                        and inspect.unwrap(obj).__module__ == module.__name__):
                    assert id(obj) in wrappers, f"vfvacuum.{layer}.{attr}"
        # Names imported into another module are bound there too.
        assert cli.load_constants is constants.load_constants
        assert id(cli.check_row) in wrappers
    finally:
        spans.uninstall()
    assert not hasattr(cli.load_constants, "__wrapped__")
    assert not hasattr(constants.load_constants, "__wrapped__")


def test_tracer_counts_a_cached_function(monkeypatch):
    # An lru_cache object is not a plain function; it must still be traced.
    monkeypatch.setattr(dirac, "decay_rate", functools.lru_cache(dirac.decay_rate))
    spans = tracer.Tracer()
    spans.install(run.TRACED_FUNCTIONS)
    try:
        assert spans.unpatched() == []
        code, _ = invoke(["report", "--format", "json"])
    finally:
        spans.uninstall()
    assert code == 0
    assert spans.summarize(1, {})["calls"]["dirac.decay_rate"] > 0


def test_tracer_refuses_a_missing_required_function(monkeypatch):
    monkeypatch.delattr(dirac, "decay_rate")
    spans = tracer.Tracer()
    with pytest.raises(RuntimeError, match="dirac.decay_rate"):
        spans.install(run.TRACED_FUNCTIONS)
    assert spans._patches == []


def test_tracer_derives_self_time_and_counts():
    spans = tracer.Tracer()
    spans.install()
    try:
        spans.op_id = 0
        code, _ = invoke(["decay", "muon", "--format", "json"])
    finally:
        spans.uninstall()
    assert code == 0
    count = len(spans.start)
    assert all(-1 <= spans.parent[i] < i for i in range(count))
    assert all(spans.end[i] >= spans.start[i] for i in range(count))
    summary = spans.summarize(1, {})
    assert summary["calls"]["cli.run"] == 1
    assert summary["calls"]["dirac.decay_rate"] >= 1
    assert summary["distinct_inputs"] >= 1
    assert summary["file_reads"] >= 1
    assert summary["self_ms"]["dirac"] > 0
    total_self = sum(summary["self_ms"].values())
    assert total_self == pytest.approx(summary["inclusive_ms"]["cli.run"], rel=1e-9)


def test_checker_accepts_golden_outputs_and_rejects_wrong_ones(tmp_path):
    checker = workloads.Checker(GOLDEN)
    for fmt in workloads.FORMATS:
        op = workloads.report_op(fmt)
        code, out = invoke(op.argv)
        assert checker.check(op, code, out, "").ok
        assert not checker.check(op, 1, out, "").ok
        assert not checker.check(op, code, out, "Traceback (most recent call last):").ok
        assert not checker.check(op, code, out.replace("9.1", "9.2", 1), "").ok
        assert not checker.check(op, code, out.replace("pass", "fail", 1), "").ok
        assert not checker.check(op, code, out.replace("eps0-headline", "eps0-head", 1), "").ok

    workload = workloads.build("report-warm", 2, tmp_path)
    workload.write_files()
    overrides = [op for op in workload.ops if op.override_m_muon is not None]
    for op in [next(op for op in overrides if op.fmt == fmt) for fmt in workloads.FORMATS]:
        code, out = invoke(op.argv)
        assert checker.check(op, code, out, "").ok
        document = json.loads(out) if op.fmt == "json" else None
        if document is not None:
            document["permittivity"]["eps0_calculated_C_per_Vm"] *= 1.0 + 1e-6
            assert not checker.check(op, code, json.dumps(document, indent=2), "").ok

    op = workloads.build("verify-warm", 2, tmp_path).ops[0]
    code, out = invoke(op.argv)
    assert checker.check(op, code, out, "").ok
    assert not checker.check(op, code, out.replace('"trials": 1000', '"trials": 999', 1), "").ok


def test_parse_importtime_counts_outermost_entries():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       numpy.core",
        "import time:       200 |        300 |     numpy",
        "import time:        50 |         50 |       scipy._lib",
        "import time:        70 |        120 |     scipy",
        "import time:        10 |        130 |     scipy.integrate",
        "import time:         5 |        435 |   vfvacuum.dirac",
        "import time:        15 |        450 | vfvacuum.cli",
    ])
    assert run.parse_importtime(stderr) == {"numpy": 300.0, "scipy": 250.0, "vfvacuum": 450.0}
