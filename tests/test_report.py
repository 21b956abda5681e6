"""Guards of the once-per-report evaluation: the pinned report's bytes stay
those recorded in bench/golden.json, one report evaluates each pipeline
quantity once, and an equal table reuses that evaluation without changing a byte."""

import collections
import hashlib
import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from vfvacuum import cli, dirac, oscillator, permittivity, report, vfmodel
from vfvacuum import constants as constants_module
from vfvacuum.constants import LEPTON_MASS_DOMAIN, ConsistencyError, load_constants

GOLDEN = Path(__file__).resolve().parents[1] / "bench" / "golden.json"
# Rows that compare a lepton-mass-dependent quantity with its value at the
# pinned masses; every other row holds for any consistent constants table.
MASS_TARGET_ROWS = {
    "electron-vf-density",
    "tau-vf-density",
    "electron-vf-lifetime",
    "electron-decay-lifetime",
    "laser-below-vf-density",
}


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_pinned_report_bytes_match_golden(fmt):
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.run(["report", "--format", fmt])
    assert code == 0
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))["outputs"][f"report.{fmt}"]
    assert hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest() == golden


def count_calls(monkeypatch, calls, module, name):
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)


def test_build_report_evaluates_each_quantity_once(monkeypatch, constants):
    calls = collections.Counter()
    count_calls(monkeypatch, calls, permittivity, "eps0_total")
    count_calls(monkeypatch, calls, vfmodel, "characterize")
    count_calls(monkeypatch, calls, oscillator, "species_dipole")
    decay_arguments = []
    original = dirac.decay_rate
    monkeypatch.setattr(dirac, "decay_rate", lambda *args: decay_arguments.append(args) or original(*args))
    report.build_report(constants)
    # One batched decay pass serves all three leptons.
    assert decay_arguments == [(constants.leptons(), constants)]
    assert calls == {"eps0_total": 1, "characterize": 3, "species_dipole": 3}


def test_photon_basis_and_pinned_file_are_located_once_per_process(monkeypatch):
    calls = collections.Counter()
    count_calls(monkeypatch, calls, dirac, "transverse_polarization_basis")
    count_calls(monkeypatch, calls, resources, "files")
    # Counts the reads of every file of the pinned file's type: only the pinned file is read here.
    count_calls(monkeypatch, calls, type(constants_module._PINNED_FILE), "read_text")
    report.build_report(load_constants())
    load_constants({"m_muon": 1e-28})
    assert calls == {"read_text": 2}


def test_two_photon_row_runs_the_pipeline_halving(monkeypatch, constants):
    monkeypatch.setattr(dirac, "two_photon_rate_natural", lambda decay: decay.gamma / 1.9)
    rows = {row["name"]: row for row in report.build_report(constants)["checks"]}
    assert rows["two-photon-half-rate"]["status"] == "fail"


def test_decay_table_is_the_pipeline_decay(constants):
    document = report.build_report(constants)
    expected = [report.decay_to_dict(dirac.decay_rate(s, constants)) for s in constants.leptons()]
    assert document["decay_table"] == expected


def test_override_report_keeps_eps0(constants):
    pinned = report.build_report(constants)["permittivity"]["eps0_calculated_C_per_Vm"]
    for m_muon in (1e-29, 3.767063254e-28, 1e-26):
        overridden = report.build_report(load_constants({"m_muon": m_muon}), {"m_muon": m_muon})
        eps0 = overridden["permittivity"]["eps0_calculated_C_per_Vm"]
        assert abs(eps0 / pinned - 1.0) < 1e-9
        assert overridden["overrides"] == {"m_muon": m_muon}
        assert all(row["status"] == "pass" for row in overridden["checks"])


@pytest.mark.parametrize("name", ["m_electron", "m_muon", "m_tau"])
@pytest.mark.parametrize("mass", LEPTON_MASS_DOMAIN)
def test_invariant_rows_pass_at_the_mass_domain_edges(name, mass):
    rows = report.build_report(load_constants({name: mass}))["checks"]
    assert len(rows) == 17
    assert {row["name"] for row in rows if row["status"] != "pass"} <= MASS_TARGET_ROWS


def test_an_equal_table_reuses_the_evaluation_in_a_fresh_document(monkeypatch):
    first = report.build_report(load_constants())
    calls = collections.Counter()
    count_calls(monkeypatch, calls, permittivity, "eps0_total")
    count_calls(monkeypatch, calls, dirac, "decay_rate")
    second = report.build_report(load_constants())
    assert calls == {}
    assert second == first and second is not first
    first["checks"][0]["status"] = "fail"
    first["permittivity"]["per_species"].clear()
    first["vf_table"][0]["species"] = "muon"
    first["overrides"]["m_muon"] = 1e-28
    assert report.build_report(load_constants()) == second
    assert second["checks"][0]["status"] == "pass" and len(second["permittivity"]["per_species"]) == 3


def test_an_evaluation_that_raises_raises_on_every_call(monkeypatch, constants):
    calls = collections.Counter()
    monkeypatch.setattr(oscillator, "species_dipole", lambda *args: math.nan)
    count_calls(monkeypatch, calls, permittivity, "eps0_total")
    for _ in range(3):
        with pytest.raises(ConsistencyError, match="positive"):
            report.build_report(constants)
    assert calls == {"eps0_total": 3}
    assert report._evaluate.cache_info().currsize == 0


def test_the_evaluation_memo_is_bounded():
    bound = report._EVALUATION_CACHE_SIZE
    for m_muon in (1e-28 * (1.0 + k / 64.0) for k in range(3 * bound)):
        report.build_report(load_constants({"m_muon": m_muon}))
    assert report._evaluate.cache_info().currsize <= bound


def _log_uniform_mass(draw) -> float:
    low, high = LEPTON_MASS_DOMAIN
    return min(max(math.exp(draw(st.floats(math.log(low), math.log(high)))), low), high)


@st.composite
def report_sequences(draw):
    """Tables (None for the pinned file, else the three lepton masses of an
    override file) and a sequence of (table index, format) picks, repeats
    allowed: the pinned table, an override equal to it, log-uniform masses."""
    pinned = load_constants()
    tables = [None, (pinned.m_electron, pinned.m_muon, pinned.m_tau)]
    tables += [tuple(_log_uniform_mass(draw) for _ in range(3))
               for _ in range(draw(st.integers(0, report._EVALUATION_CACHE_SIZE + 4)))]
    picks = st.tuples(st.integers(0, len(tables) - 1), st.sampled_from(["json", "text"]))
    return tables, draw(st.lists(picks, min_size=1, max_size=3 * len(tables)))


def _clear_memos():
    report._evaluate.cache_clear()
    constants_module._parse_pinned.cache_clear()


def _run_report(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


@given(report_sequences())
def test_report_stdout_does_not_depend_on_the_memo(tmp_path_factory, sequence):
    tables, picks = sequence
    directory = tmp_path_factory.mktemp("tables")
    names, flags = ("m_electron", "m_muon", "m_tau"), [[]]
    for index, masses in enumerate(tables[1:], start=1):
        path = directory / f"table-{index}.txt"
        path.write_text("".join(f"{name} = {mass!r}\n" for name, mass in zip(names, masses)))
        flags.append(["--constants", str(path)])
    argvs = [["report", "--format", fmt, *flags[index]] for index, fmt in picks]
    expected = {}
    for argv in argvs:
        _clear_memos()
        expected[tuple(argv)] = _run_report(argv)
    _clear_memos()
    for argv in argvs:
        assert _run_report(argv) == expected[tuple(argv)], argv

