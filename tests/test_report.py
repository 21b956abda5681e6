"""Guards of the once-per-report evaluation: the pinned report's bytes stay
those recorded in bench/golden.json, and one report evaluates each pipeline
quantity once."""

import collections
import hashlib
import io
import json
from contextlib import redirect_stdout
from importlib import resources
from pathlib import Path

import pytest

from vfvacuum import cli, dirac, oscillator, permittivity, report, vfmodel
from vfvacuum import constants as constants_module
from vfvacuum.constants import LEPTON_MASS_DOMAIN, load_constants

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
