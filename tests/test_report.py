"""Guards of the once-per-report evaluation: the pinned report's bytes stay
those recorded in bench/golden.json, and one report evaluates each pipeline
quantity once."""

import collections
import hashlib
import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from vfvacuum import cli, dirac, oscillator, permittivity, report, vfmodel
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


def test_build_report_evaluates_each_quantity_once(monkeypatch, constants):
    calls = collections.Counter()

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(dirac, "decay_rate")
    counted(permittivity, "eps0_total")
    counted(vfmodel, "characterize")
    counted(oscillator, "species_dipole")
    report.build_report(constants)
    assert calls == {"decay_rate": 3, "eps0_total": 1, "characterize": 3, "species_dipole": 3}


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
