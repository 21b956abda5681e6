import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest

from vfvacuum.cli import run


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def test_report_json_passes():
    code, out, _ = invoke(["report", "--format", "json"])
    assert code == 0
    document = json.loads(out)
    assert set(document) == {
        "constants_digest",
        "overrides",
        "permittivity",
        "vf_table",
        "decay_table",
        "checks",
    }
    assert document["permittivity"]["eps0_calculated_C_per_Vm"] == pytest.approx(
        9.10e-12, rel=5e-3
    )
    assert all(row["status"] == "pass" for row in document["checks"])


def test_report_byte_identical_across_runs():
    first = invoke(["report", "--format", "json"])
    second = invoke(["report", "--format", "json"])
    assert first == second
    text_first = invoke(["report", "--format", "text"])
    text_second = invoke(["report", "--format", "text"])
    assert text_first == text_second


def test_report_json_roundtrips():
    _, out, _ = invoke(["report", "--format", "json"])
    payload = out.rstrip("\n")
    assert json.dumps(json.loads(payload), indent=2) == payload


def test_species_tau_text_contains_density():
    code, out, _ = invoke(["species", "tau", "--format", "text"])
    assert code == 0
    assert "number_density_per_m3" in out
    code, json_out, _ = invoke(["species", "tau", "--format", "json"])
    density = json.loads(json_out)["species"]["number_density_per_m3"]
    assert density == pytest.approx(4.70e49, rel=2e-2)
    assert f"{density:.6g}" in out


def test_species_six_significant_digits_in_text():
    _, out, _ = invoke(["species", "electron", "--format", "text"])
    assert "9.65398e-14" in out  # pair length, 6 significant digits


def test_decay_electron():
    code, out, _ = invoke(["decay", "electron", "--format", "json"])
    assert code == 0
    document = json.loads(out)
    assert document["decay"]["lifetime_s"] == pytest.approx(6.2e-11, rel=1e-2)
    assert document["decay"]["sigma_coefficient"] == pytest.approx(8.0, abs=1e-8)
    assert all(row["status"] == "pass" for row in document["checks"])


def test_trace_check_deterministic():
    first = invoke(["trace-check", "--trials", "100", "--seed", "7"])
    second = invoke(["trace-check", "--trials", "100", "--seed", "7"])
    assert first == second
    assert first[0] == 0
    document = json.loads(invoke(["trace-check", "--trials", "100", "--seed", "7", "--format", "json"])[1])
    assert document["trials"] == 100
    assert document["seed"] == 7
    assert all(row["status"] == "pass" for row in document["checks"])


def test_trace_check_bad_trials():
    code, _, err = invoke(["trace-check", "--trials", "0"])
    assert code == 2
    assert "trials" in err


def test_trace_check_negative_seed():
    code, out, err = invoke(["trace-check", "--seed", "-1"])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "--seed" in err
    assert len(err.strip().splitlines()) == 1


def test_laser_subcommand():
    code, out, _ = invoke(
        ["laser", "--power", "6000", "--wavelength", "10e-6", "--radius", "0.16e-3",
         "--format", "json"]
    )
    assert code == 0
    document = json.loads(out)
    assert document["photon_density_per_m3"] == pytest.approx(1.2e22, rel=0.1)
    assert document["photon_density_per_m3"] < document["electron_vf_density_per_m3"]


def test_laser_rejects_nonpositive():
    code, _, err = invoke(["laser", "--power", "-5", "--wavelength", "10e-6", "--radius", "1e-4"])
    assert code == 2
    assert "positive" in err


@pytest.mark.parametrize("flag", ["--power", "--wavelength", "--radius"])
@pytest.mark.parametrize("value", ["inf", "nan"])
def test_laser_rejects_nonfinite(flag, value):
    values = {"--power": "6000", "--wavelength": "10e-6", "--radius": "1e-4", flag: value}
    code, out, err = invoke(["laser", *[part for item in values.items() for part in item]])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "finite" in err
    assert len(err.strip().splitlines()) == 1


def test_constants_file_with_repeated_name_is_rejected(tmp_path):
    override = tmp_path / "constants.txt"
    override.write_text("m_muon = 3.767063254e-28\n# doubled again\nm_muon = 7.5e-28\n")
    code, out, err = invoke(["report", "--constants", str(override)])
    assert code == 2
    assert out == ""
    assert "'m_muon'" in err and "line 3" in err and "line 1" in err
    assert len(err.strip().splitlines()) == 1


def test_reused_parser_keeps_defaults():
    _, first, _ = invoke(["trace-check", "--format", "json", "--trials", "1", "--seed", "5"])
    _, second, _ = invoke(["trace-check", "--format", "json", "--trials", "1"])
    assert json.loads(first)["seed"] == 5
    assert json.loads(second)["seed"] == 0
    assert json.loads(second)["trials"] == 1


def test_constants_subcommand():
    code, out, _ = invoke(["constants", "--format", "json"])
    assert code == 0
    document = json.loads(out)
    assert len(document["constants_digest"]) == 64
    assert document["values"]["c_defined"] == 299792458.0


def test_constants_override_file(tmp_path):
    override = tmp_path / "constants.txt"
    override.write_text("m_muon = 3.767063254e-28\n")
    code, out, _ = invoke(["report", "--format", "json", "--constants", str(override)])
    assert code == 0
    document = json.loads(out)
    assert document["overrides"] == {"m_muon": 3.767063254e-28}
    muon_row = [row for row in document["vf_table"] if row["species"] == "muon"][0]
    assert muon_row["lifetime_s"] == pytest.approx(1.55741e-24 / 2.0, rel=1e-3)
    # the permittivity total must not care about the changed mass
    assert document["permittivity"]["eps0_calculated_C_per_Vm"] == pytest.approx(
        9.10e-12, rel=5e-3
    )


def test_bad_override_file(tmp_path):
    override = tmp_path / "constants.txt"
    override.write_text("no_such_constant = 1.0\n")
    code, _, err = invoke(["report", "--constants", str(override)])
    assert code == 2
    assert "no_such_constant" in err


def test_missing_override_file():
    code, _, err = invoke(["report", "--constants", "/nonexistent/file.txt"])
    assert code == 2
    assert "cannot read" in err


def test_failed_check_exits_one(tmp_path):
    # A heavier electron ruins the density and lifetime self-checks (but not
    # eps0, which is mass independent), so the report must signal failure.
    override = tmp_path / "constants.txt"
    override.write_text("m_electron = 1.1e-30\n")
    code, out, _ = invoke(["report", "--format", "json", "--constants", str(override)])
    assert code == 1
    document = json.loads(out)
    failed = {row["name"] for row in document["checks"] if row["status"] == "fail"}
    assert "electron-vf-density" in failed
    assert document["permittivity"]["eps0_calculated_C_per_Vm"] == pytest.approx(
        9.10e-12, rel=5e-3
    )


def test_unknown_subcommand_is_usage_error():
    code, _, err = invoke(["frobnicate"])
    assert code == 2
    assert "usage" in err.lower()


def test_unknown_flag_is_usage_error():
    code, _, _ = invoke(["report", "--frobnicate"])
    assert code == 2


def test_no_arguments_is_usage_error():
    code, _, _ = invoke([])
    assert code == 2


def test_unknown_species_is_usage_error():
    code, _, _ = invoke(["species", "proton"])
    assert code == 2
