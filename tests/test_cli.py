import hashlib
import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from vfvacuum import dirac, oscillator
from vfvacuum.cli import run
from vfvacuum.constants import load_constants

SRC = Path(__file__).resolve().parents[1] / "src"


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


# Finite positive beams whose photon density is no finite positive float:
# pi r^2 underflows to 0, P*lambda overflows, P*lambda underflows, r**2 overflows.
LASER_OUT_OF_RANGE = [
    ["--power", "1", "--wavelength", "1e-6", "--radius", "1e-170"],
    ["--power", "1e300", "--wavelength", "1e300", "--radius", "1"],
    ["--power", "1e-300", "--wavelength", "1e-300", "--radius", "1"],
    ["--power", "1", "--wavelength", "1e-6", "--radius", "1e160"],
]


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("flags", LASER_OUT_OF_RANGE)
def test_laser_density_outside_float_range_is_input_error(flags, fmt):
    code, out, err = invoke(["laser", *flags, "--format", fmt])
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "photon number density" in err
    assert len(err.strip().splitlines()) == 1


def run_fresh(argv):
    """Run the CLI in a new interpreter: an uncaught error there prints a traceback."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "vfvacuum.cli", *argv], capture_output=True, text=True, env=env, timeout=120
    )


def test_laser_beam_area_underflow_exits_two_without_traceback():
    child = run_fresh(["laser", *LASER_OUT_OF_RANGE[0]])
    assert (child.returncode, child.stdout) == (2, "")
    assert child.stderr.startswith("error:") and "Traceback" not in child.stderr
    assert len(child.stderr.strip().splitlines()) == 1


def test_constants_file_with_repeated_name_is_rejected(tmp_path):
    override = tmp_path / "constants.txt"
    override.write_text("m_muon = 3.767063254e-28\n# doubled again\nm_muon = 7.5e-28\n")
    code, out, err = invoke(["report", "--constants", str(override)])
    assert code == 2
    assert out == ""
    assert "'m_muon'" in err and "line 3" in err and "line 1" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("mass", ["1e-83", "1e-120", "1e22"])
def test_lepton_mass_outside_domain_is_input_error(tmp_path, mass):
    override = tmp_path / "constants.txt"
    override.write_text(f"m_electron = {mass}\n")
    code, out, err = invoke(["report", "--constants", str(override)])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "m_electron" in err
    assert len(err.strip().splitlines()) == 1


def test_consistency_error_during_evaluation_is_input_error(monkeypatch):
    monkeypatch.setattr(oscillator, "species_dipole", lambda *args: math.nan)
    code, out, err = invoke(["report", "--format", "json"])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "positive" in err
    assert len(err.strip().splitlines()) == 1


def test_unequal_species_contributions_fail_a_check(monkeypatch):
    """The mass-cancellation row is the one check of equal contributions: a
    skewed muon fails it with exit 1, not an input error."""
    dipole = oscillator.species_dipole

    def skewed(pair):
        value = dipole(pair)
        return value * (1.0 + 1e-8) if pair.species.name == "muon" else value

    monkeypatch.setattr(oscillator, "species_dipole", skewed)
    code, out, err = invoke(["report"])
    assert (code, err) == (1, "")
    assert "[fail] per-species-equality" in out
    code, out, err = invoke(["report", "--format", "json"])
    assert (code, err) == (1, "")
    rows = {row["name"]: row for row in json.loads(out)["checks"]}
    assert rows["per-species-equality"]["status"] == "fail"
    assert rows["per-species-equality"]["measured"] == pytest.approx(1e-8, rel=1e-3)


def strict_json(text):
    def reject(constant):
        raise ValueError(f"{constant} is not strict JSON")

    return json.loads(text, parse_constant=reject)


def test_an_engine_fault_ends_as_a_failed_row(monkeypatch):
    """A wrong engine is a failed row, not an input error. Rotations stretched to 1.1 R - 0.1 I,
    the quaternion formula with s = 2.2/|q|^2, are not orthogonal: the rotated photon is not
    lightlike, which the engine does not check again, and only the rotation row fails."""
    rotations = dirac._uniform_rotations
    monkeypatch.setattr(dirac, "_uniform_rotations", lambda rng, count: 1.1 * rotations(rng, count) - 0.1 * np.eye(3))
    code, out, err = invoke(["trace-check", "--format", "json"])
    assert (code, err) == (1, "")
    rows = strict_json(out)["checks"]
    assert [row["name"] for row in rows if row["status"] == "fail"] == ["matrix-element-rotation-invariance"]


def test_commands_never_import_numpy_polynomial():
    """The quadrature rule is stored, so no command imports numpy.polynomial or runs its eigenvalue solver."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    script = ("import sys, vfvacuum.cli as c; c.run(['report']); c.run(['trace-check']); "
              "sys.exit(' '.join(m for m in sys.modules if m.startswith('numpy.polynomial')) or None)")
    child = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert (child.returncode, child.stderr) == (0, "")


def test_compounding_mu0_and_alpha_offsets_fail_a_check(tmp_path):
    """Each offset is within its table tolerance, but together they move the
    mu0 form of the total past 1e-6 from the alpha form: a failed row, exit 1."""
    constants = load_constants()
    override = tmp_path / "constants.txt"
    override.write_text(
        f"mu0 = {constants.mu0 * (1 + 0.99999e-6)!r}\nalpha = {constants.alpha * (1 - 4e-10)!r}\n"
    )
    code, out, err = invoke(["report", "--format", "json", "--constants", str(override)])
    assert (code, err) == (1, "")
    failed = [row["name"] for row in json.loads(out)["checks"] if row["status"] == "fail"]
    assert failed == ["alpha-vs-mu0-closed-form"]


ALL_SUBCOMMANDS = [
    "report",
    "species electron",
    "decay tau",
    "trace-check --trials 5",
    "laser --power 6000 --wavelength 10e-6 --radius 0.16e-3",
    "constants",
]


@pytest.mark.parametrize("command", ALL_SUBCOMMANDS)
@pytest.mark.parametrize("offset", [4.9e-10, -4.9e-10])
def test_alpha_within_tolerance_accepted_by_every_subcommand(tmp_path, command, offset):
    override = tmp_path / "constants.txt"
    override.write_text(f"alpha = {load_constants().alpha * (1 + offset)!r}\n")
    code, out, err = invoke([*command.split(), "--constants", str(override)])
    assert (code, err) == (0, "")
    assert out


@pytest.mark.parametrize("command", ALL_SUBCOMMANDS)
@pytest.mark.parametrize("offset", [5.1e-10, -5.1e-10])
def test_alpha_beyond_tolerance_rejected_by_every_subcommand(tmp_path, command, offset):
    override = tmp_path / "constants.txt"
    override.write_text(f"alpha = {load_constants().alpha * (1 + offset)!r}\n")
    code, out, err = invoke([*command.split(), "--constants", str(override)])
    assert (code, out) == (2, "")
    assert err == "error: bad constants: alpha != e^2/(4*pi*eps0*hbar*c) within 5e-10\n"


# Positive finite overrides that the constants audit cannot evaluate in floats, and the
# relation each violates.
UNEVALUABLE_OVERRIDES = [
    ("h = 5e-324", "hbar != h/(2*pi) at machine precision"),
    ("eps0_accepted = 1e-320", "alpha != e^2/(4*pi*eps0*hbar*c) within 5e-10"),
    ("c_defined = 1e-300", "alpha != e^2/(4*pi*eps0*hbar*c) within 5e-10"),
    ("e_charge = 1e300", "alpha != e^2/(4*pi*eps0*hbar*c) within 5e-10"),
]


@pytest.mark.parametrize("command", ALL_SUBCOMMANDS)
@pytest.mark.parametrize("line, relation", UNEVALUABLE_OVERRIDES, ids=lambda value: value.split()[0])
def test_unevaluable_override_rejected_by_every_subcommand(tmp_path, command, line, relation):
    override = tmp_path / "constants.txt"
    override.write_text(line + "\n")
    code, out, err = invoke([*command.split(), "--constants", str(override)])
    assert (code, out) == (2, "")
    assert err == f"error: bad constants: {relation}\n"


@pytest.mark.parametrize("command", ALL_SUBCOMMANDS)
def test_subnormal_constant_rejected_by_every_subcommand(tmp_path, command):
    """A subnormal electronvolt keeps every relation of the table, but the natural-unit
    conversions cannot go through it (the masses in MeV would overflow); the audit names it."""
    override = tmp_path / "constants.txt"
    override.write_text("electronvolt = 1.60216e-319\n")
    code, out, err = invoke([*command.split(), "--constants", str(override)])
    assert (code, out) == (2, "")
    assert err == "error: bad constants: constant electronvolt must be a normal float, got 1.60216e-319\n"


@pytest.mark.parametrize("line", [line for line, _ in UNEVALUABLE_OVERRIDES] + [None])
def test_unevaluable_input_exits_two_without_traceback_in_a_fresh_process(tmp_path, line):
    if line is None:
        argv = ["laser", *LASER_OUT_OF_RANGE[3]]
    else:
        (tmp_path / "constants.txt").write_text(line + "\n")
        argv = ["report", "--constants", str(tmp_path / "constants.txt")]
    child = run_fresh(argv)
    assert (child.returncode, child.stdout) == (2, "")
    assert child.stderr.startswith("error:") and "Traceback" not in child.stderr
    assert len(child.stderr.strip().splitlines()) == 1


# SHA-256 of stdout and the exit code of each subcommand other than `report`
# (pinned in test_report.py) with the pinned constants.
SUBCOMMAND_BYTES = [
    ("species electron", "json", 0, "14eba081c1171c9111cef79052c9abdd902e560215a586e8250433e73b44c14b"),
    ("species electron", "text", 0, "fb23fbb468b19d0bffe4a60b39cb29216d0ff5c063776e680980086cce788a4d"),
    ("species tau", "json", 0, "69e01d984a04378bbab1a72092ff0a0f50b26ebc15b8a00e40fe90ddcb89958a"),
    ("species tau", "text", 0, "012d9ab38544314c12de653ff91e592a14b51e8a20cf5a42756ef4798dd70fa9"),
    ("decay electron", "json", 0, "d24d151facdd8057f62cd3950eee01c417205d47802531bea7a584dd312fe4b5"),
    ("decay electron", "text", 0, "c44f5b8437b1b29973be7d721b791f77e1c002aa951a300a726f0781430e2f1d"),
    ("decay muon", "json", 0, "6ec5dba76ddd86bd8f7117468e1a02ce0de78a3a8345df1f3543c089ee830b32"),
    ("decay muon", "text", 0, "7527498e2793a7d2531b53245f8c83f256e4e8758cef76ed303b244cbcefa112"),
    ("laser --power 6000 --wavelength 10e-6 --radius 0.16e-3", "json", 0,
     "827682ab7df1e2f574afe00e8bbe700c121f0d868c180fcdc23e7dc6f415f1d0"),
    ("laser --power 6000 --wavelength 10e-6 --radius 0.16e-3", "text", 0,
     "0736ff5b46f9dec77aaa09737d6d70d2923b15eca9156a85634202a51e88f32c"),
    ("constants", "json", 0, "505f80eefa2a0341674fa26b6574d1d910a209fe745f592370d38658da16212e"),
    ("constants", "text", 0, "9790cb198b56a0ccf898bd9aa36bd892429d3f04147201ccf1f098f97298e741"),
    ("trace-check --trials 50 --seed 3", "json", 0,
     "be5cc6d587e3c39a983cefe939b496ddb2faa3f980b76c5d31475ad662f7dffb"),
    ("trace-check --trials 50 --seed 3", "text", 0,
     "dde192608918e3fe191484456a54bc33c4603980f566bf37d5fdd41ce058cf8c"),
    # Past the first block of trials.
    ("trace-check --trials 1025 --seed 7", "json", 0,
     "833d9eff25db0bf59e10e1e43fcabe16623cd1548a68e0134e32ea198803563c"),
    # The benchmark's verify-warm shape: 1000 trials, at the smallest, a middle and the largest seed.
    ("trace-check --trials 1000 --seed 0", "json", 0,
     "4407f72435ee288a3849ac67990035bbbb300dd03b7d041cd08c5c0cac25d239"),
    ("trace-check --trials 1000 --seed 0", "text", 0,
     "7f3196eadf5063cc87e3ed419cfdb70eb6f0cae472c777e6837a9ba031a37761"),
    ("trace-check --trials 1000 --seed 1234", "json", 0,
     "34a70a8c45838ab85673142c661d25255ccc601ab62600dfcd71357350780b43"),
    ("trace-check --trials 1000 --seed 2147483647", "json", 0,
     "9ca747873e6b904a4a3b246376e2a3d11c0a51ea8f330d0b4905b6b7207fb3ff"),
]


@pytest.mark.parametrize("command, fmt, expected_code, expected_sha", SUBCOMMAND_BYTES)
def test_subcommand_bytes_are_pinned(command, fmt, expected_code, expected_sha):
    code, out, err = invoke([*command.split(), "--format", fmt])
    assert (code, err) == (expected_code, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == expected_sha


# SHA-256 of the stdout of `decay NAME --format json` with one lepton mass (kg) overridden,
# spread over LEPTON_MASS_DOMAIN; each run exits 0.
DECAY_OVERRIDE_BYTES = [
    ("electron", "1e-80", "612730b438e574ed62a57013755f4a7f0a1bf8d8c462994450b4eafd42bb4919"),
    ("muon", "3.1e-72", "0eb1058bf0096ca099fbd0b18a2a30041471e3a87340db95550437de6514a46e"),
    ("tau", "4.7e-63", "c4a59e83624de4bae1158b5ff441cbca6cc26be2f0876b11903fbaa38397a799"),
    ("electron", "5.9e-54", "3928b764a98ce82be8bb90ffa4ebb500d021ee03a9116f1bba7a13680cf419b7"),
    ("muon", "6.1e-45", "1fba14926ec304645c028396af396abd11c6db1e8ec7f17a133ba388f32fbf9a"),
    ("tau", "3.9e-36", "6c687c10f60771eef010512c78095e5368e9a3289fa4a14ed24005be4e7d5c4c"),
    ("electron", "9.1e-31", "2ae743802c671e07edc2ff6741a94e1df97d7c68c13453f058f609c3fda2057f"),
    ("muon", "2.2e-27", "fd78ef28994cb679b2c51465d3f46edafce8d767acf93ee3ad90b19bdacf3d2f"),
    ("tau", "8.8e-18", "bbc69c517f35f5760a284945ce0d9f2825d82eb540a08b45bfaebf49b39957a2"),
    ("electron", "1.3e-09", "121e19e2d8f7e10a4de7dc676c8215741d212ecc6ef7ac4c54f2686f9b4df2e3"),
    ("muon", "4.4", "26632d19a00e56c06e4a7ffa9d17c0fb02f263e204424cc6a4eea61050dd02c5"),
    ("tau", "1e+20", "d57c81a2cca5f6fd74b012206fc218f20e18c4341a479d6d761e027d8ff563b7"),
]


@pytest.mark.parametrize("name, mass, expected_sha", DECAY_OVERRIDE_BYTES)
def test_decay_bytes_with_a_mass_override_are_pinned(tmp_path, name, mass, expected_sha):
    override = tmp_path / "constants.txt"
    override.write_text(f"m_{name} = {mass}\n")
    code, out, err = invoke(["decay", name, "--format", "json", "--constants", str(override)])
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == expected_sha


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_closed_stdout_pipe_exits_one_without_traceback(unbuffered):
    """As ``vfvacuum decay muon | head -0``: the reader is gone before the CLI
    writes, whether the write fails in ``print`` or in the flush after it."""
    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    child = subprocess.Popen(
        [sys.executable, "-m", "vfvacuum.cli", "decay", "muon", "--format", "json"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    child.stdout.close()
    _, err = child.communicate(timeout=120)
    assert (child.returncode, err) == (1, b"")


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
