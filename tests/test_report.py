"""Guards of the report and the output memo: the pinned report's bytes stay
those recorded in bench/golden.json, one report evaluates each pipeline
quantity once, and a repeated command reuses its printed output without
changing a byte."""

import collections
import hashlib
import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vfvacuum import cli, dirac, oscillator, permittivity, report, vfmodel
from vfvacuum import constants as constants_module
from vfvacuum.constants import LEPTON_MASS_DOMAIN, LEPTON_NAMES, ConstantsSet, load_constants

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


def test_build_report_derives_each_pair_record_once(monkeypatch):
    """One record per lepton feeds the contribution, the pair table and the checks:
    no per-pair quantity is derived a second time along another chain."""
    constants = load_constants({"m_muon": 2.5e-28})
    calls = collections.Counter()
    for module, name in ((vfmodel, "characterize"), (vfmodel, "binding_energy"),
                         (dirac, "decay_rate"), (ConstantsSet, "leptons")):
        count_calls(monkeypatch, calls, module, name)
    report.build_report(constants)
    assert calls == {"characterize": 3, "binding_energy": 3, "leptons": 1, "decay_rate": 1}


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


# One argv of each subcommand; a test adds "--format" and, where it needs one, "--constants".
SUBCOMMAND_ARGVS = [
    ["report"],
    ["species", "muon"],
    ["decay", "tau"],
    ["trace-check", "--trials", "2", "--seed", "1"],
    ["laser", "--power", "6000", "--wavelength", "1e-05", "--radius", "0.00016"],
    ["constants"],
]
# The functions that build and render an output; a memo hit runs none of them.
PRINTING_FUNCTIONS = [
    (report, "build_report"),
    (report, "to_json"),
    (report, "render_text"),
    (permittivity, "eps0_total"),
    (permittivity, "photon_number_density"),
    (vfmodel, "characterize"),
    (dirac, "decay_rate"),
    (dirac, "verification_suite"),
]


def test_build_report_evaluates_on_every_call(monkeypatch, constants):
    calls = collections.Counter()
    count_calls(monkeypatch, calls, permittivity, "eps0_total")
    first, second = report.build_report(constants), report.build_report(constants)
    assert calls == {"eps0_total": 2}
    assert second == first and second is not first


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("argv", SUBCOMMAND_ARGVS, ids=lambda argv: argv[0])
def test_a_repeated_command_reuses_its_output(monkeypatch, tmp_path, argv, fmt):
    override = tmp_path / "constants.txt"
    override.write_text("m_muon = 2.5e-28\n")
    for flags in ([], ["--constants", str(override)]):
        full = [*argv, "--format", fmt, *flags]
        first = _run(full)
        calls = collections.Counter()
        with monkeypatch.context() as patch:
            for module, name in PRINTING_FUNCTIONS:
                count_calls(patch, calls, module, name)
            count_calls(patch, calls, cli, "load_constants")
            assert _run(full) == first
        # The table is still read and audited; nothing is evaluated or rendered again.
        assert calls == {"load_constants": 1}, full


def test_an_evaluation_that_raises_raises_on_every_call(monkeypatch):
    calls = collections.Counter()
    monkeypatch.setattr(oscillator, "species_dipole", lambda *args: math.nan)
    count_calls(monkeypatch, calls, permittivity, "eps0_total")
    for _ in range(3):
        code, out, err = _run(["report"])
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "positive" in err
    assert calls == {"eps0_total": 3}
    assert cli._output.cache_info().currsize == 0


def test_the_output_memo_is_bounded():
    bound = cli._output.cache_info().maxsize
    assert bound == 8
    for k in range(3 * bound):
        argv = SUBCOMMAND_ARGVS[k % len(SUBCOMMAND_ARGVS)]
        _run([*argv, "--format", ("json", "text")[k // len(SUBCOMMAND_ARGVS) % 2]])
        assert cli._output.cache_info().currsize <= bound
    assert cli._output.cache_info().currsize == bound


_PINNED = load_constants()
PINNED_MASSES = (_PINNED.m_electron, _PINNED.m_muon, _PINNED.m_tau)


def _log_uniform_mass(draw) -> float:
    low, high = LEPTON_MASS_DOMAIN
    return min(max(math.exp(draw(st.floats(math.log(low), math.log(high)))), low), high)


@st.composite
def command_sequences(draw):
    """Tables (None for the pinned file, else the three lepton masses of an
    override file), commands of every subcommand, and a sequence of (table index,
    command index, format order) picks, repeats allowed: the pinned table, an
    override equal to it, log-uniform masses. Each pick runs in both formats."""
    tables = [None, PINNED_MASSES]
    tables += [tuple(_log_uniform_mass(draw) for _ in range(3))
               for _ in range(draw(st.integers(0, cli._output.cache_info().maxsize + 4)))]
    commands = SUBCOMMAND_ARGVS + [
        ["species", draw(st.sampled_from(LEPTON_NAMES))],
        ["decay", draw(st.sampled_from(LEPTON_NAMES))],
        ["trace-check", "--trials", str(draw(st.integers(1, 3))), "--seed", str(draw(st.integers(0, 3)))],
        ["laser", "--power", repr(draw(st.floats(1e-3, 1e6))), "--wavelength", "1e-06", "--radius", "0.001"],
    ]
    picks = st.tuples(st.integers(0, len(tables) - 1), st.integers(0, len(commands) - 1),
                      st.permutations(["json", "text"]))
    return tables, commands, draw(st.lists(picks, min_size=1, max_size=3 * len(tables) + len(commands)))


def _clear_memos():
    cli._output.cache_clear()
    constants_module._parse_pinned.cache_clear()


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


@given(command_sequences())
@example(([None, PINNED_MASSES], SUBCOMMAND_ARGVS,
          [(table, command, ["json", "text"][::order]) for order in (1, -1) for table in (0, 1)
           for command in range(len(SUBCOMMAND_ARGVS))]))
def test_report_stdout_does_not_depend_on_the_memo(tmp_path_factory, sequence):
    """Every subcommand, run in sequence with repeats, prints what it prints
    after a memo clear (exit code, stdout and stderr)."""
    tables, commands, picks = sequence
    directory = tmp_path_factory.mktemp("tables")
    names, flags = ("m_electron", "m_muon", "m_tau"), [[]]
    for index, masses in enumerate(tables[1:], start=1):
        path = directory / f"table-{index}.txt"
        path.write_text("".join(f"{name} = {mass!r}\n" for name, mass in zip(names, masses)))
        flags.append(["--constants", str(path)])
    argvs = [[*commands[command], "--format", fmt, *flags[table]]
             for table, command, formats in picks for fmt in formats]
    expected = {}
    for argv in argvs:
        _clear_memos()
        expected[tuple(argv)] = _run(argv)
    _clear_memos()
    for argv in argvs:
        assert _run(argv) == expected[tuple(argv)], argv


JSON_SCALARS = st.one_of(
    st.text(),  # non-ASCII and control characters included
    st.integers(),
    st.booleans(),
    st.none(),
    st.floats(),  # NaN, +-inf, +-0.0 and subnormals included
    st.sampled_from([0.0, -0.0, 5e-324, -2.5e-308, math.nan, math.inf, -math.inf]),
)
JSON_DOCUMENTS = st.recursive(
    JSON_SCALARS,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=24,
)


@settings(max_examples=100)
@given(JSON_DOCUMENTS)
@example({"empty": {}, "none": [], "pair": (1, -0.0), "nested": [[{}], {"\u00e9\n": [math.nan]}], "big": 10**40})
@example(np.float64(-1.5e-310))  # a float subclass, written by float.__repr__
def test_to_json_writes_the_bytes_of_json_dumps(document):
    assert report.to_json(document) == json.dumps(document, indent=2)


@pytest.mark.parametrize("value", [np.float32(1.5), np.int64(3), np.bool_(True), {1.0}])
def test_to_json_rejects_what_json_dumps_rejects(value):
    for document in (value, [value], {"key": value}):
        with pytest.raises(TypeError):
            json.dumps(document, indent=2)
        with pytest.raises(TypeError):
            report.to_json(document)
