"""Properties of the CLI boundary and of the lepton mass domain.

The CLI properties draw argv for every subcommand and override-file text whose
names come from ``CONSTANT_NAMES`` plus junk and whose values include the
float edges (``5e-324``, ``1e-320``, ``1e300``, ``inf``, ``nan``) and malformed
strings: ``cli.run`` never raises, exits 0, 1 or 2, prints nothing on stdout
on exit 2, and prints strict JSON in ``--format json`` otherwise. The mass
properties draw each lepton mass log-uniformly from ``LEPTON_MASS_DOMAIN``.

The unit-rescaling properties change the units of mass, length, time and
charge by factors lambda_M, lambda_L, lambda_T, lambda_Q and map every constant
by its dimension. Within 10^+-6 the pipeline is covariant: each output scales
by its dimension, the deviations stay put and every unit-invariant row passes.
Within 10^+-45, where the masses stay in ``LEPTON_MASS_DOMAIN``, ``cli.run``
keeps the boundary properties above on every rescaled table.
"""

import dataclasses
import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vfvacuum import cli, report
from vfvacuum.constants import CONSTANT_NAMES, LEPTON_MASS_DOMAIN, LEPTON_NAMES, load_constants
from vfvacuum.permittivity import (
    annihilation_rate_closed_form,
    eps0_contribution_closed_form,
    eps0_total,
)
from vfvacuum.vfmodel import characterize

EDGE_VALUES = ["5e-324", "1e-320", "1e-300", "1e300", "1e160", "1e-170", "inf", "-inf", "nan", "0", "-1"]
MALFORMED = ["", "abc", "1e", "0x10", "1.2.3", "--", "e5"]
JUNK_NAMES = ["m_quark", "M_MUON", "alpha alpha", "", "hbar2"]


def _log_uniform_mass(log_mass: float) -> float:
    low, high = LEPTON_MASS_DOMAIN
    return min(max(math.exp(log_mass), low), high)


masses = st.floats(*(math.log(bound) for bound in LEPTON_MASS_DOMAIN)).map(_log_uniform_mass)

PINNED = load_constants()
values = st.one_of(
    st.sampled_from(EDGE_VALUES + MALFORMED),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False).map(repr),
    st.floats(1e-9, 1e9).map(repr),
)
# A pinned value scaled a little or a lot: near 1 it often keeps the table consistent.
scaled_lines = st.builds(
    lambda name, factor: f"{name} = {getattr(PINNED, name) * factor!r}",
    st.sampled_from(CONSTANT_NAMES),
    st.sampled_from([1.0, 1.0 + 1e-12, 0.5, 2.0, 1e-100, 1e100]),
)
override_lines = st.one_of(
    st.builds("{} = {}".format, st.sampled_from(CONSTANT_NAMES + tuple(JUNK_NAMES)), values),
    scaled_lines,
    st.builds("{} = {!r}".format, st.sampled_from([f"m_{name}" for name in LEPTON_NAMES]), masses),
    st.sampled_from(["# comment", "", "no equals sign", "= 5", "m_muon 5", "m_muon = 1 = 2"]),
)
override_texts = st.lists(override_lines, max_size=3).map(lambda lines: "\n".join(lines) + "\n")

# --trials is capped at 64 so no draw asks for a long run.
int_values = st.one_of(st.integers(-2, 64).map(str), st.sampled_from(MALFORMED))
seed_values = st.one_of(st.integers(-2, 2**64).map(str), st.sampled_from(MALFORMED))


@st.composite
def invocations(draw):
    """(argv without --constants, override text or None)."""
    command = draw(st.sampled_from(["report", "species", "decay", "trace-check", "laser", "constants"]))
    argv = [command]
    if command in ("species", "decay"):
        argv.append(draw(st.sampled_from([*LEPTON_NAMES, "quark", ""])))
    elif command == "trace-check":
        for flag, strategy in (("--trials", int_values), ("--seed", seed_values)):
            if draw(st.booleans()):
                argv += [flag, draw(strategy)]
    elif command == "laser":
        for flag in ("--power", "--wavelength", "--radius"):
            if draw(st.integers(0, 9)):  # now and then a required flag is missing
                argv += [flag, draw(values)]
    if draw(st.booleans()):
        argv += ["--format", draw(st.sampled_from(["json", "json", "text", "xml"]))]
    text = draw(override_texts) if draw(st.booleans()) else None
    return argv, text


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.fixture(scope="module")
def override_path(tmp_path_factory):
    return tmp_path_factory.mktemp("overrides") / "constants.txt"


# The two inputs that raised before the constants audit and the beam density
# treated an unevaluable float expression as violated or out of range.
@settings(max_examples=150)
@given(invocations())
@example((["report"], "h = 5e-324\n"))
@example((["constants", "--format", "json"], "eps0_accepted = 1e-320\n"))
@example((["species", "tau"], "c_defined = 1e-300\n"))
@example((["decay", "muon"], "e_charge = 1e300\n"))
@example((["laser", "--power", "1", "--wavelength", "1e-6", "--radius", "1e160"], None))
def test_cli_boundary(override_path, invocation):
    argv, text = invocation
    if text is not None:
        override_path.write_text(text, encoding="utf-8")
        argv = [*argv, "--constants", str(override_path)]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == ""
    elif "--format" in argv and argv[argv.index("--format") + 1] == "json":
        json.loads(out.getvalue(), parse_constant=_reject_constant)


def _relative_to(value, target):
    return abs(value / target - 1.0)


@settings(max_examples=100)
@given(st.tuples(masses, masses, masses))
@example(LEPTON_MASS_DOMAIN[:1] * 3)
@example(LEPTON_MASS_DOMAIN[1:] * 3)
def test_pipeline_agrees_with_closed_forms_over_the_mass_domain(lepton_masses):
    constants = load_constants(dict(zip(("m_electron", "m_muon", "m_tau"), lepton_masses)))
    report = eps0_total(constants)
    closed_contribution = eps0_contribution_closed_form(constants)
    contributions = [entry.contribution for entry in report.per_species]
    assert (max(contributions) - min(contributions)) / min(contributions) <= 1e-9
    for entry, species in zip(report.per_species, constants.leptons()):
        assert entry.pair.species == species
        pipeline_rate = constants.from_natural(entry.decay.gamma, "rate")
        assert _relative_to(pipeline_rate, annihilation_rate_closed_form(species, constants)) <= 1e-9
        assert _relative_to(entry.contribution, closed_contribution) <= 1e-9


@settings(max_examples=100)
@given(masses)
@example(LEPTON_MASS_DOMAIN[0])
@example(LEPTON_MASS_DOMAIN[1])
def test_pair_record_identities_over_the_mass_domain(mass):
    constants = load_constants({"m_electron": mass})
    pair = characterize(constants.lepton("electron"), constants)
    assert _relative_to(pair.lifetime * pair.creation_energy, constants.hbar / 2.0) <= 1e-12
    assert _relative_to(pair.length, constants.c_defined * pair.lifetime) <= 1e-12
    assert _relative_to(pair.number_density * pair.volume, 1.0) <= 1e-12


# Exponents of (mass, length, time, charge) in the dimension of each constant.
DIMENSIONS = {
    "c_defined": (0, 1, -1, 0),
    "h": (1, 2, -1, 0),
    "hbar": (1, 2, -1, 0),
    "e_charge": (0, 0, 0, 1),
    "alpha": (0, 0, 0, 0),
    "mu0": (1, 1, 0, -2),
    "eps0_accepted": (-1, -3, 2, 2),
    "electronvolt": (1, 2, -2, 0),
    **{f"m_{name}": (1, 0, 0, 0) for name in LEPTON_NAMES},
}
PERMITTIVITY, SPEED, TIME = DIMENSIONS["eps0_accepted"], DIMENSIONS["c_defined"], (0, 0, 1, 0)

# Rows that compare two paths of a dimensionless quantity, or a deviation from an accepted
# value read in the same units: no choice of units moves them.
UNIT_INVARIANT_ROWS = (
    "eps0-deviation-window",
    "c-deviation-window",
    "per-species-equality",
    "pipeline-vs-closed-contribution",
    "alpha-vs-mu0-closed-form",
    "sigma-coefficient-singlet",
    "decay-closed-form-agreement",
    "two-photon-half-rate",
    "permeability-identity",
)
# Rows that compare with a target quoted in SI, or with the reference beam fixed in SI:
# a large enough change of units fails them by design.
SI_ANCHORED_ROWS = (
    "eps0-headline",
    "c-headline",
    "electron-vf-density",
    "tau-vf-density",
    "electron-vf-lifetime",
    "electron-decay-lifetime",
    "laser-density-window",
    "laser-below-vf-density",
)


def _factor(scales, dimension):
    return math.prod(scale**power for scale, power in zip(scales, dimension))


def _rescaled_values(scales):
    """Every constant of the pinned table in the units rescaled by (lambda_M, lambda_L, lambda_T, lambda_Q)."""
    return {name: getattr(PINNED, name) * _factor(scales, dimension) for name, dimension in DIMENSIONS.items()}


def test_dimensions_cover_every_constant():
    assert tuple(DIMENSIONS) == CONSTANT_NAMES


unit_scales = st.floats(-6.0, 6.0).map(lambda exponent: 10.0**exponent)


@settings(max_examples=100)
@given(st.tuples(unit_scales, unit_scales, unit_scales, unit_scales))
@example((1e-6, 1e6, 1e-6, 1e6))
@example((1e6, 1e-6, 1e6, 1e-6))
def test_pipeline_is_covariant_under_a_change_of_units(scales):
    constants = dataclasses.replace(PINNED, **_rescaled_values(scales))
    pinned, scaled = eps0_total(PINNED), eps0_total(constants)
    assert _relative_to(scaled.eps0_calculated, pinned.eps0_calculated * _factor(scales, PERMITTIVITY)) <= 1e-12
    assert _relative_to(scaled.c_calculated, pinned.c_calculated * _factor(scales, SPEED)) <= 1e-12
    for entry, reference in zip(scaled.per_species, pinned.per_species):
        assert _relative_to(entry.decay.lifetime, reference.decay.lifetime * _factor(scales, TIME)) <= 1e-12
    assert _relative_to(scaled.deviation_percent, pinned.deviation_percent) <= 1e-12
    assert _relative_to(scaled.c_deviation_percent, pinned.c_deviation_percent) <= 1e-12

    status = {row["name"]: row["status"] for row in report.build_report(constants)["checks"]}
    assert sorted(status) == sorted(UNIT_INVARIANT_ROWS + SI_ANCHORED_ROWS)
    assert [name for name in UNIT_INVARIANT_ROWS if status[name] != "pass"] == []


def _run_in_rescaled_units(override_path, exponents, argv, output_format):
    """(exit code, stdout, stderr) of ``cli.run`` on the pinned table in units rescaled by 10**exponents."""
    values = _rescaled_values([10.0**exponent for exponent in exponents])
    override_path.write_text("".join(f"{name} = {value!r}\n" for name, value in values.items()), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run([*argv, "--format", output_format, "--constants", str(override_path)])
    return code, out, err


wide_exponents = st.floats(-45.0, 45.0)
lepton_argv = st.sampled_from(["species", "decay"]).flatmap(
    lambda command: st.sampled_from([[command, name] for name in LEPTON_NAMES])
)


# Tables at the edges of float range: the charge unit x1e-60 and x1e100 (the direct
# Coulomb form of vfmodel.binding_energy leaves the floats there: its denominator
# underflows, its e^4 overflows), masses x1e-20 and times x1e140 (every binding energy
# is subnormal), the table where (8 e^2/hbar)^2 alone overflows (the mu0 closed form of
# eps0 is grouped to stay in range), and three tables whose evaluation raises an
# ArithmeticError: omega0^2 overflows in the dipole, hbar*c underflows to zero in the
# closed-form contribution, and the laser-below-vf-density ratio overflows.
@settings(max_examples=100)
@given(
    st.tuples(wide_exponents, wide_exponents, wide_exponents, wide_exponents),
    st.one_of(st.just(["report"]), lepton_argv, st.just(["constants"])),
    st.sampled_from(["json", "text"]),
)
@example((0.0, 0.0, 0.0, -60.0), ["report"], "json")
@example((0.0, 0.0, 0.0, -60.0), ["species", "muon"], "text")
@example((0.0, 0.0, 0.0, 100.0), ["report"], "text")
@example((0.0, 0.0, 0.0, 100.0), ["species", "muon"], "json")
@example((-20.0, 0.0, 140.0, 0.0), ["report"], "json")
@example((-20.0, 0.0, 140.0, 0.0), ["species", "tau"], "text")
@example((-40.0, -80.0, -80.0, 20.0), ["report"], "json")
@example((-45.0, -75.0, -150.0, -90.0), ["report"], "json")
@example((-45.0, -75.0, 15.0, -135.0), ["report"], "text")
@example((-45.0, 30.0, 105.0, -135.0), ["report"], "json")
@example((-45.0, 30.0, 105.0, -135.0), ["report"], "text")
def test_cli_survives_any_change_of_units(override_path, exponents, argv, output_format):
    code, out, err = _run_in_rescaled_units(override_path, exponents, argv, output_format)
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    else:
        assert err.getvalue() == ""
        if output_format == "json":
            json.loads(out.getvalue(), parse_constant=_reject_constant)


def test_report_in_units_where_the_direct_mu0_form_overflows_exits_1(override_path):
    """Units of mass, length, time and charge x1e-40, x1e-80, x1e-80, x1e20: the report
    prints, every unit-invariant row passes and only SI-anchored rows fail."""
    code, out, err = _run_in_rescaled_units(override_path, (-40.0, -80.0, -80.0, 20.0), ["report"], "json")
    assert (code, err.getvalue()) == (1, "")
    failing = [row["name"] for row in json.loads(out.getvalue())["checks"] if row["status"] != "pass"]
    assert failing and set(failing) <= set(SI_ANCHORED_ROWS)


@pytest.mark.parametrize(
    "exponents, error",
    [((-45.0, -75.0, -150.0, -90.0), "OverflowError"), ((-45.0, -75.0, 15.0, -135.0), "ZeroDivisionError"),
     ((-45.0, 30.0, 105.0, -135.0), "OverflowError")],  # the laser-below-vf-density ratio overflows
)
def test_report_whose_evaluation_leaves_the_floats_exits_2(override_path, exponents, error):
    code, out, err = _run_in_rescaled_units(override_path, exponents, ["report"], "text")
    assert (code, out.getvalue()) == (2, "")
    assert err.getvalue().startswith(f"error: the evaluation left float range: {error}: ")
    assert err.getvalue().count("\n") == 1
