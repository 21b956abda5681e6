"""Properties of the CLI boundary and of the lepton mass domain.

The CLI properties draw argv for every subcommand and override-file text whose
names come from ``CONSTANT_NAMES`` plus junk and whose values include the
float edges (``5e-324``, ``1e-320``, ``1e300``, ``inf``, ``nan``) and malformed
strings: ``cli.run`` never raises, exits 0, 1 or 2, prints nothing on stdout
on exit 2, and prints strict JSON in ``--format json`` otherwise. The mass
properties draw each lepton mass log-uniformly from ``LEPTON_MASS_DOMAIN``.
"""

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vfvacuum import cli
from vfvacuum.constants import CONSTANT_NAMES, LEPTON_MASS_DOMAIN, LEPTON_NAMES, load_constants
from vfvacuum.permittivity import (
    annihilation_rate_closed_form,
    eps0_contribution_closed_form,
    eps0_total,
)

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
