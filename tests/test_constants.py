import hashlib
import math
import re

import numpy as np
import pytest

from vfvacuum import constants as constants_module
from vfvacuum.constants import (
    CONSTANT_NAMES,
    LEPTON_MASS_DOMAIN,
    NATURAL_DIMENSIONS,
    ConsistencyError,
    ConstantsSet,
    constants_digest,
    load_constants,
    parse_constants_text,
    pinned_constants_text,
    read_override_table,
)


def test_pinned_eps0_accepted(constants):
    assert constants.eps0_accepted == pytest.approx(8.8542e-12, rel=1e-4)


def test_mu0_eps0_c_squared_identity(constants):
    assert abs(constants.mu0 * constants.eps0_accepted * constants.c_defined**2 - 1.0) < 1e-6


def test_alpha_definition_holds(constants):
    alpha = constants.e_charge**2 / (
        4.0 * math.pi * constants.eps0_accepted * constants.hbar * constants.c_defined
    )
    assert alpha == pytest.approx(constants.alpha, rel=1e-6)


def test_hbar_exact(constants):
    assert constants.hbar == pytest.approx(constants.h / (2.0 * math.pi), rel=1e-15)


def test_negative_override_rejected():
    with pytest.raises(ConsistencyError):
        load_constants({"hbar": -1.0})


def test_inconsistent_override_rejected():
    # Scaling h alone breaks hbar = h/(2 pi).
    with pytest.raises(ConsistencyError):
        load_constants({"h": 6.7e-34})


def test_constants_set_built_directly_is_audited(constants):
    fields = {name: getattr(constants, name) for name in CONSTANT_NAMES}
    assert ConstantsSet(**fields) == constants
    # Scaling h alone breaks hbar = h/(2 pi).
    with pytest.raises(ConsistencyError, match="hbar"):
        ConstantsSet(**{**fields, "h": 6.7e-34})


@pytest.mark.parametrize("factor", [1 + 4.9e-10, 1 - 4.9e-10])
def test_alpha_within_tolerance_accepted(constants, factor):
    assert load_constants({"alpha": constants.alpha * factor}).alpha == constants.alpha * factor


@pytest.mark.parametrize("factor", [1 + 5.1e-10, 1 - 5.1e-10])
def test_alpha_beyond_tolerance_rejected(constants, factor):
    with pytest.raises(ConsistencyError, match=re.escape("alpha != e^2/(4*pi*eps0*hbar*c) within 5e-10")):
        load_constants({"alpha": constants.alpha * factor})


def test_unknown_override_name_rejected():
    with pytest.raises(ValueError, match="not_a_constant"):
        load_constants({"not_a_constant": 1.0})


@pytest.mark.parametrize("name", ["m_electron", "m_muon", "m_tau"])
@pytest.mark.parametrize("mass", [1e-83, 1e-120, 1e22])
def test_lepton_mass_outside_domain_rejected(name, mass):
    with pytest.raises(ConsistencyError) as excinfo:
        load_constants({name: mass})
    message = str(excinfo.value)
    assert f"{name} = {mass!r} kg" in message
    assert all(repr(bound) in message for bound in LEPTON_MASS_DOMAIN)


def test_consistent_mass_override_accepted(constants):
    doubled = load_constants({"m_muon": 2.0 * constants.m_muon})
    assert doubled.m_muon == 2.0 * constants.m_muon
    assert doubled.lepton("muon").mass_energy == pytest.approx(
        2.0 * constants.lepton("muon").mass_energy, rel=1e-12
    )


def test_lepton_invariants(constants):
    for species in constants.leptons():
        assert species.mass > 0.0
        assert species.charge_magnitude == constants.e_charge
        assert species.mass_energy / species.mass == pytest.approx(
            constants.c_defined**2, rel=1e-12
        )
        assert species.reduced_mass == species.mass / 2.0


def test_unknown_lepton_rejected(constants):
    with pytest.raises(ValueError):
        constants.lepton("proton")


def test_electron_mass_energy_in_mev(constants, electron):
    mev = constants.to_natural(electron.mass_energy, "energy")
    assert mev == pytest.approx(0.51100, rel=1e-4)


def test_zero_converts_to_zero(constants):
    for dim in NATURAL_DIMENSIONS:
        assert constants.to_natural(0.0, dim) == 0.0
        assert constants.from_natural(0.0, dim) == 0.0


def test_natural_rate_roundtrip_matches_closed_form(constants, electron):
    # alpha^5 * m as a natural rate converts to ~1.60e10 1/s.
    gamma_natural = constants.alpha**5 * constants.to_natural(electron.mass, "mass")
    rate = constants.from_natural(gamma_natural, "rate")
    assert rate == pytest.approx(1.60e10, rel=1e-2)
    assert 1.0 / rate == pytest.approx(6.2e-11, rel=1e-2)


def test_unsupported_dimension_rejected(constants):
    with pytest.raises(ValueError):
        constants.to_natural(1.0, "charge")
    with pytest.raises(ValueError):
        constants.from_natural(1.0, "momentum")


def test_roundtrip_property(constants):
    rng = np.random.default_rng(2024)
    magnitudes = 10.0 ** rng.uniform(-40, 40, size=1000)
    for dim in NATURAL_DIMENSIONS:
        back = np.array(
            [constants.from_natural(constants.to_natural(v, dim), dim) for v in magnitudes]
        )
        assert np.max(np.abs(back / magnitudes - 1.0)) < 1e-12


def test_parse_override_format(tmp_path):
    path = tmp_path / "overrides.txt"
    path.write_text(
        "# comment line\n"
        "m_muon = 3.767063254e-28  # doubled\n"
        "\n"
        "alpha=7.2973525693e-3\n"
    )
    table = read_override_table(path)
    assert table == {"m_muon": 3.767063254e-28, "alpha": 7.2973525693e-3}


def test_parse_rejects_garbage():
    with pytest.raises(ValueError, match="line 1"):
        parse_constants_text("this is not a key value pair")
    with pytest.raises(ValueError, match="bad numeric value"):
        parse_constants_text("alpha = zero point five")


def test_parse_rejects_repeated_name():
    with pytest.raises(ValueError, match=r"line 4: 'alpha' already set on line 2"):
        parse_constants_text("# pinned\nalpha = 7.2973525693e-3\nh = 6.62607015e-34\nalpha = 7.3e-3\n")


def test_digest_is_hashed_once_and_every_load_reads_the_table(monkeypatch):
    reads = []

    def counted():
        reads.append(1)
        return pinned_constants_text()

    monkeypatch.setattr(constants_module, "pinned_constants_text", counted)
    constants_digest.cache_clear()
    assert constants_digest() == hashlib.sha256(pinned_constants_text().encode("utf-8")).hexdigest()
    assert constants_digest() == constants_digest()
    assert len(reads) == 1
    load_constants()
    load_constants({"m_muon": 1e-28})
    assert len(reads) == 3


def test_pinned_text_is_parsed_once_per_distinct_text(monkeypatch):
    parses = []
    parse = constants_module.parse_constants_text
    monkeypatch.setattr(constants_module, "parse_constants_text", lambda text: parses.append(text) or parse(text))
    pinned = load_constants()
    assert load_constants({"m_muon": 1e-28}).m_muon == 1e-28
    assert load_constants() == pinned  # the override did not reach the memo
    assert len(parses) == 1
    text = pinned_constants_text() + "# one more comment\n"
    monkeypatch.setattr(constants_module, "pinned_constants_text", lambda: text)
    assert load_constants() == pinned
    assert parses == [pinned_constants_text(), text]


def test_names_case_sensitive():
    with pytest.raises(ValueError, match="Alpha"):
        load_constants({"Alpha": 7.3e-3})


def test_digest_is_stable_sha256():
    first = constants_digest()
    assert first == constants_digest()
    assert len(first) == 64
    int(first, 16)


def test_all_constant_names_present(constants):
    for name in CONSTANT_NAMES:
        assert getattr(constants, name) > 0.0
