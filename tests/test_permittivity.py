import math

import pytest

from vfvacuum import dirac, oscillator, permittivity, vfmodel
from vfvacuum.constants import ConsistencyError, load_constants
from vfvacuum.permittivity import (
    LaserSpec,
    annihilation_rate_closed_form,
    effective_density,
    effective_density_closed_form,
    eps0_contribution,
    eps0_contribution_closed_form,
    eps0_total,
    interaction_probability,
    interaction_probability_linearized,
    photon_number_density,
)


def test_rate_lifetime_product_is_alpha_fifth_over_four(constants, electron):
    product = interaction_probability_linearized(electron, constants)
    assert product == pytest.approx(constants.alpha**5 / 4.0, rel=1e-12)


def test_probability_bounds_and_linearization(constants):
    for species in constants.leptons():
        exact = interaction_probability(species, constants)
        linear = interaction_probability_linearized(species, constants)
        assert 0.0 < exact < 1.0
        # difference is the quadratic term of the exponential, ~(Gamma dt)^2/2
        assert abs(exact - linear) < 1e-20
        assert abs(exact - linear) == pytest.approx(linear**2 / 2.0, rel=1e-2)


def test_effective_density_electron(constants, electron):
    value = effective_density(electron, constants)
    assert value == pytest.approx(5.8e27, rel=2e-2)
    assert value == pytest.approx(effective_density_closed_form(electron, constants), rel=1e-12)


def test_effective_density_is_density_times_probability(constants, electron):
    assert effective_density(electron, constants) == pytest.approx(
        vfmodel.number_density(electron, constants)
        * interaction_probability_linearized(electron, constants),
        rel=1e-12,
    )


def test_effective_density_mass_cubed_scaling(constants, electron, muon):
    ratio = effective_density(muon, constants) / effective_density(electron, constants)
    assert ratio == pytest.approx((muon.mass / electron.mass) ** 3, rel=1e-9)


def test_eps0_contribution_electron(constants, electron):
    value = eps0_contribution(electron, constants)
    assert value == pytest.approx(3.03e-12, rel=5e-3)
    assert value == pytest.approx(eps0_contribution_closed_form(constants), rel=1e-9)


def test_eps0_contribution_identical_across_species(constants, electron, muon, tau):
    reference = eps0_contribution(electron, constants)
    assert eps0_contribution(muon, constants) == pytest.approx(reference, rel=1e-9)
    assert eps0_contribution(tau, constants) == pytest.approx(reference, rel=1e-9)


def test_eps0_total_headline(constants):
    report = eps0_total(constants)
    assert report.eps0_calculated == pytest.approx(9.10e-12, rel=5e-3)
    assert report.deviation_percent == pytest.approx(2.7, abs=0.3)
    assert report.c_calculated == pytest.approx(2.96e8, rel=5e-3)
    assert report.c_deviation_percent == pytest.approx(-1.4, abs=0.3)


def test_eps0_total_structure(constants):
    report = eps0_total(constants)
    assert [entry.species for entry in report.per_species] == ["electron", "muon", "tau"]
    assert all(entry.contribution > 0.0 for entry in report.per_species)
    assert report.eps0_calculated == pytest.approx(
        sum(entry.contribution for entry in report.per_species), rel=1e-15
    )
    assert report.eps0_accepted == constants.eps0_accepted
    assert report.c_calculated == pytest.approx(
        1.0 / math.sqrt(constants.mu0 * report.eps0_calculated), rel=1e-12
    )
    assert "excluded" in report.quark_contributions


def test_closed_form_totals_agree(constants):
    report = eps0_total(constants)
    assert report.eps0_mu0_form == pytest.approx(report.eps0_alpha_form, rel=1e-6)
    assert report.eps0_alpha_form == pytest.approx(
        3.0 * eps0_contribution_closed_form(constants), rel=1e-15
    )


def test_removing_any_species_moves_totals_monotonically(constants):
    report = eps0_total(constants)
    for removed in report.per_species:
        partial = report.eps0_calculated - removed.contribution
        assert partial < report.eps0_calculated
        assert 1.0 / math.sqrt(constants.mu0 * partial) > report.c_calculated


def test_eps0_independent_of_lepton_masses(constants):
    baseline = eps0_total(constants).eps0_calculated
    for name in ("m_electron", "m_muon", "m_tau"):
        doubled = load_constants({name: 2.0 * getattr(constants, name)})
        perturbed = eps0_total(doubled).eps0_calculated
        assert abs(perturbed / baseline - 1.0) < 1e-9


@pytest.mark.parametrize("dipole", [math.nan, math.inf])
def test_eps0_total_rejects_nonfinite_contributions(constants, monkeypatch, dipole):
    # NaN fails the positivity guard; inf passes it but makes the spread NaN.
    monkeypatch.setattr(oscillator, "species_dipole", lambda *args: dipole)
    with pytest.raises(ConsistencyError):
        eps0_total(constants)


def test_closed_form_rate_cross_check(constants, electron):
    assert annihilation_rate_closed_form(electron, constants) == pytest.approx(
        constants.alpha**5 * electron.mass_energy / constants.hbar, rel=1e-15
    )


def test_laser_spec_validation():
    with pytest.raises(ValueError):
        LaserSpec(power=-1.0, wavelength=1e-6, beam_radius=1e-4)
    with pytest.raises(ValueError):
        LaserSpec(power=1.0, wavelength=0.0, beam_radius=1e-4)
    with pytest.raises(ValueError):
        LaserSpec(power=1.0, wavelength=1e-6, beam_radius=-1e-4)


@pytest.mark.parametrize("field", ["power", "wavelength", "beam_radius"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_laser_spec_rejects_nonfinite(field, value):
    values = {"power": 6000.0, "wavelength": 10e-6, "beam_radius": 0.16e-3, field: value}
    with pytest.raises(ValueError, match="finite and positive"):
        LaserSpec(**values)


def test_eps0_total_carries_one_decay_per_species(constants):
    report = eps0_total(constants)
    for entry, species in zip(report.per_species, constants.leptons()):
        assert entry.decay == dirac.decay_rate(species, constants)
        assert entry.n_vf == effective_density(species, constants)
        assert entry.contribution == eps0_contribution(species, constants)


def test_cutting_laser_photon_density(constants):
    laser = LaserSpec(power=6000.0, wavelength=10e-6, beam_radius=0.16e-3)
    density = photon_number_density(laser, constants)
    assert density == pytest.approx(1.2e22, rel=0.1)


def test_photon_density_linear_in_power(constants):
    laser = LaserSpec(power=6000.0, wavelength=10e-6, beam_radius=0.16e-3)
    double = LaserSpec(power=12000.0, wavelength=10e-6, beam_radius=0.16e-3)
    assert photon_number_density(double, constants) == pytest.approx(
        2.0 * photon_number_density(laser, constants), rel=1e-15
    )


def test_photon_density_below_vf_density(constants, electron):
    laser = LaserSpec(power=6000.0, wavelength=10e-6, beam_radius=0.16e-3)
    assert photon_number_density(laser, constants) < vfmodel.number_density(electron, constants)


def test_quark_note_is_fixed_text():
    assert "no closed form" in permittivity.QUARK_CONTRIBUTION_NOTE
