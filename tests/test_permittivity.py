import dataclasses
import math
import sys

import pytest

import oracles
from vfvacuum import dirac, oscillator, permittivity, vfmodel
from vfvacuum.constants import ConsistencyError, load_constants
from vfvacuum.permittivity import (
    LaserSpec,
    annihilation_rate_closed_form,
    eps0_contribution_closed_form,
    eps0_total,
    photon_number_density,
)


def report_entry(species, constants):
    """One species' entry of the permittivity report."""
    return eps0_total(constants).per_species[constants.leptons().index(species)]


def rate_lifetime_product(entry, constants):
    """Gamma * dt of a report entry's decay and pair records: the small exponent of the
    interaction probability."""
    return constants.from_natural(entry.decay.gamma, "rate") * entry.pair.lifetime


def test_rate_lifetime_product_is_alpha_fifth_over_four(constants, electron):
    product = rate_lifetime_product(report_entry(electron, constants), constants)
    assert product == pytest.approx(constants.alpha**5 / 4.0, rel=1e-12)


def test_probability_bounds_and_linearization(constants):
    for entry in eps0_total(constants).per_species:
        exact = oracles.interaction_probability(entry.pair, constants, entry.decay)
        linear = rate_lifetime_product(entry, constants)
        assert 0.0 < exact < 1.0
        # difference is the quadratic term of the exponential, ~(Gamma dt)^2/2
        assert abs(exact - linear) < 1e-20
        assert abs(exact - linear) == pytest.approx(linear**2 / 2.0, rel=1e-2)


def test_effective_density_electron(constants, electron):
    value = report_entry(electron, constants).n_vf
    assert value == pytest.approx(5.8e27, rel=2e-2)
    assert value == pytest.approx(oracles.effective_density_closed_form(electron, constants), rel=1e-12)


def test_effective_density_is_density_times_probability(constants, electron):
    entry = report_entry(electron, constants)
    assert entry.n_vf == pytest.approx(
        vfmodel.characterize(electron, constants).number_density * rate_lifetime_product(entry, constants),
        rel=1e-12,
    )


def test_effective_density_mass_cubed_scaling(constants, electron, muon):
    ratio = report_entry(muon, constants).n_vf / report_entry(electron, constants).n_vf
    assert ratio == pytest.approx((muon.mass / electron.mass) ** 3, rel=1e-9)


def test_eps0_contribution_electron(constants, electron):
    value = report_entry(electron, constants).contribution
    assert value == pytest.approx(3.03e-12, rel=5e-3)
    assert value == pytest.approx(eps0_contribution_closed_form(constants), rel=1e-9)


def test_eps0_contribution_identical_across_species(constants, electron, muon, tau):
    reference = report_entry(electron, constants).contribution
    assert report_entry(muon, constants).contribution == pytest.approx(reference, rel=1e-9)
    assert report_entry(tau, constants).contribution == pytest.approx(reference, rel=1e-9)


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
    # NaN and inf both fail the one guard: every contribution finite and positive.
    monkeypatch.setattr(oscillator, "species_dipole", lambda *args: dipole)
    with pytest.raises(ConsistencyError):
        eps0_total(constants)


def _in_rescaled_units(constants, mass, length, time, charge):
    """The table in units of mass, length, time and charge scaled by the given factors."""
    action, energy = mass * length**2 / time, mass * length**2 / time**2
    return dataclasses.replace(
        constants,
        h=constants.h * action,
        hbar=constants.hbar * action,
        c_defined=constants.c_defined * length / time,
        e_charge=constants.e_charge * charge,
        mu0=constants.mu0 * mass * length / charge**2,
        eps0_accepted=constants.eps0_accepted * charge**2 * time**2 / (mass * length**3),
        electronvolt=constants.electronvolt * energy,
        **{f"m_{s.name}": s.mass * mass for s in constants.leptons()},
    )


def test_eps0_total_mu0_form_in_rescaled_units_meets_the_alpha_form(constants):
    """The audited table with the units of mass, length, time and charge scaled by 1e-40,
    1e-80, 1e-80 and 1e20: (8 e^2/hbar)^2 alone overflows, but the grouping
    (mu0 e^2/hbar)(e^2/hbar) keeps every intermediate in range."""
    report = eps0_total(_in_rescaled_units(constants, 1e-40, 1e-80, 1e-80, 1e20))
    assert sys.float_info.min <= report.eps0_mu0_form < math.inf
    assert report.eps0_mu0_form == pytest.approx(report.eps0_alpha_form, rel=1e-6)


def test_eps0_total_mu0_form_out_of_float_range_is_a_value_error(constants):
    """The table with the units of mass, length, time and charge scaled by 1e45, 1e45,
    1e-45 and 1e-15, where eps0 itself, about 9.1e-312, is subnormal: the audit rejects it
    with a ValueError naming the constant, before eps0_total could evaluate the mu0 form.
    The mu0 form is 1.028 eps0_accepted on every audited table, so it leaves the normal
    floats only where eps0_accepted does or an intermediate does."""
    with pytest.raises(ValueError, match="^constant eps0_accepted must be a normal float, got 8.85418781277e-312$"):
        _in_rescaled_units(constants, 1e45, 1e45, 1e-45, 1e-15)


def test_eps0_total_mu0_form_guard_is_reached_by_an_audited_table():
    """Unit rescalings keep alpha, so there the mu0 form, 6144 pi alpha^2 eps0, is as far in
    range as eps0_accepted; with alpha at 1.1e-29 (charge rescaled to match) it is subnormal while
    the decay and every species contribution evaluate, and eps0_total stops at its guard."""
    table = load_constants({
        "c_defined": 1.1926146196218445e100, "h": 2771.360797112382, "hbar": 441.0757699515309,
        "e_charge": 2.5432054982219616e-93, "alpha": 1.0718492403889444e-29, "mu0": 7.701826535114415e59,
        "eps0_accepted": 9.128638506370368e-261, "electronvolt": 7.328366055944882e139,
        "m_electron": 2.6328547745373473e-55, "m_muon": 5.443908610768544e-53, "m_tau": 9.155035165732204e-52,
    })
    assert all(0.0 < decay.lifetime < math.inf for decay in dirac.decay_rate(table.leptons(), table))
    with pytest.raises(ValueError, match="^the mu0 closed form of eps0 is out of float range$"):
        eps0_total(table)


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
        assert entry.pair == vfmodel.characterize(species, constants)
        assert entry.n_vf == entry.pair.number_density * rate_lifetime_product(entry, constants)
        assert entry.dipole_per_field == oscillator.species_dipole(entry.pair)
        assert entry.contribution == entry.n_vf * entry.dipole_per_field
        assert entry.contribution == report_entry(species, constants).contribution


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
    assert photon_number_density(laser, constants) < vfmodel.characterize(electron, constants).number_density


def test_quark_note_is_fixed_text():
    assert "no closed form" in permittivity.QUARK_CONTRIBUTION_NOTE
