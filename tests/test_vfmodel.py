import dataclasses
import math

import pytest

import oracles
from vfvacuum import vfmodel


def test_electron_binding_energy(constants, electron):
    value = vfmodel.binding_energy(electron, constants)
    assert value < 0.0
    assert value / constants.electronvolt == pytest.approx(-6.80, rel=5e-3)


def test_muon_binding_scales_with_mass(constants, electron, muon):
    ratio = muon.mass / electron.mass
    assert vfmodel.binding_energy(muon, constants) == pytest.approx(
        vfmodel.binding_energy(electron, constants) * ratio, rel=1e-9
    )
    assert vfmodel.binding_energy(muon, constants) / constants.electronvolt == pytest.approx(
        -1.41e3, rel=5e-3
    )


@pytest.mark.parametrize("charge_unit", [1e-60, 1e100])
def test_binding_energy_in_a_rescaled_charge_unit_meets_the_alpha_form(constants, charge_unit):
    """The audited table in a charge unit 1e-60 (the direct form's denominator underflows)
    or 1e100 times the coulomb (its e^4 overflows): the binding energy is still a normal
    float, and every lepton's meets the fine-structure form."""
    scaled = dataclasses.replace(
        constants,
        e_charge=constants.e_charge * charge_unit,
        mu0=constants.mu0 / charge_unit**2,
        eps0_accepted=constants.eps0_accepted * charge_unit**2,
    )
    for species in scaled.leptons():
        coulomb = vfmodel.binding_energy(species, scaled)
        assert abs(coulomb / oracles.binding_energy_alpha_form(species, scaled) - 1.0) <= 1e-12


def test_binding_energy_out_of_float_range_is_a_value_error(constants):
    """The audited table with masses x1e41, times x1e-143 and charges x1e50 (values of
    dimension M^a T^b Q^c scale by 1e41^a 1e-143^b 1e50^c): every constant is a normal
    float, electronvolt 1.6e308 among them, but every binding energy, m alpha^2 c^2 / 4,
    overflows, so no form gives a normal float and a ValueError names the pair. (A table
    with subnormal binding energies would need a subnormal electronvolt, which the audit
    rejects.)"""
    mass, time, charge = 1e41, 1e-143, 1e50
    scaled = dataclasses.replace(
        constants,
        h=constants.h * mass / time,
        hbar=constants.hbar * mass / time,
        c_defined=constants.c_defined / time,
        e_charge=constants.e_charge * charge,
        mu0=constants.mu0 * mass / charge**2,
        eps0_accepted=constants.eps0_accepted * charge**2 * time**2 / mass,
        electronvolt=constants.electronvolt * mass / time**2,
        m_electron=constants.m_electron * mass,
        m_muon=constants.m_muon * mass,
        m_tau=constants.m_tau * mass,
    )
    for species in scaled.leptons():
        assert -oracles.binding_energy_alpha_form(species, scaled) == math.inf
        with pytest.raises(ValueError, match=f"^the {species.name} pair's binding energy is out of float range$"):
            vfmodel.binding_energy(species, scaled)


def test_binding_energy_two_forms_agree(constants):
    for species in constants.leptons():
        coulomb = vfmodel.binding_energy(species, constants)
        alpha_form = oracles.binding_energy_alpha_form(species, constants)
        assert coulomb == pytest.approx(alpha_form, rel=1e-9)


def test_electron_resonant_frequency(constants, electron):
    omega = vfmodel.characterize(electron, constants).omega0
    assert omega > 0.0
    assert omega == pytest.approx(1.03e16, rel=1e-2)


def test_resonant_frequency_linear_in_mass(constants, electron, tau):
    assert vfmodel.characterize(tau, constants).omega0 == pytest.approx(
        vfmodel.characterize(electron, constants).omega0 * tau.mass / electron.mass, rel=1e-9
    )


def test_level_spacing_equals_binding(constants):
    for species in constants.leptons():
        spacing = constants.hbar * vfmodel.characterize(species, constants).omega0
        assert spacing == pytest.approx(abs(vfmodel.binding_energy(species, constants)), rel=1e-12)


def test_electron_creation_energy(constants, electron):
    value = vfmodel.characterize(electron, constants).creation_energy
    assert value == pytest.approx(1.637e-13, rel=1e-3)
    assert value / (constants.electronvolt * 1e6) == pytest.approx(1.022, rel=1e-3)


def test_creation_energy_linear_in_mass(constants, electron, muon):
    ratio = vfmodel.characterize(muon, constants).creation_energy / vfmodel.characterize(
        electron, constants
    ).creation_energy
    assert ratio == pytest.approx(muon.mass / electron.mass, rel=1e-12)


def test_electron_vf_lifetime(constants, electron):
    assert vfmodel.characterize(electron, constants).lifetime == pytest.approx(3.2e-22, rel=2e-2)


def test_muon_lifetime_inverse_mass(constants, electron, muon):
    assert vfmodel.characterize(muon, constants).lifetime == pytest.approx(
        vfmodel.characterize(electron, constants).lifetime * electron.mass / muon.mass, rel=1e-9
    )


def test_lifetime_times_creation_is_half_hbar(constants):
    for species in constants.leptons():
        record = vfmodel.characterize(species, constants)
        assert record.lifetime * record.creation_energy == pytest.approx(constants.hbar / 2.0, rel=1e-12)


def test_electron_vf_length(constants, electron):
    record = vfmodel.characterize(electron, constants)
    assert record.length == pytest.approx(9.66e-14, rel=1e-2)
    assert record.length == pytest.approx(constants.c_defined * record.lifetime, rel=1e-12)


def test_tau_vf_length(constants, tau):
    assert vfmodel.characterize(tau, constants).length == pytest.approx(2.78e-17, rel=1e-2)


def test_number_densities(constants, electron, tau):
    assert vfmodel.characterize(electron, constants).number_density == pytest.approx(1.12e39, rel=2e-2)
    assert vfmodel.characterize(tau, constants).number_density == pytest.approx(4.70e49, rel=2e-2)


def test_density_times_volume_is_one(constants):
    for species in constants.leptons():
        record = vfmodel.characterize(species, constants)
        assert abs(record.number_density * record.volume - 1.0) < 1e-12


def test_density_dwarfs_ideal_gas(constants, electron):
    assert vfmodel.characterize(electron, constants).number_density / 2.68e25 > 1e13


def test_characterize_fields_consistent(constants):
    for species in constants.leptons():
        record = vfmodel.characterize(species, constants)
        assert record.species is species
        assert record.binding_energy < 0.0
        assert record.omega0 == pytest.approx(
            abs(record.binding_energy) / constants.hbar, rel=1e-9
        )
        assert abs(record.binding_energy) / record.creation_energy == pytest.approx(
            constants.alpha**2 / 8.0, rel=1e-9
        )


def test_characterize_muon_lifetime_ratio(constants, electron, muon):
    ratio = (
        vfmodel.characterize(muon, constants).lifetime
        / vfmodel.characterize(electron, constants).lifetime
    )
    assert ratio == pytest.approx(electron.mass / muon.mass, rel=1e-9)


@pytest.mark.parametrize(
    "quantity,exponent",
    [
        ("lifetime", -1.0),
        ("length", -1.0),
        ("number_density", 3.0),
        ("omega0", 1.0),
        ("binding_energy", 1.0),
        ("creation_energy", 1.0),
    ],
)
def test_mass_power_scaling(constants, quantity, exponent):
    species = constants.leptons()
    for a, b in [(species[0], species[1]), (species[1], species[2]), (species[0], species[2])]:
        ratio = getattr(vfmodel.characterize(a, constants), quantity) / getattr(
            vfmodel.characterize(b, constants), quantity
        )
        measured = math.log(abs(ratio)) / math.log(a.mass / b.mass)
        assert measured == pytest.approx(exponent, abs=1e-9)
