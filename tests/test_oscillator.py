import math

import numpy as np
import pytest
from scipy.integrate import quad

import oracles
from vfvacuum import oscillator
from vfvacuum.oscillator import OscillatorSpec, PhotonField
from vfvacuum.vfmodel import characterize


@pytest.fixture()
def electron_spec(constants, electron):
    return oracles.oscillator_for_species(electron, constants)


@pytest.fixture()
def unit_photon(constants):
    return PhotonField(1.0, constants.e_charge)


def hermite_gaussian(n, x):
    """Dimensionless oscillator eigenfunction, used as the quadrature oracle."""
    if n == 0:
        return np.pi**-0.25 * np.exp(-x * x / 2.0)
    if n == 1:
        return np.pi**-0.25 * math.sqrt(2.0) * x * np.exp(-x * x / 2.0)
    raise ValueError(n)


def test_spec_validation(constants):
    with pytest.raises(ValueError):
        OscillatorSpec(reduced_mass=-1.0, omega0=1.0)
    with pytest.raises(ValueError):
        OscillatorSpec(reduced_mass=1.0, omega0=0.0)
    with pytest.raises(ValueError):
        oracles.dipole_oracle(
            OscillatorSpec(reduced_mass=1.0, omega0=1.0), PhotonField(0.0, 1.0), constants, basis_size=4
        )


def test_photon_validation():
    with pytest.raises(ValueError):
        PhotonField(1.0, -1.0)
    with pytest.raises(ValueError):
        PhotonField(math.inf, 1.0)
    # zero or negative field values are legitimate cosine samples
    PhotonField(0.0, 1.0)
    PhotonField(-5.0, 1.0)


def test_energy_levels(constants, electron_spec):
    ground = oracles.energy_level(electron_spec, 0, constants)
    assert ground == pytest.approx(constants.hbar * electron_spec.omega0 / 2.0, rel=1e-12)
    spacing = oracles.energy_level(electron_spec, 1, constants) - ground
    assert spacing == pytest.approx(constants.hbar * electron_spec.omega0, rel=1e-12)
    assert oracles.energy_level(electron_spec, 5, constants) == pytest.approx(
        5.5 * constants.hbar * electron_spec.omega0, rel=1e-12
    )


def test_level_spacing_equals_binding(constants, electron, electron_spec):
    from vfvacuum.vfmodel import binding_energy

    spacing = oracles.energy_level(electron_spec, 1, constants) - oracles.energy_level(
        electron_spec, 0, constants
    )
    assert spacing == pytest.approx(abs(binding_energy(electron, constants)), rel=1e-9)


def test_negative_level_rejected(constants, electron_spec):
    with pytest.raises(ValueError):
        oracles.energy_level(electron_spec, -1, constants)


def test_coefficient_zero_field(constants, electron_spec):
    photon = PhotonField(0.0, constants.e_charge)
    assert oracles.perturbed_ground_state_coefficient(electron_spec, photon, constants) == 0.0


def test_coefficient_sign_follows_field(constants, electron_spec):
    plus = oracles.perturbed_ground_state_coefficient(
        electron_spec, PhotonField(2.5, constants.e_charge), constants
    )
    minus = oracles.perturbed_ground_state_coefficient(
        electron_spec, PhotonField(-2.5, constants.e_charge), constants
    )
    assert plus > 0.0
    assert minus == -plus


def test_coefficient_against_quadrature(constants, electron_spec, unit_photon):
    """First-order mixing amplitude versus direct quadrature of the coupling
    matrix element divided by the level spacing."""
    q = unit_photon.charge
    field = unit_photon.e_field_at_interaction
    length = math.sqrt(constants.hbar / (electron_spec.reduced_mass * electron_spec.omega0))
    overlap, _ = quad(lambda x: hermite_gaussian(1, x) * x * hermite_gaussian(0, x), -12, 12)
    integral = -q * field * length * overlap
    coefficient = integral / (-constants.hbar * electron_spec.omega0)
    assert oracles.perturbed_ground_state_coefficient(
        electron_spec, unit_photon, constants
    ) == pytest.approx(coefficient, rel=1e-8)


def test_coupling_integral_closed_form(constants, electron_spec, unit_photon):
    q = unit_photon.charge
    field = unit_photon.e_field_at_interaction
    length = math.sqrt(constants.hbar / (electron_spec.reduced_mass * electron_spec.omega0))
    overlap, _ = quad(lambda x: hermite_gaussian(1, x) * x * hermite_gaussian(0, x), -12, 12)
    integral = -q * field * length * overlap
    closed = -q * field * math.sqrt(
        constants.hbar / (2.0 * electron_spec.reduced_mass * electron_spec.omega0)
    )
    assert integral == pytest.approx(closed, rel=1e-8)


def test_first_order_energy_shift_vanishes(constants, electron_spec, unit_photon):
    # <0| -qEx |0> integrand is odd; quadrature confirms it vanishes.
    q = unit_photon.charge
    field = unit_photon.e_field_at_interaction
    length = math.sqrt(constants.hbar / (electron_spec.reduced_mass * electron_spec.omega0))
    shift, _ = quad(
        lambda x: hermite_gaussian(0, x) * (-q * field * length * x) * hermite_gaussian(0, x),
        -12,
        12,
    )
    scale = constants.hbar * electron_spec.omega0
    assert abs(shift) / scale < 1e-12


def test_dipole_zero_field(constants, electron_spec):
    photon = PhotonField(0.0, constants.e_charge)
    assert oscillator.dipole_expectation(electron_spec, photon, constants) == 0.0


def test_dipole_linearity(constants, electron_spec):
    one = oscillator.dipole_expectation(
        electron_spec, PhotonField(1.0, constants.e_charge), constants
    )
    two = oscillator.dipole_expectation(
        electron_spec, PhotonField(2.0, constants.e_charge), constants
    )
    assert two == 2.0 * one


def test_dipole_matches_oracle(constants, electron_spec, unit_photon):
    perturbative = oscillator.dipole_expectation(electron_spec, unit_photon, constants)
    oracle = oracles.dipole_oracle(electron_spec, unit_photon, constants)
    assert oracle == pytest.approx(perturbative, rel=1e-6)


def test_oracle_zero_field_is_symmetric(constants, electron_spec):
    photon = PhotonField(0.0, constants.e_charge)
    dipole = oracles.dipole_oracle(electron_spec, photon, constants)
    length = math.sqrt(constants.hbar / (electron_spec.reduced_mass * electron_spec.omega0))
    assert abs(dipole) / (photon.charge * length) < 1e-14


def test_oracle_basis_convergence(constants, electron, unit_photon):
    spec = oracles.oscillator_for_species(electron, constants)
    d_small = oracles.dipole_oracle(spec, unit_photon, constants, basis_size=16)
    d_large = oracles.dipole_oracle(spec, unit_photon, constants, basis_size=64)
    assert d_small == pytest.approx(d_large, rel=1e-6)


def test_weak_field_property_sweep(constants):
    """Perturbative dipole versus diagonalization over 100 random weak-field
    oscillators, mixing amplitude pinned below 1e-3."""
    rng = np.random.default_rng(11)
    for _ in range(100):
        mu = 10.0 ** rng.uniform(-31, -27)
        omega = 10.0 ** rng.uniform(13, 17)
        c1 = 10.0 ** rng.uniform(-6, -3)
        field = c1 * math.sqrt(2.0 * mu * constants.hbar * omega**3) / constants.e_charge
        spec = OscillatorSpec(reduced_mass=mu, omega0=omega)
        photon = PhotonField(field, constants.e_charge)
        assert abs(
            oracles.perturbed_ground_state_coefficient(spec, photon, constants)
        ) < 1e-3
        perturbative = oscillator.dipole_expectation(spec, photon, constants)
        oracle = oracles.dipole_oracle(spec, photon, constants)
        assert oracle == pytest.approx(perturbative, rel=1e-6)


def test_ground_state_uncertainty_product(constants, electron_spec):
    product = oracles.ground_state_uncertainty_product(electron_spec, constants)
    assert product == pytest.approx(constants.hbar / 2.0, rel=1e-8)


def test_species_dipole_zero_field(constants, electron):
    photon = PhotonField(0.0, constants.e_charge)
    assert oscillator.species_dipole(characterize(electron, constants), constants, photon) == 0.0


def test_species_dipole_electron_value(constants, electron, unit_photon):
    from vfvacuum.vfmodel import resonant_frequency

    omega = resonant_frequency(electron, constants)
    expected = (constants.e_charge**2 / electron.reduced_mass) / omega**2
    value = oscillator.species_dipole(characterize(electron, constants), constants, unit_photon)
    assert value == pytest.approx(expected, rel=1e-12)
    spec = oracles.oscillator_for_species(electron, constants)
    assert value == pytest.approx(
        oracles.dipole_oracle(spec, unit_photon, constants), rel=1e-6
    )


def test_species_dipole_mass_cubed_ratio(constants, electron, muon, unit_photon):
    ratio = oscillator.species_dipole(
        characterize(muon, constants), constants, unit_photon
    ) / oscillator.species_dipole(characterize(electron, constants), constants, unit_photon)
    assert ratio == pytest.approx((electron.mass / muon.mass) ** 3, rel=1e-9)
