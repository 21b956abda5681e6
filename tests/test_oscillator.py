import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad

import oracles
from vfvacuum import oscillator
from vfvacuum.constants import LEPTON_MASS_DOMAIN
from vfvacuum.vfmodel import characterize


@pytest.fixture()
def electron_spec(constants, electron):
    """The electron pair's oscillator: reduced mass (kg) and omega0 (rad/s)."""
    return oracles.oscillator_for_species(electron, constants)


def hermite_gaussian(n, x):
    """Dimensionless oscillator eigenfunction, used as the quadrature oracle."""
    if n == 0:
        return np.pi**-0.25 * np.exp(-x * x / 2.0)
    if n == 1:
        return np.pi**-0.25 * math.sqrt(2.0) * x * np.exp(-x * x / 2.0)
    raise ValueError(n)


def test_oracle_rejects_a_basis_below_eight(constants):
    with pytest.raises(ValueError):
        oracles.dipole_oracle(1.0, 1.0, 0.0, 1.0, constants, basis_size=4)


def test_energy_levels(constants, electron_spec):
    _, omega = electron_spec
    ground = oracles.energy_level(omega, 0, constants)
    assert ground == pytest.approx(constants.hbar * omega / 2.0, rel=1e-12)
    spacing = oracles.energy_level(omega, 1, constants) - ground
    assert spacing == pytest.approx(constants.hbar * omega, rel=1e-12)
    assert oracles.energy_level(omega, 5, constants) == pytest.approx(5.5 * constants.hbar * omega, rel=1e-12)


def test_level_spacing_equals_binding(constants, electron, electron_spec):
    from vfvacuum.vfmodel import binding_energy

    _, omega = electron_spec
    spacing = oracles.energy_level(omega, 1, constants) - oracles.energy_level(omega, 0, constants)
    assert spacing == pytest.approx(abs(binding_energy(electron, constants)), rel=1e-9)


def test_negative_level_rejected(constants, electron_spec):
    with pytest.raises(ValueError):
        oracles.energy_level(electron_spec[1], -1, constants)


def test_coefficient_zero_field(constants, electron_spec):
    assert oracles.perturbed_ground_state_coefficient(*electron_spec, 0.0, 1.0, constants) == 0.0


def test_coefficient_sign_follows_field(constants, electron_spec):
    plus = oracles.perturbed_ground_state_coefficient(*electron_spec, 2.5, constants.e_charge, constants)
    minus = oracles.perturbed_ground_state_coefficient(*electron_spec, -2.5, constants.e_charge, constants)
    assert plus > 0.0
    assert minus == -plus


def test_coefficient_against_quadrature(constants, electron_spec):
    """First-order mixing amplitude versus direct quadrature of the coupling
    matrix element divided by the level spacing, in a field of 1 V/m."""
    mu, omega = electron_spec
    q, field = constants.e_charge, 1.0
    length = math.sqrt(constants.hbar / (mu * omega))
    overlap, _ = quad(lambda x: hermite_gaussian(1, x) * x * hermite_gaussian(0, x), -12, 12)
    integral = -q * field * length * overlap
    coefficient = integral / (-constants.hbar * omega)
    assert oracles.perturbed_ground_state_coefficient(mu, omega, field, q, constants) == pytest.approx(
        coefficient, rel=1e-8
    )


def test_coupling_integral_closed_form(constants, electron_spec):
    mu, omega = electron_spec
    q, field = constants.e_charge, 1.0
    length = math.sqrt(constants.hbar / (mu * omega))
    overlap, _ = quad(lambda x: hermite_gaussian(1, x) * x * hermite_gaussian(0, x), -12, 12)
    integral = -q * field * length * overlap
    closed = -q * field * math.sqrt(constants.hbar / (2.0 * mu * omega))
    assert integral == pytest.approx(closed, rel=1e-8)


def test_first_order_energy_shift_vanishes(constants, electron_spec):
    # <0| -qEx |0> integrand is odd; quadrature confirms it vanishes.
    mu, omega = electron_spec
    q, field = constants.e_charge, 1.0
    length = math.sqrt(constants.hbar / (mu * omega))
    shift, _ = quad(
        lambda x: hermite_gaussian(0, x) * (-q * field * length * x) * hermite_gaussian(0, x),
        -12,
        12,
    )
    scale = constants.hbar * omega
    assert abs(shift) / scale < 1e-12


def test_dipole_linearity(constants, electron):
    """The diagonalized dipole at 1 and 2 V/m is the field times the pair's dipole per
    unit field, so one number per species carries the whole weak-field response."""
    pair = characterize(electron, constants)
    mu, omega, q = pair.species.reduced_mass, pair.omega0, pair.species.charge_magnitude
    for field in (1.0, 2.0):
        oracle = oracles.dipole_oracle(mu, omega, field, q, constants)
        assert oracle == pytest.approx(field * oscillator.species_dipole(pair), rel=1e-6)


def test_dipole_matches_oracle(constants, electron, electron_spec):
    perturbative = oscillator.species_dipole(characterize(electron, constants))
    oracle = oracles.dipole_oracle(*electron_spec, 1.0, constants.e_charge, constants)
    assert oracle == pytest.approx(perturbative, rel=1e-6)


def test_oracle_zero_field_is_symmetric(constants, electron_spec):
    mu, omega = electron_spec
    dipole = oracles.dipole_oracle(mu, omega, 0.0, constants.e_charge, constants)
    length = math.sqrt(constants.hbar / (mu * omega))
    assert abs(dipole) / (constants.e_charge * length) < 1e-14


def test_oracle_basis_convergence(constants, electron_spec):
    d_small = oracles.dipole_oracle(*electron_spec, 1.0, constants.e_charge, constants, basis_size=16)
    d_large = oracles.dipole_oracle(*electron_spec, 1.0, constants.e_charge, constants, basis_size=64)
    assert d_small == pytest.approx(d_large, rel=1e-6)


def test_weak_field_property_sweep(constants):
    """Perturbative dipole, the field times ``species_dipole``, versus diagonalization
    for 100 pairs of lepton masses drawn log-uniformly from the mass domain, each in
    a weak field that pins the mixing amplitude below 1e-3."""
    rng = np.random.default_rng(11)
    for _ in range(100):
        table = dataclasses.replace(constants, m_electron=10.0 ** rng.uniform(*np.log10(LEPTON_MASS_DOMAIN)))
        pair = characterize(table.lepton("electron"), table)
        mu, omega, q = pair.species.reduced_mass, pair.omega0, pair.species.charge_magnitude
        c1 = 10.0 ** rng.uniform(-6, -3)
        field = c1 * math.sqrt(2.0 * mu * constants.hbar * omega**3) / q
        assert abs(oracles.perturbed_ground_state_coefficient(mu, omega, field, q, constants)) < 1e-3
        oracle = oracles.dipole_oracle(mu, omega, field, q, constants)
        assert oracle == pytest.approx(field * oscillator.species_dipole(pair), rel=1e-6)


def test_ground_state_uncertainty_product(constants, electron_spec):
    product = oracles.ground_state_uncertainty_product(*electron_spec, constants)
    assert product == pytest.approx(constants.hbar / 2.0, rel=1e-8)


def test_species_dipole_electron_value(constants, electron, electron_spec):
    pair = characterize(electron, constants)
    expected = (constants.e_charge**2 / electron.reduced_mass) / pair.omega0**2
    value = oscillator.species_dipole(pair)
    assert value == pytest.approx(expected, rel=1e-12)
    assert value == pytest.approx(
        oracles.dipole_oracle(*electron_spec, 1.0, constants.e_charge, constants), rel=1e-6
    )


def test_species_dipole_mass_cubed_ratio(constants, electron, muon):
    ratio = oscillator.species_dipole(characterize(muon, constants)) / oscillator.species_dipole(
        characterize(electron, constants)
    )
    assert ratio == pytest.approx((electron.mass / muon.mass) ** 3, rel=1e-9)
