import copy
import math
import re
import time

import numpy as np
import pytest

import oracles
from vfvacuum import dirac
from vfvacuum.constants import LEPTON_MASS_DOMAIN, load_constants
from vfvacuum.dirac import (
    GAMMA,
    IDENTITY,
    closed_form_matrix_element,
    cross_section_coefficient,
    decay_rate,
    phase_space_integral,
    phase_space_width_study,
    polarization_sums,
    slash,
    spin_sum,
    spinor,
    squared_matrix_element,
    transverse_polarization_basis,
    two_photon_rate_natural,
    verification_suite,
)


def random_four_vector(rng):
    return rng.normal(size=4)


def minkowski(a, b):
    """Minkowski product of two (4,) arrays in (t, x, y, z) order, metric (+,-,-,-)."""
    return a[0] * b[0] - a[1] * b[1] - a[2] * b[2] - a[3] * b[3]


def random_rotation(rng):
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def rotate(vector, rotation):
    return np.concatenate([vector[:1], rotation @ vector[1:]])


# ---------------------------------------------------------------- kinematics


def test_minkowski_dot_symmetric_bilinear():
    rng = np.random.default_rng(3)
    for _ in range(100):
        a, b, c = (random_four_vector(rng) for _ in range(3))
        lam = rng.normal()
        assert dirac._dot(a, b) == minkowski(a, b)
        assert dirac._dot(a, b) == pytest.approx(dirac._dot(b, a), abs=1e-12)
        combined = b + lam * c
        assert dirac._dot(a, combined) == pytest.approx(dirac._dot(a, b) + lam * dirac._dot(a, c), abs=1e-10)


def test_kinematic_check_examples():
    m = 1.0
    assert oracles.kinematic_check(m, 0.1 * m) == "forbidden"
    assert oracles.kinematic_check(0.0, 12.3) == "allowed"
    assert oracles.kinematic_check(m, 0.0) == "forbidden"


def test_kinematic_check_rejects_negative():
    with pytest.raises(ValueError):
        oracles.kinematic_check(-1.0, 1.0)
    with pytest.raises(ValueError):
        oracles.kinematic_check(1.0, -0.5)


# ------------------------------------------------------------- gamma algebra


def test_clifford_anticommutators():
    metric = (1.0, -1.0, -1.0, -1.0)
    for mu in range(4):
        for nu in range(4):
            anti = GAMMA[mu] @ GAMMA[nu] + GAMMA[nu] @ GAMMA[mu]
            target = 2.0 * (metric[mu] if mu == nu else 0.0) * IDENTITY
            assert np.max(np.abs(anti - target)) < 1e-14


def test_gamma_hermiticity_and_traces():
    assert np.max(np.abs(GAMMA[0] - GAMMA[0].conj().T)) < 1e-14
    for gamma in GAMMA[1:]:
        assert np.max(np.abs(gamma + gamma.conj().T)) < 1e-14
    for gamma in GAMMA:
        assert abs(np.trace(gamma)) < 1e-14


def test_slash_clifford_square():
    rng = np.random.default_rng(5)
    for _ in range(50):
        a = random_four_vector(rng)
        assert np.max(np.abs(slash(a) @ slash(a) - minkowski(a, a) * IDENTITY)) < 1e-13 * max(
            1.0, abs(minkowski(a, a))
        )


def test_slash_pair_anticommutator():
    rng = np.random.default_rng(6)
    for _ in range(50):
        a, b = random_four_vector(rng), random_four_vector(rng)
        lhs = slash(a) @ slash(b) + slash(b) @ slash(a)
        assert np.max(np.abs(lhs - 2.0 * minkowski(a, b) * IDENTITY)) < 1e-12


def test_batched_slash_equals_stacked_rows():
    rng = np.random.default_rng(11)
    rows = rng.normal(size=(64, 4))
    stacked = np.array(
        [v[0] * GAMMA[0] - v[1] * GAMMA[1] - v[2] * GAMMA[2] - v[3] * GAMMA[3] for v in rows]
    )
    assert np.array_equal(slash(rows), stacked)
    assert np.array_equal(slash(rows), np.array([slash(row) for row in rows]))
    assert slash(rows.reshape(8, 8, 4)).shape == (8, 8, 4, 4)


def test_lightlike_slash_squares_to_zero():
    k = np.array([2.0, 0.0, 0.0, 2.0])
    assert np.max(np.abs(slash(k) @ slash(k))) < 1e-13


def test_trace_identities_report():
    rows = verification_suite(trials=100, seed=1)[2:5]
    assert {row.name for row in rows} == {
        "trace-pair-identity",
        "trace-quartet-identity",
        "trace-odd-vanishes",
    }
    assert all(row.status == "pass" for row in rows)


def test_trace_identities_match_per_trial_loop():
    """Reference: the per-trial loop drawing each trial's four vectors in turn and evaluating
    each trial as a stack of one, through the same real-form products and product-free
    traces; the suite's first section must draw the same numbers in the same order and give
    the same residuals, bit for bit. Each trial's traces also stay within a few ulps of
    ``np.trace`` over complex products."""
    rng = np.random.default_rng(21)
    worst = [0.0, 0.0, 0.0]
    ulps = 32 * np.finfo(float).eps
    for _ in range(300):
        a, b, c, d = (random_four_vector(rng)[None] for _ in range(4))
        scale = max(1.0, *(abs(minkowski(v[0], v[0])) for v in (a, b, c, d)))
        ab, cd = dirac._times_slash(slash(a), b), dirac._times_slash(slash(c), d)
        pair = dirac._trace(ab)[0]
        quartet, odd = dirac._trace_of_product(ab, cd)[0], dirac._trace_of_product(ab, slash(c))[0]
        a, b, c, d = a[0], b[0], c[0], d[0]
        complex_ab = slash(a) @ slash(b)
        assert abs(pair - np.trace(complex_ab)) <= ulps * scale
        assert abs(quartet - np.trace(complex_ab @ slash(c) @ slash(d))) <= ulps * scale**2
        assert abs(odd - np.trace(complex_ab @ slash(c))) <= ulps * scale**1.5
        expected = 4.0 * (minkowski(a, b) * minkowski(c, d) - minkowski(a, c) * minkowski(b, d)
                          + minkowski(a, d) * minkowski(b, c))
        worst = [max(worst[0], abs(pair - 4.0 * minkowski(a, b)) / scale),
                 max(worst[1], abs(quartet - expected) / scale**2), max(worst[2], abs(odd) / scale**1.5)]
    assert [row.measured for row in verification_suite(trials=300, seed=21)[2:5]] == worst


# ------------------------------------------------------------------ spinors


def test_rest_frame_u_satisfies_dirac_equation():
    m = 1.3
    rest = np.array([m, 0.0, 0.0, 0.0])
    psi = spinor("u", rest, "+", m)
    assert isinstance(psi, np.ndarray) and psi.shape == (4,) and psi.dtype == complex
    assert np.max(np.abs((slash(rest) - m * IDENTITY) @ psi)) < 1e-12


def test_rest_frame_spin_sum_projector():
    m = 0.7
    rest = np.array([m, 0.0, 0.0, 0.0])
    spinors = [spinor("u", rest, spin_label, m) for spin_label in ("+", "-")]
    assert np.max(np.abs(spin_sum(spinors) - (GAMMA[0] + IDENTITY) / 2.0)) < 1e-14


def test_boosted_spinor_invariants():
    m = 1.0
    beta = 0.1
    pz = m * beta / math.sqrt(1.0 - beta**2)
    momentum = np.array([math.sqrt(m**2 + pz**2), 0.0, 0.0, pz])
    for kind, sign in (("u", 1.0), ("v", -1.0)):
        spinors = [spinor(kind, momentum, spin_label, m) for spin_label in ("+", "-")]
        for psi in spinors:
            residual = (slash(momentum) - sign * m * IDENTITY) @ psi
            assert np.max(np.abs(residual)) < 1e-12
            assert psi.conj() @ GAMMA[0] @ psi == pytest.approx(sign, abs=1e-12)
        projector = (slash(momentum) + sign * m * IDENTITY) / (2.0 * m)
        assert np.max(np.abs(spin_sum(spinors) - projector)) < 1e-12


def test_off_shell_momentum_rejected():
    with pytest.raises(ValueError, match="off shell"):
        spinor("u", np.array([2.0, 0.0, 0.0, 0.0]), "+", 1.0)


def test_bad_spinor_labels_rejected():
    rest = np.array([1.0, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        spinor("w", rest, "+", 1.0)
    with pytest.raises(ValueError):
        spinor("u", rest, "up", 1.0)


# ------------------------------------------------------ squared matrix element


def test_parallel_polarizations_vanish():
    m = 1.0
    k = np.array([m, 0.0, 0.0, m])
    e1 = np.array([0.0, 1.0, 0.0, 0.0])
    scale = 2.0 / m**2
    assert abs(squared_matrix_element(e1, e1, k, m)) < 1e-12 * scale


def test_perpendicular_polarizations_hit_coefficient():
    m = 0.5109989499961642
    k = np.array([m, 0.0, 0.0, m])
    e1 = np.array([0.0, 1.0, 0.0, 0.0])
    e2 = np.array([0.0, 0.0, 1.0, 0.0])
    assert squared_matrix_element(e1, e2, k, m) == pytest.approx(2.0 / m**2, rel=1e-10)


def test_angular_law():
    rng = np.random.default_rng(7)
    m = 1.0
    k = np.array([m, 0.0, 0.0, m])
    e1 = np.array([0.0, 1.0, 0.0, 0.0])
    scale = 2.0 / m**2
    for theta in rng.uniform(0.0, 2.0 * math.pi, size=50):
        ef = np.array([0.0, math.cos(theta), math.sin(theta), 0.0])
        brute = squared_matrix_element(e1, ef, k, m)
        closed = closed_form_matrix_element(e1, ef, m)
        assert closed == pytest.approx(scale * (1.0 - math.cos(theta) ** 2), rel=1e-12, abs=1e-15)
        assert abs(brute - closed) < 1e-10 * scale


def test_matrix_element_rotation_invariance():
    rng = np.random.default_rng(8)
    m = 1.0
    k = np.array([m, 0.0, 0.0, m])
    e1 = np.array([0.0, 1.0, 0.0, 0.0])
    e2 = np.array([0.0, 0.0, 1.0, 0.0])
    reference = squared_matrix_element(e1, e2, k, m)
    for _ in range(20):
        rotation = random_rotation(rng)
        value = squared_matrix_element(
            rotate(e1, rotation), rotate(e2, rotation), rotate(k, rotation), m
        )
        assert abs(value - reference) < 1e-10 * reference


def test_batched_matrix_element_equals_per_row_calls():
    rng = np.random.default_rng(12)
    m = 0.5109989499961642
    k = np.array([m, 0.0, 0.0, m])
    theta = rng.uniform(0.0, 2.0 * math.pi, size=33)
    finals = [np.array([0.0, math.cos(t), math.sin(t), 0.0]) for t in theta]
    e1 = np.array([0.0, 1.0, 0.0, 0.0])
    batched = squared_matrix_element(e1, np.array(finals), k, m)
    assert batched.shape == (33,)
    assert np.array_equal(batched, [squared_matrix_element(e1, f, k, m) for f in finals])


def test_matrix_element_preconditions():
    m = 1.0
    k = np.array([m, 0.0, 0.0, m])
    e1 = np.array([0.0, 1.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="lightlike"):
        squared_matrix_element(e1, e1, np.array([1.0, 0.0, 0.0, 0.5]), m)
    with pytest.raises(ValueError, match="unit"):
        squared_matrix_element(np.array([0.0, 2.0, 0.0, 0.0]), e1, k, m)
    with pytest.raises(ValueError, match="transverse"):
        squared_matrix_element(np.array([0.0, 0.0, 0.0, 1.0]), e1, k, m)
    good = np.array([[0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]])
    with pytest.raises(ValueError, match="unit"):
        squared_matrix_element(good * [[1.0], [2.0]], e1, k, m)
    with pytest.raises(ValueError, match="lightlike"):
        squared_matrix_element(e1, good, np.array([[1.0, 0.0, 0.0, 1.0], [1.0, 0.0, 0.0, 0.5]]), m)


# ---------------------------------------------------------- polarization sums


def test_polarization_sums_z_direction():
    k = np.array([1.0, 0.0, 0.0, 1.0])
    sum_one, sum_dot = polarization_sums(k)
    assert sum_one == 4.0
    assert sum_dot == pytest.approx(2.0, abs=1e-12)


def test_polarization_sums_arbitrary_directions():
    rng = np.random.default_rng(9)
    for _ in range(50):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        energy = 10.0 ** rng.uniform(-2, 2)
        k = np.concatenate([[energy], energy * direction])
        sum_one, sum_dot = polarization_sums(k)
        assert abs(sum_one - 4.0) < 1e-12
        assert abs(sum_dot - 2.0) < 1e-12


def test_polarization_sums_swap_invariant():
    k = np.array([1.0, 0.0, 0.0, 1.0])
    e1, e2 = transverse_polarization_basis(k)
    assert polarization_sums(k, final_basis=(e2, e1)) == polarization_sums(k)


def test_polarization_sums_basis_independent():
    rng = np.random.default_rng(10)
    k = np.array([1.0, 0.0, 0.0, 1.0])
    e1, e2 = (e[1:] for e in transverse_polarization_basis(k))
    for _ in range(20):
        phi = rng.uniform(0.0, 2.0 * math.pi)
        r1 = np.concatenate([[0.0], math.cos(phi) * e1 + math.sin(phi) * e2])
        r2 = np.concatenate([[0.0], -math.sin(phi) * e1 + math.cos(phi) * e2])
        sum_one, sum_dot = polarization_sums(k, final_basis=(r1, r2))
        assert abs(sum_one - 4.0) < 1e-12
        assert abs(sum_dot - 2.0) < 1e-12


def test_batched_basis_and_sums_equal_per_row_calls():
    rng = np.random.default_rng(13)
    direction = rng.normal(size=(20, 3))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    momenta = np.concatenate([np.ones((20, 1)), direction], axis=1)
    bases = transverse_polarization_basis(momenta)
    sum_one, sum_dot = polarization_sums(momenta)
    for row, basis, dot in zip(momenta, bases, sum_dot):
        single = transverse_polarization_basis(row)
        assert single.shape == (2, 4)
        assert np.array_equal(basis, single)
        assert polarization_sums(row) == (sum_one, dot)


def test_basis_cross_product_matches_np_cross():
    rng = np.random.default_rng(17)
    k3 = rng.normal(size=(500, 3)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(500, 1))
    k3 = np.concatenate([k3, [[0, 0, 1], [0, 0, -2], [3, 0, 0], [0, -1, 0], [1, 1, 0], [-1, 1, 1]]])
    norm = np.sqrt((k3 * k3).sum(axis=-1))  # rounded as the basis rounds it
    khat = k3 / norm[:, None]
    momenta = np.concatenate([norm[:, None], k3], axis=1)
    bases = transverse_polarization_basis(momenta)
    assert np.array_equal(bases[:, 1, 1:], np.cross(khat, bases[:, 0, 1:]))
    for row, direction in zip(momenta[-60:], khat[-60:]):
        e1, e2 = transverse_polarization_basis(row)
        assert np.array_equal(e2[1:], np.cross(direction, e1[1:]))


def test_photon_z_pairs_equal_the_basis_at_every_energy(constants):
    low, high = (constants.to_natural(mass, "mass") for mass in LEPTON_MASS_DOMAIN)
    for w in [*np.geomspace(low, high, 400), 0.01, 0.5, 1.0, 3.0, 40.0, 100.0]:
        basis = transverse_polarization_basis(np.array([w, 0.0, 0.0, w]))
        assert np.array_equal(dirac._PHOTON_Z_PAIRS[0], basis[[0, 0, 1, 1]])
        assert np.array_equal(dirac._PHOTON_Z_PAIRS[1], basis[[0, 1, 0, 1]])


@pytest.mark.parametrize("mass", [1e-60, 1e-80, 1e60, 1e80])
def test_cross_section_rejects_mass_whose_denominator_leaves_the_floats(mass):
    """16 m^4 w^2 underflows to 0 or overflows to inf: a ValueError naming the
    mass, not a NaN, a 0.0 or an OverflowError."""
    with pytest.raises(ValueError, match=re.escape(f"mass {mass!r} ")):
        cross_section_coefficient(mass=mass)


@pytest.mark.parametrize("scale", [1e-60, 1e60, 1e-160, 1e160])
def test_matrix_element_rejects_mass_and_energy_whose_denominator_leaves_the_floats(scale):
    """At 1e-60 the denominator underflows (the parent returned inf), at 1e60
    it overflows (0.0); at 1e+-160 w^2 itself leaves the floats."""
    k = np.array([scale, 0.0, 0.0, scale])
    message = re.escape(f"mass {scale!r} with photon energy {scale!r} is out of range")
    with pytest.raises(ValueError, match=message):
        squared_matrix_element(*dirac._PHOTON_Z_BASIS, k, scale)
    with pytest.raises(ValueError, match=message):
        cross_section_coefficient(mass=scale)


def test_matrix_element_names_the_first_photon_energy_out_of_range():
    k = np.array([[1.0, 0.0, 0.0, 1.0], [1e-120, 0.0, 0.0, 1e-120], [1e-130, 0.0, 0.0, 1e-130]])
    with pytest.raises(ValueError, match=re.escape("mass 1e-20 with photon energy 1e-120 ")):
        squared_matrix_element(*dirac._PHOTON_Z_BASIS, k, 1e-20)


def test_nan_photon_energy_is_rejected():
    k = np.array([math.nan, 0.0, 0.0, math.nan])
    with pytest.raises(ValueError, match="photon momentum must have positive energy"):
        squared_matrix_element(*dirac._PHOTON_Z_BASIS, k, 1.0)
    with pytest.raises(ValueError, match="photon momentum must have positive energy"):
        polarization_sums(k)
    with pytest.raises(ValueError, match="photon momentum must have positive energy"):
        transverse_polarization_basis(k)


def test_nan_photon_momentum_is_not_lightlike():
    with pytest.raises(ValueError, match="lightlike"):
        polarization_sums(np.array([1.0, math.nan, 0.0, 1.0]))


def test_nan_polarization_is_rejected():
    nan_eps = np.array([0.0, math.nan, 0.0, 0.0])
    e2 = dirac._PHOTON_Z_BASIS[1]
    with pytest.raises(ValueError, match="initial polarization must be a spacelike unit vector"):
        squared_matrix_element(nan_eps, e2, dirac._PHOTON_Z, 1.0)
    with pytest.raises(ValueError, match="final polarization must be a spacelike unit vector"):
        squared_matrix_element(e2, nan_eps, dirac._PHOTON_Z, 1.0)
    with pytest.raises(ValueError, match="final polarization must be a spacelike unit vector"):
        polarization_sums(dirac._PHOTON_Z, final_basis=np.stack([nan_eps, e2]))


def test_nan_transverse_component_is_rejected():
    """A unit spacelike vector whose overlap with k is NaN fails the transversality condition."""
    k = np.array([1.0, 0.0, 0.0, 1.0])
    with pytest.raises(ValueError, match="must be transverse"):
        dirac._require_polarization(np.array([0.0, 1.0, 0.0, 0.0]), np.array([1.0, math.nan, 0.0, 1.0]), "eps")
    dirac._require_polarization(np.array([0.0, 1.0, 0.0, 0.0]), k, "eps")


def test_polarization_sums_build_the_default_basis_once(monkeypatch):
    calls = []
    original = dirac.transverse_polarization_basis
    monkeypatch.setattr(dirac, "transverse_polarization_basis", lambda k: calls.append(k) or original(k))
    momenta = np.array([[1.0, 0.0, 0.0, 1.0], [2.0, 0.0, 2.0, 0.0]])
    assert polarization_sums(momenta) == (4.0, pytest.approx([2.0, 2.0]))
    assert len(calls) == 1
    polarization_sums(momenta, final_basis=original(momenta))  # only the initial basis is built
    assert len(calls) == 2


@pytest.mark.parametrize("energy", [1e200, 1e-200])
def test_photon_whose_squared_momentum_leaves_the_floats_is_rejected(energy):
    """|k|^2 overflows or underflows: a ValueError, not a basis with a zero or NaN vector."""
    k = np.array([energy, 0.0, 0.0, energy])
    for function in (transverse_polarization_basis, polarization_sums):
        with pytest.raises(ValueError, match=r"photon momentum is out of range: \|k\|\^2"):
            function(k)


def test_cross_section_keeps_its_value_at_the_mass_domain_edges(constants):
    for mass in LEPTON_MASS_DOMAIN:
        natural = constants.to_natural(mass, "mass")
        assert cross_section_coefficient("singlet_only", mass=natural) == 8.0
        assert cross_section_coefficient("all_four", mass=natural) == 2.0


@pytest.mark.parametrize("photon_energy", [0.0, -1.0])
def test_cross_section_rejects_non_positive_photon_energy(photon_energy):
    with pytest.raises(ValueError, match="photon momentum must have positive energy"):
        cross_section_coefficient(photon_energy=photon_energy)


def test_polarization_sums_reject_zero_momentum():
    with pytest.raises(ValueError):
        polarization_sums(np.zeros(4))


# --------------------------------------------------------------- phase space


def test_phase_space_analytic_exact():
    assert phase_space_integral("analytic") == math.pi


def test_phase_space_regularized_converges():
    assert phase_space_integral("regularized") == pytest.approx(math.pi, abs=1e-6)


def test_phase_space_width_halving_monotone():
    widths = [1e-2 / 2**i for i in range(6)]
    errors = [abs(v - math.pi) for _, v in phase_space_width_study(widths)]
    assert all(late < early for early, late in zip(errors, errors[1:]))


def test_phase_space_rule_matches_adaptive_quadrature():
    """The fixed Gauss-Legendre rule against scipy's adaptive quad on the same
    +-10 width interval."""
    from scipy.integrate import quad

    widths = (1e-1, 3e-2, 1e-2, 1e-3, 1e-4)
    for relative_width, value in phase_space_width_study(widths):
        norm = 1.0 / (relative_width * math.sqrt(2.0 * math.pi))
        reference, _ = quad(
            lambda kk: math.pi * kk**2 * norm * math.exp(-0.5 * ((kk - 1.0) / relative_width) ** 2),
            max(0.0, 1.0 - 10.0 * relative_width),
            1.0 + 10.0 * relative_width,
            epsabs=1e-13,
            epsrel=1e-12,
        )
        assert abs(value - reference) < 1e-12


@pytest.mark.parametrize("photon_energy", [0.01, 0.3, 7.0, 100.0])
def test_phase_space_rule_matches_gaussian_moment(photon_energy):
    """Against a Gaussian of width s about w, k^2 integrates to w^2 + s^2, so
    the regularized value is pi (1 + (s/w)^2) up to tails beyond 10 widths."""
    widths = (1e-1, 3e-2, 1e-2, 1e-3, 1e-4)
    for relative_width, value in phase_space_width_study(widths, photon_energy):
        assert abs(value - math.pi * (1.0 + relative_width**2)) < 1e-12


def test_phase_space_bad_method_rejected():
    with pytest.raises(ValueError):
        phase_space_integral("monte-carlo")


# ---------------------------------------------------------- assembled results


def test_cross_section_coefficients():
    assert cross_section_coefficient("all_four") == pytest.approx(2.0, abs=1e-8)
    assert cross_section_coefficient("singlet_only") == pytest.approx(8.0, abs=1e-8)


def test_cross_section_mode_ratio_exact():
    ratio = cross_section_coefficient("singlet_only") / cross_section_coefficient("all_four")
    assert ratio == 4.0


def test_cross_section_photon_energy_independent():
    base = cross_section_coefficient("singlet_only")
    for energy in (0.01, 0.5, 3.0, 40.0):
        assert cross_section_coefficient("singlet_only", photon_energy=energy) == pytest.approx(
            base, rel=1e-12
        )


def test_cross_section_bad_mode_rejected():
    with pytest.raises(ValueError):
        cross_section_coefficient("triplet_only")


def test_wavefunction_normalization_by_quadrature(constants, electron):
    """Radial quadrature oracle: the squared bound-state wave function integrates to one
    over all space, with its value at the origin read from ``decay_rate`` as Gamma / (sigma v)."""
    from scipy.integrate import quad

    alpha = constants.alpha
    m = constants.to_natural(electron.mass, "mass")
    result = decay_rate(electron, constants)
    density = result.gamma / (result.sigma_coefficient * math.pi * alpha**2 / m**2)
    a = alpha * m  # inverse length scale of the exponential
    total, _ = quad(lambda r: 4.0 * math.pi * r**2 * density * math.exp(-a * r), 0.0, 80.0 / a)
    assert total == pytest.approx(1.0, rel=1e-8)


def test_decay_rate_electron(constants, electron):
    result = decay_rate(electron, constants)
    assert result.sigma_coefficient == pytest.approx(8.0, abs=1e-8)
    assert result.lifetime == pytest.approx(6.2e-11, rel=1e-2)
    mass_natural = constants.to_natural(electron.mass, "mass")
    assert result.gamma == pytest.approx(constants.alpha**5 * mass_natural, rel=1e-12)


def test_decay_rate_matches_closed_form_rate(constants, electron):
    from vfvacuum.permittivity import annihilation_rate_closed_form

    result = decay_rate(electron, constants)
    pipeline = constants.from_natural(result.gamma, "rate")
    assert pipeline == pytest.approx(annihilation_rate_closed_form(electron, constants), rel=1e-9)


def test_decay_rate_scales_linearly_with_mass(constants, electron, muon):
    ratio = decay_rate(muon, constants).gamma / decay_rate(electron, constants).gamma
    assert ratio == pytest.approx(muon.mass / electron.mass, rel=1e-12)


def test_two_photon_rate_is_half(constants, electron):
    single = decay_rate(electron, constants).gamma
    assert two_photon_rate_natural(decay_rate(electron, constants)) == single / 2.0


def test_two_photon_rate_reads_a_held_decay(constants, electron, muon, monkeypatch):
    held = decay_rate(muon, constants)
    monkeypatch.setattr(dirac, "decay_rate", None)  # a held result needs no new evaluation
    assert two_photon_rate_natural(held) == held.gamma / 2.0


def log_uniform_masses(rng, count):
    low, high = (math.log(mass) for mass in LEPTON_MASS_DOMAIN)
    return np.exp(rng.uniform(low, high, size=count))


def test_batched_decay_rate_equals_per_species_calls():
    """Every field of every result, compared with ==: the batch rounds as the single path."""
    rng = np.random.default_rng(2718)
    masses = log_uniform_masses(rng, (200, 3))
    for row in masses:
        constants = load_constants(dict(zip(("m_electron", "m_muon", "m_tau"), row.tolist())))
        leptons = constants.leptons()
        assert decay_rate(leptons, constants) == tuple(decay_rate(s, constants) for s in leptons)


def test_decay_rate_tuple_keeps_its_order(constants, electron, muon, tau):
    results = decay_rate((tau, electron, muon, electron), constants)
    assert [r.species for r in results] == ["tau", "electron", "muon", "electron"]
    assert results == tuple(decay_rate(s, constants) for s in (tau, electron, muon, electron))
    (single,) = decay_rate((muon,), constants)
    assert single == decay_rate(muon, constants)
    assert isinstance(decay_rate(muon, constants), dirac.AnnihilationResult)


@pytest.mark.parametrize("mode", ["singlet_only", "all_four"])
def test_cross_section_on_a_mass_array_equals_scalar_calls(constants, mode):
    rng = np.random.default_rng(31)
    masses = np.array([constants.to_natural(m, "mass") for m in log_uniform_masses(rng, 3000)])
    batched = cross_section_coefficient(mode, mass=masses)
    assert batched.shape == masses.shape
    assert batched.tolist() == [cross_section_coefficient(mode, mass=m) for m in masses.tolist()]
    grid = masses[:12].reshape(3, 4)
    assert cross_section_coefficient(mode, mass=grid).tolist() == batched[:12].reshape(3, 4).tolist()
    energies = masses[:4]  # as many as there are basis pairs, which must not be paired with them
    expected = [cross_section_coefficient(mode, mass=masses[4], photon_energy=w) for w in energies.tolist()]
    assert cross_section_coefficient(mode, mass=masses[4], photon_energy=energies).tolist() == expected


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
def test_mass_array_with_a_non_positive_or_nan_mass_is_rejected(bad):
    masses = np.array([1.0, bad, 2.0])
    with pytest.raises(ValueError, match="mass must be positive"):
        cross_section_coefficient(mass=masses)
    with pytest.raises(ValueError, match="mass must be positive"):
        squared_matrix_element(*dirac._PHOTON_Z_PAIRS, dirac._PHOTON_Z, masses[:, None])


def test_mass_array_names_the_element_out_of_range():
    masses = np.array([1.0, 3.0, 1e-60, 1e80])
    with pytest.raises(ValueError, match=re.escape("mass 1e-60 with photon energy 1e-60 is out of range")):
        cross_section_coefficient(mass=masses)
    with pytest.raises(ValueError, match=re.escape("mass 1e+80 with photon energy 2.0 is out of range")):
        squared_matrix_element(*dirac._PHOTON_Z_BASIS, 2.0 * dirac._PHOTON_Z, masses[[0, 3]])


def test_verification_suite_passes_and_is_deterministic():
    rows = verification_suite(trials=100, seed=7)
    assert all(row.status == "pass" for row in rows)
    assert rows == verification_suite(trials=100, seed=7)
    assert len(rows) >= 18


SUITE_ROWS = [
    "clifford-anticommutator",
    "gamma-hermiticity",
    "trace-pair-identity",
    "trace-quartet-identity",
    "trace-odd-vanishes",
    "slash-clifford-square",
    "spinor-dirac-equation",
    "spinor-normalization",
    "spin-sum-projectors",
    "matrix-element-angular-law",
    "matrix-element-rotation-invariance",
    "polarization-sum-count",
    "polarization-sum-dot-squared",
    "polarization-basis-independence",
    "phase-space-analytic",
    "phase-space-regularized",
    "cross-section-all-four",
    "cross-section-singlet",
]


@pytest.mark.parametrize("trials", [1, 9, dirac._BLOCK, dirac._BLOCK + 1])
def test_verification_suite_rows_at_block_edges(trials):
    """Covers a block boundary and the trials // 10 and trials // 5 sections
    at their minimum of one trial."""
    rows = verification_suite(trials=trials, seed=3)
    assert [row.name for row in rows] == SUITE_ROWS
    assert all(row.status == "pass" for row in rows)


RANDOMIZED_SECTIONS = [
    "_trace_identity_residuals",
    "_slash_square_residuals",
    "_spinor_residuals",
    "_angular_law_residuals",
    "_rotation_residuals",
    "_polarization_sum_residuals",
    "_basis_independence_residuals",
]


def test_verification_suite_independent_of_block_size(monkeypatch):
    """Each section draws its trials in trial-major order, so blocks of 7 trials
    draw the same numbers for the same trials as blocks of the default size. A row
    keeps only its largest residual, so each section's per-trial residuals are
    compared too."""
    default = dirac._BLOCK
    for trials in (60, 1025):
        measured = []
        for block in (default, 7):
            monkeypatch.setattr(dirac, "_BLOCK", block)
            measured.append([row.measured for row in verification_suite(trials=trials, seed=4)])
        assert measured[0] == measured[1], trials
    for name in RANDOMIZED_SECTIONS:
        per_trial = []
        for sizes in ([60], [7] * 8 + [4]):
            rng = np.random.default_rng(4)
            blocks = [np.broadcast_arrays(*getattr(dirac, name)(rng, size)) for size in sizes]
            per_trial.append(np.concatenate(blocks, axis=-1))
        assert np.array_equal(*per_trial), name


def test_verification_suite_seed_changes_draws():
    """Seeds 1 and 2 draw different trials: the six rows no draw enters read the same,
    and most randomized rows read differently (11 of the 12 at 50 trials; the
    polarization-sum count reads exactly 0 on both)."""
    a = dirac.verification_suite(trials=50, seed=1)
    b = dirac.verification_suite(trials=50, seed=2)
    assert [row.name for row in a] == [row.name for row in b]
    fixed = {row.name for row in dirac._seed_independent()[0]}
    moved = {first.name for first, second in zip(a, b) if first.measured != second.measured}
    assert not moved & fixed
    assert len(moved) > (len(a) - len(fixed)) / 2, sorted(moved)


def test_suite_sections_draw_apart_from_trace_identities(monkeypatch):
    """The randomized sections draw in turn from one generator: no two of them
    start on the same draws."""
    first_draws = {}
    for name in RANDOMIZED_SECTIONS:
        def wrapped(rng, count, _name=name, _residuals=getattr(dirac, name)):
            first_draws.setdefault(_name, copy.deepcopy(rng).random(8))
            return _residuals(rng, count)

        monkeypatch.setattr(dirac, name, wrapped)
    verification_suite(trials=4, seed=5)
    assert sorted(first_draws) == sorted(RANDOMIZED_SECTIONS)
    for i, first in enumerate(RANDOMIZED_SECTIONS):
        for second in RANDOMIZED_SECTIONS[i + 1:]:
            assert not np.any(first_draws[first] == first_draws[second]), (first, second)


_SPECIAL_VALUES = np.array([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.5e-308, 1.0, -1.5, 1e308])


def assert_same_bits(new, old):
    """Equal values, NaN where NaN, and the same sign on every zero, in both complex parts."""
    new, old = np.asarray(new), np.asarray(old)
    assert new.shape == old.shape and new.dtype == old.dtype
    for part in (np.real, np.imag) if np.iscomplexobj(old) else (np.real,):
        a, b = part(new), part(old)
        assert np.array_equal(a, b, equal_nan=True)
        assert np.array_equal(np.signbit(a[a == 0]), np.signbit(b[b == 0]))


def special_stack(rng, shape):
    return rng.choice(_SPECIAL_VALUES, size=shape)


def complex_stack(real, imag):
    stack = real.astype(complex)
    stack.imag = imag
    return stack


@pytest.mark.parametrize("shape", [(4,), (3000, 4), (7, 50, 4)])
def test_dot_rounds_as_the_term_by_term_expression(shape):
    rng = np.random.default_rng(len(shape))
    for a, b in [(rng.normal(size=shape), rng.normal(size=shape)),
                 (special_stack(rng, shape), special_stack(rng, shape)),
                 (special_stack(rng, shape), rng.normal(size=shape[-1:]))]:
        with np.errstate(invalid="ignore", over="ignore"):
            old = a[..., 0] * b[..., 0] - a[..., 1] * b[..., 1] - a[..., 2] * b[..., 2] - a[..., 3] * b[..., 3]
            assert_same_bits(dirac._dot(a, b), old)


@pytest.mark.parametrize("shape", [(4, 4), (3000, 4, 4), (6, 40, 4, 4)])
def test_trace_rounds_as_np_trace(shape):
    """On complex stacks whose matrix axes are innermost in memory, as every stack the
    engine traces is (np.trace sums sequentially where the stack axis is innermost)."""
    rng = np.random.default_rng(len(shape))
    stacks = [
        complex_stack(rng.normal(size=shape), rng.normal(size=shape)),
        complex_stack(special_stack(rng, shape), special_stack(rng, shape)),
        special_stack(rng, shape).astype(complex),
        complex_stack(rng.choice([0.0, -0.0], size=shape), rng.choice([0.0, -0.0], size=shape)),
    ]
    with np.errstate(invalid="ignore", over="ignore"):
        stacks += [stack.swapaxes(-1, -2) for stack in stacks]
        for stack in stacks:
            assert_same_bits(dirac._trace(stack), np.trace(stack, axis1=-2, axis2=-1))


def test_slash_of_a_block_has_the_bits_of_slash_per_vector_view():
    """The suite slashes each drawn block once and takes per-vector views of the result;
    every entry is one signed component or zero, so the bits match one product per
    strided view, as each view was slashed before. A row of finite components also has
    the bits of the complex product with the lowered gammas, signed zeros included; a row
    holding inf or NaN places its NaNs otherwise, and no caller slashes one."""
    rng = np.random.default_rng(11)
    with np.errstate(invalid="ignore"):  # inf times a zero entry
        for vectors in (rng.normal(size=(1025, 4, 4)), special_stack(rng, (300, 2, 4))):
            block = slash(vectors)
            for i, view in enumerate(np.moveaxis(vectors, 1, 0)):
                assert_same_bits(block[:, i], slash(view))
                finite = np.isfinite(view).all(axis=-1)
                complex_product = view[finite] @ dirac._GAMMA_LOWERED.reshape(4, 16)
                assert_same_bits(block[finite, i], complex_product.reshape(-1, 4, 4))


def test_slash_real_form_is_the_interleaved_embedding():
    """a @ the real-form table equals, entry for entry, the 8x8 matrix of 2x2 blocks
    (re, im; -im, re) of slash(a)'s entries: each entry is one signed component."""
    rng = np.random.default_rng(14)
    special = special_stack(rng, (2000, 4))
    for a in (rng.normal(size=(500, 4)), special[np.isfinite(special).all(axis=-1)]):
        s = slash(a)
        embedding = np.stack([np.stack([s.real, s.imag], -1), np.stack([-s.imag, s.real], -1)], axis=-3)
        assert np.array_equal((a @ dirac._SLASH_REAL_FORM).reshape(-1, 8, 8), embedding.reshape(-1, 8, 8))


def test_times_slash_matches_the_complex_product():
    """``x @ (slash(a) + shift)`` as a real-form product is within a few ulps of the complex ``@``,
    per entry relative to the sum of its terms' magnitudes, for a stack or a single matrix times a
    stack or a single vector, with no shift, a float shift or a stack of shifts; the product of two
    stacks writes the same bits into ``out``."""
    rng = np.random.default_rng(15)
    x = slash(rng.normal(size=(300, 4))) @ slash(rng.normal(size=(300, 4)))
    a = rng.normal(size=(300, 4))
    shifts = rng.uniform(-2.0, 2.0, size=(300, 1))
    cases = [(x, a, None), (x[0], a, None), (x, a[0], None), (x[0], a[0], None), (x[:, None], a, None),
             (x, a, 0.7), (x, a[0], -0.7), (x[0], a[0], 0.7), (x, a, shifts), (x[0], a, -shifts)]
    for left, vector, shift in cases:
        factor = slash(vector) + (0.0 if shift is None else np.asarray(shift)[..., None] * IDENTITY)
        product = dirac._times_slash(left, vector, shift=shift)
        bound = 16 * np.finfo(float).eps * (np.abs(left) @ np.abs(factor))
        assert product.shape == (left @ factor).shape
        assert np.all(np.abs(product - left @ factor) <= bound)
    buffer = np.empty_like(x)
    product = dirac._times_slash(x, a)
    assert np.shares_memory(dirac._times_slash(x, a, out=buffer), buffer) and np.array_equal(buffer, product)


def test_trace_of_product_matches_np_trace():
    rng = np.random.default_rng(16)
    shape = (400, 4, 4)
    a, b = (complex_stack(rng.normal(size=shape), rng.normal(size=shape)) for _ in range(2))
    terms = np.abs(a) * np.abs(b.swapaxes(-1, -2))
    bound = 32 * np.finfo(float).eps * terms.sum(axis=(-2, -1))
    assert np.all(np.abs(dirac._trace_of_product(a, b) - np.trace(a @ b, axis1=-2, axis2=-1)) <= bound)


def test_exp_is_the_c_library_exp():
    """The suite's exp rounds as ``math.exp`` on every input it takes, whatever loop numpy's
    float64 exp would pick on this CPU."""
    x = np.random.default_rng(17).uniform(-50.0, 1.0, size=5000)
    assert dirac._exp(x).tolist() == [math.exp(v) for v in x.tolist()]


def test_seed_independent_work_runs_once_per_process(monkeypatch):
    """The first suite of a process evaluates the rows no draw enters and the rotation
    reference amplitude; a later suite reads them, and calls the engine only for its draws."""
    calls = []
    for name in ("cross_section_coefficient", "phase_space_integral", "squared_matrix_element"):
        original = getattr(dirac, name)
        monkeypatch.setattr(dirac, name, lambda *a, _f=original, _n=name, **k: calls.append((_n, a)) or _f(*a, **k))
    first = verification_suite(trials=3, seed=8)
    assert [args[0] for name, args in calls if name == "cross_section_coefficient"] == ["all_four", "singlet_only"]
    assert [args[0] for name, args in calls if name == "phase_space_integral"].count("regularized") == 1
    del calls[:]
    assert verification_suite(trials=3, seed=8) == first
    assert [name for name, _ in calls] == ["squared_matrix_element"] * 2  # the angular-law and rotation draws


def test_verification_suite_runs_on_the_calling_thread():
    """No product of a suite reaches OpenBLAS's threaded path, where the process would pay
    for a second thread (spinning after each call) about as much CPU as for its own. After
    an idle pause that lets the pool of an earlier test fall asleep, each suite's process
    CPU stays within 1.3x of its thread CPU."""
    time.sleep(0.5)
    for trials in (1000, 1025, 2048):
        process, thread = time.process_time(), time.thread_time()
        verification_suite(trials=trials, seed=0)
        ratio = (time.process_time() - process) / (time.thread_time() - thread)
        assert ratio <= 1.3, (trials, ratio)


def test_verification_suite_passes_over_seeds_at_1000_trials():
    for seed in range(10):
        rows = verification_suite(trials=1000, seed=seed)
        assert [row.name for row in rows] == SUITE_ROWS
        failed = [row for row in rows if row.status != "pass"]
        assert not failed, (seed, failed)
