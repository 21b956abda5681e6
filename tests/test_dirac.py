import copy
import math
import re

import numpy as np
import pytest

from vfvacuum import dirac
from vfvacuum.constants import LEPTON_MASS_DOMAIN, load_constants
from vfvacuum.dirac import (
    GAMMA,
    IDENTITY,
    FourVector,
    closed_form_matrix_element,
    cross_section_coefficient,
    decay_rate,
    kinematic_check,
    phase_space_integral,
    phase_space_width_study,
    polarization_sums,
    slash,
    spin_sum,
    spinor,
    squared_matrix_element,
    trace_identities_check,
    transverse_polarization_basis,
    two_photon_rate_natural,
    verification_suite,
    wavefunction_at_origin,
)


def random_four_vector(rng):
    return FourVector(*rng.normal(size=4))


def random_rotation(rng):
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def rotate(vector, rotation):
    return FourVector(vector.t, *(rotation @ vector.as_array()[1:]))


# ---------------------------------------------------------------- kinematics


def test_minkowski_dot_symmetric_bilinear():
    rng = np.random.default_rng(3)
    for _ in range(100):
        a, b, c = (random_four_vector(rng) for _ in range(3))
        lam = rng.normal()
        assert a.dot(b) == pytest.approx(b.dot(a), abs=1e-12)
        combined = FourVector(
            b.t + lam * c.t, b.x + lam * c.x, b.y + lam * c.y, b.z + lam * c.z
        )
        assert a.dot(combined) == pytest.approx(a.dot(b) + lam * a.dot(c), abs=1e-10)


def test_kinematic_check_examples():
    m = 1.0
    assert kinematic_check(m, 0.1 * m) == "forbidden"
    assert kinematic_check(0.0, 12.3) == "allowed"
    assert kinematic_check(m, 0.0) == "forbidden"


def test_kinematic_check_rejects_negative():
    with pytest.raises(ValueError):
        kinematic_check(-1.0, 1.0)
    with pytest.raises(ValueError):
        kinematic_check(1.0, -0.5)


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
        assert np.max(np.abs(slash(a) @ slash(a) - a.dot(a) * IDENTITY)) < 1e-13 * max(
            1.0, abs(a.dot(a))
        )


def test_slash_pair_anticommutator():
    rng = np.random.default_rng(6)
    for _ in range(50):
        a, b = random_four_vector(rng), random_four_vector(rng)
        lhs = slash(a) @ slash(b) + slash(b) @ slash(a)
        assert np.max(np.abs(lhs - 2.0 * a.dot(b) * IDENTITY)) < 1e-12


def test_batched_slash_equals_stacked_rows():
    rng = np.random.default_rng(11)
    rows = rng.normal(size=(64, 4))
    stacked = np.array(
        [v.t * GAMMA[0] - v.x * GAMMA[1] - v.y * GAMMA[2] - v.z * GAMMA[3]
         for v in (FourVector(*row) for row in rows)]
    )
    assert np.array_equal(slash(rows), stacked)
    assert np.array_equal(slash(rows), np.array([slash(FourVector(*row)) for row in rows]))
    assert slash(rows.reshape(8, 8, 4)).shape == (8, 8, 4, 4)


def test_lightlike_slash_squares_to_zero():
    k = FourVector(2.0, 0.0, 0.0, 2.0)
    assert np.max(np.abs(slash(k) @ slash(k))) < 1e-13


def test_trace_identities_report():
    rows = trace_identities_check(trials=100, seed=1)
    assert {row.name for row in rows} == {
        "trace-pair-identity",
        "trace-quartet-identity",
        "trace-odd-vanishes",
    }
    assert all(row.status == "pass" for row in rows)


def test_trace_identities_match_per_trial_loop():
    """Reference: the per-trial loop over scalar slash calls, drawing each
    trial's four vectors in turn; the batched check must draw the same numbers
    in the same order and give the same residuals."""
    rng = np.random.default_rng(21)
    worst = [0.0, 0.0, 0.0]
    for _ in range(300):
        a, b, c, d = (random_four_vector(rng) for _ in range(4))
        scale = max(1.0, *(abs(v.dot(v)) for v in (a, b, c, d)))
        pair = np.trace(slash(a) @ slash(b))
        quartet = np.trace(slash(a) @ slash(b) @ slash(c) @ slash(d))
        expected = 4.0 * (a.dot(b) * c.dot(d) - a.dot(c) * b.dot(d) + a.dot(d) * b.dot(c))
        odd = max(abs(np.trace(slash(a))) / scale, abs(np.trace(slash(a) @ slash(b) @ slash(c))) / scale**1.5)
        worst = [max(worst[0], abs(pair - 4.0 * a.dot(b)) / scale),
                 max(worst[1], abs(quartet - expected) / scale**2), max(worst[2], odd)]
    assert [row.measured for row in trace_identities_check(trials=300, seed=21)] == worst


# ------------------------------------------------------------------ spinors


def test_rest_frame_u_satisfies_dirac_equation():
    m = 1.3
    rest = FourVector(m, 0.0, 0.0, 0.0)
    psi = spinor("u", rest, "+", m)
    assert np.max(np.abs((slash(rest) - m * IDENTITY) @ psi.components)) < 1e-12


def test_rest_frame_spin_sum_projector():
    m = 0.7
    rest = FourVector(m, 0.0, 0.0, 0.0)
    assert np.max(np.abs(spin_sum("u", rest, m) - (GAMMA[0] + IDENTITY) / 2.0)) < 1e-14


def test_boosted_spinor_invariants():
    m = 1.0
    beta = 0.1
    pz = m * beta / math.sqrt(1.0 - beta**2)
    momentum = FourVector(math.sqrt(m**2 + pz**2), 0.0, 0.0, pz)
    for kind, sign in (("u", 1.0), ("v", -1.0)):
        for spin_label in ("+", "-"):
            psi = spinor(kind, momentum, spin_label, m)
            residual = (slash(momentum) - sign * m * IDENTITY) @ psi.components
            assert np.max(np.abs(residual)) < 1e-12
            assert psi.bar() @ psi.components == pytest.approx(sign, abs=1e-12)
        projector = (slash(momentum) + sign * m * IDENTITY) / (2.0 * m)
        assert np.max(np.abs(spin_sum(kind, momentum, m) - projector)) < 1e-12


def test_off_shell_momentum_rejected():
    with pytest.raises(ValueError, match="off shell"):
        spinor("u", FourVector(2.0, 0.0, 0.0, 0.0), "+", 1.0)


def test_bad_spinor_labels_rejected():
    rest = FourVector(1.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        spinor("w", rest, "+", 1.0)
    with pytest.raises(ValueError):
        spinor("u", rest, "up", 1.0)


# ------------------------------------------------------ squared matrix element


def test_parallel_polarizations_vanish():
    m = 1.0
    k = FourVector(m, 0.0, 0.0, m)
    e1 = FourVector(0.0, 1.0, 0.0, 0.0)
    scale = 2.0 / m**2
    assert abs(squared_matrix_element(e1, e1, k, m)) < 1e-12 * scale


def test_perpendicular_polarizations_hit_coefficient():
    m = 0.5109989499961642
    k = FourVector(m, 0.0, 0.0, m)
    e1 = FourVector(0.0, 1.0, 0.0, 0.0)
    e2 = FourVector(0.0, 0.0, 1.0, 0.0)
    assert squared_matrix_element(e1, e2, k, m) == pytest.approx(2.0 / m**2, rel=1e-10)


def test_angular_law():
    rng = np.random.default_rng(7)
    m = 1.0
    k = FourVector(m, 0.0, 0.0, m)
    e1 = FourVector(0.0, 1.0, 0.0, 0.0)
    scale = 2.0 / m**2
    for theta in rng.uniform(0.0, 2.0 * math.pi, size=50):
        ef = FourVector(0.0, math.cos(theta), math.sin(theta), 0.0)
        brute = squared_matrix_element(e1, ef, k, m)
        closed = closed_form_matrix_element(e1, ef, m)
        assert closed == pytest.approx(scale * (1.0 - math.cos(theta) ** 2), rel=1e-12, abs=1e-15)
        assert abs(brute - closed) < 1e-10 * scale


def test_matrix_element_rotation_invariance():
    rng = np.random.default_rng(8)
    m = 1.0
    k = FourVector(m, 0.0, 0.0, m)
    e1 = FourVector(0.0, 1.0, 0.0, 0.0)
    e2 = FourVector(0.0, 0.0, 1.0, 0.0)
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
    k = FourVector(m, 0.0, 0.0, m)
    theta = rng.uniform(0.0, 2.0 * math.pi, size=33)
    finals = [FourVector(0.0, math.cos(t), math.sin(t), 0.0) for t in theta]
    e1 = FourVector(0.0, 1.0, 0.0, 0.0)
    batched = squared_matrix_element(e1, np.array([f.as_array() for f in finals]), k, m)
    assert batched.shape == (33,)
    assert np.array_equal(batched, [squared_matrix_element(e1, f, k, m) for f in finals])


def test_matrix_element_preconditions():
    m = 1.0
    k = FourVector(m, 0.0, 0.0, m)
    e1 = FourVector(0.0, 1.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="lightlike"):
        squared_matrix_element(e1, e1, FourVector(1.0, 0.0, 0.0, 0.5), m)
    with pytest.raises(ValueError, match="unit"):
        squared_matrix_element(FourVector(0.0, 2.0, 0.0, 0.0), e1, k, m)
    with pytest.raises(ValueError, match="transverse"):
        squared_matrix_element(FourVector(0.0, 0.0, 0.0, 1.0), e1, k, m)
    good = np.array([[0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]])
    with pytest.raises(ValueError, match="unit"):
        squared_matrix_element(good * [[1.0], [2.0]], e1, k, m)
    with pytest.raises(ValueError, match="lightlike"):
        squared_matrix_element(e1, good, np.array([[1.0, 0.0, 0.0, 1.0], [1.0, 0.0, 0.0, 0.5]]), m)


# ---------------------------------------------------------- polarization sums


def test_polarization_sums_z_direction():
    k = FourVector(1.0, 0.0, 0.0, 1.0)
    sum_one, sum_dot = polarization_sums(k)
    assert sum_one == 4.0
    assert sum_dot == pytest.approx(2.0, abs=1e-12)


def test_polarization_sums_arbitrary_directions():
    rng = np.random.default_rng(9)
    for _ in range(50):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        energy = 10.0 ** rng.uniform(-2, 2)
        k = FourVector(energy, *(energy * direction))
        sum_one, sum_dot = polarization_sums(k)
        assert abs(sum_one - 4.0) < 1e-12
        assert abs(sum_dot - 2.0) < 1e-12


def test_polarization_sums_swap_invariant():
    k = FourVector(1.0, 0.0, 0.0, 1.0)
    e1, e2 = transverse_polarization_basis(k)
    assert polarization_sums(k, final_basis=(e2, e1)) == polarization_sums(k)


def test_polarization_sums_basis_independent():
    rng = np.random.default_rng(10)
    k = FourVector(1.0, 0.0, 0.0, 1.0)
    e1, e2 = (e.as_array()[1:] for e in transverse_polarization_basis(k))
    for _ in range(20):
        phi = rng.uniform(0.0, 2.0 * math.pi)
        r1 = FourVector(0.0, *(math.cos(phi) * e1 + math.sin(phi) * e2))
        r2 = FourVector(0.0, *(-math.sin(phi) * e1 + math.cos(phi) * e2))
        sum_one, sum_dot = polarization_sums(k, initial_basis=(r1, r2))
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
        e1, e2 = transverse_polarization_basis(FourVector(*row))
        assert np.array_equal(basis, [e1.as_array(), e2.as_array()])
        assert polarization_sums(FourVector(*row)) == (sum_one, dot)


def test_basis_cross_product_matches_np_cross():
    rng = np.random.default_rng(17)
    k3 = rng.normal(size=(500, 3)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(500, 1))
    k3 = np.concatenate([k3, [[0, 0, 1], [0, 0, -2], [3, 0, 0], [0, -1, 0], [1, 1, 0], [-1, 1, 1]]])
    norm = np.sqrt((k3[:, None, :] @ k3[:, :, None])[:, 0, 0])  # rounded as the basis rounds it
    khat = k3 / norm[:, None]
    momenta = np.concatenate([norm[:, None], k3], axis=1)
    bases = transverse_polarization_basis(momenta)
    assert np.array_equal(bases[:, 1, 1:], np.cross(khat, bases[:, 0, 1:]))
    for row, direction in zip(momenta[-60:], khat[-60:]):
        e1, e2 = transverse_polarization_basis(FourVector(*row))
        assert np.array_equal(e2.as_array()[1:], np.cross(direction, e1.as_array()[1:]))


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
    with pytest.raises(ValueError, match="initial polarization must be a spacelike unit vector"):
        polarization_sums(dirac._PHOTON_Z, initial_basis=np.stack([nan_eps, e2]))


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
    polarization_sums(momenta, initial_basis=original(momenta), final_basis=original(momenta))
    assert len(calls) == 1


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
        polarization_sums(FourVector(0.0, 0.0, 0.0, 0.0))


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


def test_wavefunction_at_origin_closed_form(constants):
    alpha = constants.alpha
    m = 1.0
    assert wavefunction_at_origin(m, alpha) == pytest.approx(
        (alpha * m / 2.0) ** 3 / math.pi, rel=1e-15
    )
    assert wavefunction_at_origin(2.0 * m, alpha) == pytest.approx(
        8.0 * wavefunction_at_origin(m, alpha), rel=1e-12
    )
    assert wavefunction_at_origin(m, 0.0) == 0.0


def test_wavefunction_normalization_by_quadrature(constants):
    """Radial quadrature oracle: the squared bound-state wave function
    integrates to one over all space."""
    from scipy.integrate import quad

    alpha = constants.alpha
    m = 1.0
    a = alpha * m  # inverse length scale of the exponential
    density = wavefunction_at_origin(m, alpha)
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


def test_verification_suite_independent_of_block_size(monkeypatch):
    reference = verification_suite(trials=60, seed=4)
    monkeypatch.setattr(dirac, "_BLOCK", 7)
    assert verification_suite(trials=60, seed=4) == reference


def test_verification_suite_seed_changes_draws():
    a = dirac.verification_suite(trials=50, seed=1)
    b = dirac.verification_suite(trials=50, seed=2)
    assert [row.name for row in a] == [row.name for row in b]


def test_suite_sections_draw_apart_from_trace_identities(monkeypatch):
    """The randomized sections of the suite take a stream of their own: the
    first four-vectors of slash-clifford-square are not the trace-identity ones."""
    first_draws = {}

    def recording(name):
        residuals = getattr(dirac, name)

        def wrapped(rng, count):
            first_draws.setdefault(name, copy.deepcopy(rng).normal(size=8))
            return residuals(rng, count)

        monkeypatch.setattr(dirac, name, wrapped)

    recording("_trace_identity_residuals")
    recording("_slash_square_residuals")
    verification_suite(trials=4, seed=5)
    assert not np.any(first_draws["_trace_identity_residuals"] == first_draws["_slash_square_residuals"])


@pytest.mark.parametrize("count", [1, 4, 200, 1000, 1025])
def test_constant_factor_product_equals_stacked_matmul(count):
    """The one-product path for a single 4x4 factor gives every entry the bits
    that a stacked ``@`` gives, with the constant on either side."""
    rng = np.random.default_rng(count)
    constants = [
        rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)),
        slash(rng.normal(size=4)) - 0.7 * IDENTITY,
    ]
    stacks = [
        rng.normal(size=(count, 4, 4)) + 1j * rng.normal(size=(count, 4, 4)),
        slash(rng.normal(size=(count, 4))) @ slash(rng.normal(size=(count, 4))),
        slash(rng.normal(size=(2, count, 4))),
    ]
    for constant in constants:
        for stack in stacks:
            assert np.array_equal(dirac._matmul(constant, stack), constant @ stack)
            assert np.array_equal(dirac._matmul(stack, constant), stack @ constant)
    assert np.array_equal(dirac._matmul(stacks[0], stacks[1]), stacks[0] @ stacks[1])


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


def test_bound_draw_calls_read_the_same_stream():
    """The suite's per-trial loops call ``standard_normal(3)`` and ``-1 + 2 random()``
    through bound methods; both consume the words ``normal(size=3)`` and
    ``uniform(-1, 1)`` consume and give the same values."""
    reference, bound = np.random.default_rng(2024), np.random.default_rng(2024)
    normal, random = bound.standard_normal, bound.random
    expected = [(reference.normal(size=3), reference.uniform(-1.0, 1.0)) for _ in range(5000)]
    drawn = [(normal(3), -1.0 + 2.0 * random()) for _ in range(5000)]
    assert np.array_equal([d for d, _ in drawn], [d for d, _ in expected])
    assert np.array_equal([u for _, u in drawn], [u for _, u in expected])
    assert bound.bit_generator.state == reference.bit_generator.state


def test_verification_suite_passes_over_seeds_at_1000_trials():
    for seed in range(10):
        rows = verification_suite(trials=1000, seed=seed)
        assert [row.name for row in rows] == SUITE_ROWS
        failed = [row for row in rows if row.status != "pass"]
        assert not failed, (seed, failed)
