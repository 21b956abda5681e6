"""Acceptance gate: every shipped-quality criterion at its stated tolerance.

Each test prints one `[PASS]`/`[FAIL]` line (visible with `pytest -s` or
`-rA`) and then asserts, so CI gets both a readable summary and a hard gate.
"""

import io
import json
import math
from contextlib import redirect_stdout

import numpy as np
import pytest

from vfvacuum import dirac, oscillator, permittivity, vfmodel
from vfvacuum.checks import all_pass
from vfvacuum.cli import run
from vfvacuum.constants import load_constants
from vfvacuum.dirac import FourVector


def judge(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_01_eps0_headline(constants):
    report = permittivity.eps0_total(constants)
    ok_value = abs(report.eps0_calculated / 9.10e-12 - 1.0) <= 5e-3
    ok_deviation = abs(report.deviation_percent - 2.7) <= 0.3
    judge(
        "eps0 headline",
        ok_value and ok_deviation,
        f"eps0={report.eps0_calculated:.4e} C/(V*m) (target 9.10e-12 within 0.5%), "
        f"deviation={report.deviation_percent:+.3f}% (target +2.7 +/- 0.3)",
    )


def test_02_c_headline(constants):
    report = permittivity.eps0_total(constants)
    ok_value = abs(report.c_calculated / 2.96e8 - 1.0) <= 5e-3
    ok_deviation = abs(report.c_deviation_percent - (-1.4)) <= 0.3
    judge(
        "c headline",
        ok_value and ok_deviation,
        f"c={report.c_calculated:.4e} m/s (target 2.96e8 within 0.5%), "
        f"deviation={report.c_deviation_percent:+.3f}% (target -1.4 +/- 0.3)",
    )


def test_03_decay_pipeline(constants, electron):
    result = dirac.decay_rate(electron, constants)
    pipeline_rate = constants.from_natural(result.gamma, "rate")
    closed_rate = permittivity.annihilation_rate_closed_form(electron, constants)
    ok_lifetime = abs(result.lifetime / 6.2e-11 - 1.0) <= 1e-2
    ok_closed = abs(pipeline_rate / closed_rate - 1.0) <= 1e-9
    judge(
        "decay pipeline",
        ok_lifetime and ok_closed,
        f"lifetime={result.lifetime:.4e} s (target 6.2e-11 within 1%), "
        f"closed-form agreement={abs(pipeline_rate / closed_rate - 1.0):.2e} (tol 1e-9)",
    )


def test_04_cross_section_coefficients(constants, electron):
    all_four = dirac.cross_section_coefficient("all_four")
    singlet = dirac.cross_section_coefficient("singlet_only")
    decay = dirac.decay_rate(electron, constants)
    gamma = decay.gamma
    two_photon = dirac.two_photon_rate_natural(decay)
    ok = (
        abs(all_four - 2.0) <= 1e-8
        and abs(singlet - 8.0) <= 1e-8
        and singlet / all_four == 4.0
        and two_photon == gamma / 2.0
    )
    judge(
        "cross-section coefficients",
        ok,
        f"all_four={all_four:.12f} (2 +/- 1e-8), singlet={singlet:.12f} (8 +/- 1e-8), "
        f"ratio={singlet / all_four}, two-photon/single-photon={two_photon / gamma}",
    )


def test_05_trace_engine_property_suite():
    rows = dirac.verification_suite(trials=100, seed=2026)
    algebra = [r for r in rows if r.name.startswith(("trace-", "clifford", "spin", "slash"))]
    angular = [r for r in rows if "angular" in r.name]
    worst = max(row.measured for row in rows)
    ok = all_pass(rows) and all(r.tolerance <= 1e-10 for r in algebra + angular)
    judge(
        "trace engine property suite",
        ok,
        f"{len(rows)} identity families over 100 seeded configurations, "
        f"worst deviation {worst:.2e}, all within tolerance",
    )


def test_06_polarization_and_phase_space():
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(50):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        energy = 10.0 ** rng.uniform(-2, 2)
        k = FourVector(energy, *(energy * direction))
        sum_one, sum_dot = dirac.polarization_sums(k)
        worst = max(worst, abs(sum_one - 4.0), abs(sum_dot - 2.0))
    analytic = dirac.phase_space_integral("analytic")
    regularized = dirac.phase_space_integral("regularized")
    ok = worst <= 1e-12 and analytic == math.pi and abs(regularized - math.pi) <= 1e-6
    judge(
        "polarization sums and phase space",
        ok,
        f"(4,2) worst deviation {worst:.2e} (tol 1e-12); analytic integral exactly pi, "
        f"regularized off by {abs(regularized - math.pi):.2e} (tol 1e-6)",
    )


def test_07_vf_tables(constants, electron, tau):
    n_e = vfmodel.number_density(electron, constants)
    n_tau = vfmodel.number_density(tau, constants)
    dt_e = vfmodel.vf_lifetime(electron, constants)
    ok = (
        abs(n_e / 1.12e39 - 1.0) <= 0.02
        and abs(n_tau / 4.70e49 - 1.0) <= 0.02
        and abs(dt_e / 3.2e-22 - 1.0) <= 0.02
    )
    judge(
        "VF tables",
        ok,
        f"electron density={n_e:.3e}/m^3 (1.12e39 +/- 2%), tau density={n_tau:.3e}/m^3 "
        f"(4.70e49 +/- 2%), electron lifetime={dt_e:.3e} s (3.2e-22 +/- 2%)",
    )


def test_08_oscillator_oracle(constants):
    rng = np.random.default_rng(4242)
    worst = 0.0
    for _ in range(100):
        mu = 10.0 ** rng.uniform(-31, -27)
        omega = 10.0 ** rng.uniform(13, 17)
        c1 = 10.0 ** rng.uniform(-6, -3)
        field = c1 * math.sqrt(2.0 * mu * constants.hbar * omega**3) / constants.e_charge
        spec = oscillator.OscillatorSpec(reduced_mass=mu, omega0=omega)
        photon = oscillator.PhotonField(field, constants.e_charge)
        perturbative = oscillator.dipole_expectation(spec, photon, constants)
        oracle = oscillator.dipole_oracle(spec, photon, constants)
        worst = max(worst, abs(oracle / perturbative - 1.0))
    spec = oscillator.oscillator_for_species(constants.lepton("electron"), constants)
    product = oscillator.ground_state_uncertainty_product(spec, constants)
    ok = worst <= 1e-6 and abs(product / (constants.hbar / 2.0) - 1.0) <= 1e-8
    judge(
        "oscillator oracle",
        ok,
        f"100 weak-field specs, worst perturbative-vs-oracle deviation {worst:.2e} (tol 1e-6); "
        f"ground-state dx*dp/(hbar/2)-1 = {product / (constants.hbar / 2.0) - 1.0:.2e} (tol 1e-8)",
    )


def test_09_mass_independence(constants):
    baseline = permittivity.eps0_total(constants).eps0_calculated
    worst = 0.0
    for name in ("m_electron", "m_muon", "m_tau"):
        doubled = load_constants({name: 2.0 * getattr(constants, name)})
        perturbed = permittivity.eps0_total(doubled).eps0_calculated
        worst = max(worst, abs(perturbed / baseline - 1.0))
    judge(
        "mass independence",
        worst <= 1e-9,
        f"doubling each lepton mass shifts eps0 by at most {worst:.2e} (tol 1e-9)",
    )


def test_10_laser_comparison(constants, electron):
    laser = permittivity.LaserSpec(power=6000.0, wavelength=10e-6, beam_radius=0.16e-3)
    density = permittivity.photon_number_density(laser, constants)
    n_e = vfmodel.number_density(electron, constants)
    ok = 1e21 <= density <= 1e23 and density < n_e
    judge(
        "laser comparison",
        ok,
        f"photon density={density:.3e}/m^3 in [1e21, 1e23] and below the electron "
        f"VF density {n_e:.3e}/m^3",
    )


def test_11_report_determinism():
    def capture():
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            code = run(["report", "--format", "json"])
        return code, buffer.getvalue()

    first = capture()
    second = capture()
    ok = first == second and first[0] == 0 and json.loads(first[1])
    judge(
        "report determinism",
        bool(ok),
        f"two invocations byte-identical ({len(first[1])} bytes, exit {first[0]})",
    )
