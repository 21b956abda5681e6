"""Numerical Dirac algebra engine for the single-photon annihilation of a
photon-excited bound pair.

Everything is evaluated with explicit 4x4 complex matrices in the Dirac-Pauli
representation, natural units (hbar = c = 1, energies in MeV). Spinors carry
box normalization, ubar u = 1 and vbar v = -1, so the spin sums are
(pslash +- m)/(2m). The spin-summed squared amplitude is reduced to

    M(eps_i, eps_f) = Tr[(pslash_+ - m) (ei ef - ef ei) kslash
                         (pslash_- + m) kslash (ef ei - ei ef)] / (16 m^4 w^2)

with p_+ = p_- = (m, 0) for a pair at rest and w the photon energy; its closed
form is (2/m^2) (1 - (eps_i . eps_f)^2). The cross-section coefficient
multiplies this by the polarization average (1/2 of the sum over the four
basis pairs), the spin-statistics factor (1/4 averaging over all four spin
states, or 1 when only the singlet contributes), the photon phase-space factor
pi, and m^2/pi; the squared photon coupling cancels against the alpha^2
normalization of the quoted cross section and the divergent relative-velocity
flux is carried symbolically and cancelled in the decay rate.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from importlib import resources
from typing import Callable, Sequence

import numpy as np

from .checks import CheckRow, check_row
from .constants import ConstantsSet, LeptonSpecies

# Dirac-Pauli representation.
_SIGMA = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex)
_I2 = np.eye(2, dtype=complex)
_Z2 = np.zeros((2, 2), dtype=complex)

IDENTITY = np.eye(4, dtype=complex)
GAMMA = (np.block([[_I2, _Z2], [_Z2, -_I2]]),) + tuple(np.block([[_Z2, s], [-s, _Z2]]) for s in _SIGMA)
for _g in GAMMA:
    _g.flags.writeable = False
IDENTITY.flags.writeable = False

METRIC_DIAGONAL = (1.0, -1.0, -1.0, -1.0)

# gamma_mu = g_mu_nu gamma^nu, so a_mu gamma^mu is one contraction over mu; each entry sums
# at most one nonzero real and one nonzero imaginary term, so it is exact in any order.
_GAMMA_LOWERED = np.array(METRIC_DIAGONAL)[:, None, None] * np.stack(GAMMA)

# slash(a)'s real form is a @ this table: its entries as 2x2 blocks (re, im; -im, re), each exact.
_SLASH_REAL_FORM = np.kron(_GAMMA_LOWERED, [[1, -1j], [1j, 1]]).real.reshape(4, 64)

DEFAULT_REGULARIZATION_WIDTHS = (1e-2, 3e-3, 1e-3, 3e-4, 1e-4)

# Trials drawn and evaluated together by the verification suites, bounding their memory.
_BLOCK = 1000


Floats = float | np.ndarray  # one value, or a stack of them


@dataclass(frozen=True)
class AnnihilationResult:
    species: str
    sigma_coefficient: float  # sigma * |v_rel| * m^2 / (pi alpha^2)
    gamma: float  # natural-unit rate (MeV)
    lifetime: float  # s


def _float_or_array(x: np.ndarray) -> float | np.ndarray:
    return float(x) if np.ndim(x) == 0 else x


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Minkowski product over the last axis."""
    p = a * b
    return p[..., 0] - p[..., 1] - p[..., 2] - p[..., 3]


def _inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Plain inner product over the last axis."""
    return (a * b).sum(axis=-1)


def _exp(x: np.ndarray) -> np.ndarray:
    """The C library's exp, through numpy's complex loop: its float64 loop rounds otherwise on AVX-512."""
    return np.exp(x + 0j).real


def _trace(m: np.ndarray) -> np.ndarray:
    """Trace over the last two axes, summed in the pairwise order ``np.trace`` uses on the complex
    stacks the engine traces, whose matrix axes are innermost; ``0.0 +`` gives its signed zeros."""
    return 0.0 + ((m[..., 0, 0] + m[..., 1, 1]) + (m[..., 2, 2] + m[..., 3, 3]))


def slash(a: np.ndarray) -> np.ndarray:
    """Contraction a_mu gamma^mu with index lowering by the metric: a 4x4
    matrix for one (4,) vector, a (..., 4, 4) stack for (..., 4) components. One real product with a
    (4, 32) table of each entry's real and imaginary parts, read back as complex: OpenBLAS runs a
    complex product the size of a suite block's on a second thread, costing more than the product."""
    v = np.asarray(a, dtype=float)
    table = _GAMMA_LOWERED.reshape(4, 16).view(float)
    return (v.reshape(-1, 4) @ table).view(complex).reshape(v.shape[:-1] + (4, 4))


def _times_slash(
    x: np.ndarray, a: np.ndarray, shift: Floats | None = None, out: np.ndarray | None = None
) -> np.ndarray:
    """``x @ (slash(a) + shift)``, for a float shift or a (..., 1) stack of them: a real product with the real
    form of the factor, read back as complex. For a single (4,) vector the whole stack is one (4n, 8) @ (8, 8)
    product; for a stack of vectors a stacked (..., 4, 8) @ (..., 8, 8) one, into ``out`` if given, about a
    fifth of the cost of a complex stacked ``@``, whose BLAS calls per matrix are slower."""
    form = (a.reshape(-1, 4) @ _SLASH_REAL_FORM).reshape(a.shape[:-1] + (8, 8))
    if shift is not None:  # onto the diagonal, every ninth entry of each flattened form
        form.reshape(form.shape[:-2] + (64,))[..., ::9] += shift
    if a.ndim == 1:
        return (x.reshape(-1, 4).view(float) @ form).view(complex).reshape(x.shape)
    return np.matmul(x.view(float), form, out=None if out is None else out.view(float)).view(complex)


def _trace_of_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tr(a @ b) over the last two axes as the sum of a_ij b_ji, without forming the product."""
    return (a * b.swapaxes(-1, -2)).sum(axis=(-2, -1))


def spinor(momentum: np.ndarray, mass: float | np.ndarray) -> np.ndarray:
    """Free-particle spinors with box normalization ubar u = 1, vbar v = -1, as the columns u+, u-, v+, v-
    of sqrt((E+m)/2m) [[1, S], [S, 1]] with S = sigma.p/(E+m): a (..., 4, 4) complex stack for (..., 4)
    momenta with broadcastable masses."""
    _require_positive_mass(mass)
    four_momentum = np.asarray(momentum, dtype=float)
    energy, p = four_momentum[..., 0], four_momentum[..., 1:]
    # |E - sqrt(m^2 + p.p)| < 1e-9 m, divided by E as _require_lightlike scales k, so that p.p cannot
    # overflow; it fails on NaN, on inf and for E <= 0.
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        unit = p / energy[..., None]
        shell = np.abs(1.0 - np.sqrt((mass / energy) ** 2 + _inner(unit, unit))) < 1e-9 * mass / energy
    if not shell.all():
        raise ValueError("momentum is off shell for the given mass")
    sigma_p = (p @ _SIGMA.reshape(3, 4).view(float)).view(complex)  # a real product, as in slash
    small = sigma_p.reshape(p.shape[:-1] + (2, 2)) / (energy + mass)[..., None, None]
    one = np.broadcast_to(_I2, small.shape)
    return np.sqrt((energy + mass) / (2.0 * mass))[..., None, None] * np.block([[one, small], [small, one]])


def _trace_identity_residuals(rng: np.random.Generator, count: int) -> tuple[np.ndarray, ...]:
    """Tr(aslash bslash) = 4 a.b, the four-slash trace expansion and Tr(aslash bslash cslash) = 0,
    each deviation scaled by the size of the vectors so that the tolerances are scale-free."""
    vectors = rng.normal(size=(count, 4, 4))
    a, b, c, d = np.moveaxis(vectors, 1, 0)
    scale = np.maximum(1.0, np.max(np.abs(_dot(vectors, vectors)), axis=-1))
    sa, sb, sc, sd = np.moveaxis(slash(vectors), 1, 0)
    # Into the unread bslash and dslash, so glibc keeps the heap between blocks (see README).
    ab, cd = _times_slash(sa, b, out=sb), _times_slash(sc, d, out=sd)
    pair = np.abs(_trace(ab) - 4.0 * _dot(a, b)) / scale
    expected = 4.0 * (_dot(a, b) * _dot(c, d) - _dot(a, c) * _dot(b, d) + _dot(a, d) * _dot(b, c))
    quartet = np.abs(_trace_of_product(ab, cd) - expected) / scale**2
    odd = np.abs(_trace_of_product(ab, sc)) / scale**1.5
    return pair, quartet, odd


def _worst_over_blocks(count: int, residuals: Callable, rng: np.random.Generator) -> np.ndarray:
    """Largest value of each per-trial residual over ``count`` trials drawn and evaluated
    ``_BLOCK`` at a time; a NaN propagates. No trials runs one empty block, reading 0."""
    worst = 0.0
    for size in [min(_BLOCK, count - start) for start in range(0, count, _BLOCK)] or [0]:
        worst = np.maximum(worst, [np.max(r, initial=0.0) for r in residuals(rng, size)])
    return worst


def _require_positive_mass(mass: Floats) -> None:
    if not (np.asarray(mass) > 0.0).all():  # NaN fails too
        raise ValueError("mass must be positive")


def _require_lightlike(k: np.ndarray) -> None:
    # Every condition fails on NaN; k is scaled by its energy so k.k cannot overflow.
    energy = k[..., 0]
    if not (energy > 0.0).all():
        raise ValueError("photon momentum must have positive energy")
    unit = k / energy[..., None]
    if not (np.abs(_dot(unit, unit)) <= 1e-9).all():
        raise ValueError("photon momentum must be lightlike")


def _normal_denominator(mass: Floats, energy: np.ndarray) -> np.ndarray:
    """16 m^4 w^2, which normalizes the matrix element. Where it over- or underflows,
    or is subnormal, the quotient would be inf, 0, NaN or wrongly rounded: ValueError."""
    with np.errstate(over="ignore", under="ignore"):
        # float_power rounds as the scalar power np.float64(m)**4 does, here and for m^2 in
        # cross_section_coefficient; the array powers differ in the last bit for some masses.
        denominator = 16.0 * np.float_power(mass, 4) * energy**2
    bad = ~((denominator >= sys.float_info.min) & (denominator < math.inf))
    if bad.any():
        first = np.argmax(np.ravel(bad))
        m, w, scale = (float(np.broadcast_to(x, bad.shape).flat[first]) for x in (mass, energy, denominator))
        raise ValueError(
            f"mass {m!r} with photon energy {w!r} is out of range: "
            f"16 m^4 w^2 = {scale!r} is not a normal positive float"
        )
    return denominator


def _require_polarization(eps: np.ndarray, k: np.ndarray, label: str) -> None:
    # Both conditions fail on NaN.
    if not (np.abs(_dot(eps, eps) + 1.0) <= 1e-9).all():
        raise ValueError(f"{label} must be a spacelike unit vector")
    if not (np.abs(_dot(k, eps)) <= 1e-9 * k[..., 0]).all():
        raise ValueError(f"{label} must be transverse to the photon momentum")


def squared_matrix_element(
    epsilon_i: np.ndarray, epsilon_f: np.ndarray, k_i: np.ndarray, mass: Floats
) -> Floats:
    """Spin-summed reduced squared amplitude by brute-force matrix products.

    No symbolic simplification: the commutator structure, the photon slash,
    and the (pslash +- m) projectors are multiplied out entrywise and traced.
    (4,) vectors and a float mass give a float; (..., 4) arrays and an array
    of masses, all broadcasting against each other's leading axes, give an
    array. A mass and photon energy for which 16 m^4 w^2 is not a
    normal float raise ValueError.
    """
    _require_positive_mass(mass)
    e_i, e_f, k = (np.asarray(v, dtype=float) for v in (epsilon_i, epsilon_f, k_i))
    _require_lightlike(k)
    _require_polarization(e_i, k, "initial polarization")
    _require_polarization(e_f, k, "final polarization")
    return _reduced_trace(_commutator(e_i, e_f), k, mass)


def _commutator(e_i: np.ndarray, e_f: np.ndarray) -> np.ndarray:
    """ei-slash ef-slash - ef-slash ei-slash, a (..., 4, 4) stack."""
    return _times_slash(slash(e_i), e_f) - _times_slash(slash(e_f), e_i)


def _reduced_trace(commutator: np.ndarray, k: np.ndarray, mass: Floats) -> Floats:
    """``squared_matrix_element`` from the commutator of the two polarizations, for a positive mass,
    a lightlike k and polarizations that its caller has checked, or built from checked ones: the
    engine's own inputs are validated once, not on every call. Only the range of 16 m^4 w^2, which
    depends on the mass and k together, and the realness of the trace are checked here."""
    m = np.asarray(mass)[..., None]
    denominator = _normal_denominator(mass, k[..., 0])
    rest = m * _PAIR_AT_REST
    # Multiplied left to right from the commutator; the trace is cyclic, so (-C)(pslash - m) closes it.
    chain = _times_slash(_times_slash(_times_slash(commutator, k), rest, shift=m), k)
    trace = _trace_of_product(chain, _times_slash(-commutator, rest, shift=-m))
    non_real = np.abs(trace.imag) > 1e-10 * np.maximum(1.0, np.abs(trace.real))
    if non_real.any():
        raise RuntimeError(f"squared amplitude trace has a non-real part: {trace[non_real][0]}")
    return _float_or_array(trace.real / denominator)


def closed_form_matrix_element(epsilon_i: np.ndarray, epsilon_f: np.ndarray, mass: float) -> Floats:
    """Closed form of the reduced squared amplitude, (2/m^2)(1 - (ei.ef)^2)."""
    overlap = _dot(np.asarray(epsilon_i, dtype=float), np.asarray(epsilon_f, dtype=float))
    return _float_or_array((2.0 / mass**2) * (1.0 - overlap**2))


def transverse_polarization_basis(k: np.ndarray) -> np.ndarray:
    """Two orthonormal spacelike polarization vectors transverse to k, as a
    (..., 2, 4) array for (..., 4) momenta."""
    k = np.asarray(k, dtype=float)
    _require_lightlike(k)
    k3 = k[..., 1:]
    with np.errstate(over="ignore"):
        square = _inner(k3, k3)
    if not ((square >= sys.float_info.min) & (square < math.inf)).all():  # else khat is 0, inf or NaN
        raise ValueError("photon momentum is out of range: |k|^2 is not a normal float")
    khat = k3 / np.sqrt(square)[..., None]
    trial = np.eye(3)[np.argmin(np.abs(khat), axis=-1)]
    e1 = trial - _inner(trial, khat)[..., None] * khat
    e1 = e1 / np.sqrt(_inner(e1, e1))[..., None]
    (a1, a2, a3), (b1, b2, b3) = np.moveaxis(khat, -1, 0), np.moveaxis(e1, -1, 0)
    e2 = np.stack([a2 * b3 - a3 * b2, a3 * b1 - a1 * b3, a1 * b2 - a2 * b1], axis=-1)  # khat x e1
    return np.concatenate([np.zeros(e1.shape[:-1] + (2, 1)), np.stack([e1, e2], axis=-2)], axis=-1)


_PHOTON_Z = np.array([1.0, 0.0, 0.0, 1.0])  # k along z for a unit mass
_PAIR_AT_REST = np.array([1.0, 0.0, 0.0, 0.0])  # p_+ = p_- for a unit mass

# The transverse basis of a photon along +z, and its four (initial, final) pairs in pair order.
# Both hold at every energy w whose square neither over- nor underflows, since then
# sqrt(fl(w * w)) == w and the basis is exactly (0, 1, 0, 0), (0, 0, 1, 0).
_PHOTON_Z_BASIS = transverse_polarization_basis(_PHOTON_Z)
_PHOTON_Z_PAIRS = _PHOTON_Z_BASIS[np.array([[0, 0, 1, 1], [0, 1, 0, 1]])]
# The pairs are checked once, here, and their commutators built once; every energy scales k alone.
_require_polarization(_PHOTON_Z_PAIRS[0], _PHOTON_Z, "initial polarization")
_require_polarization(_PHOTON_Z_PAIRS[1], _PHOTON_Z, "final polarization")
_PHOTON_Z_COMMUTATORS = _commutator(*_PHOTON_Z_PAIRS)
for _frozen in (_PHOTON_Z_BASIS, _PHOTON_Z_PAIRS, _PHOTON_Z_COMMUTATORS):
    _frozen.flags.writeable = False


def polarization_sums(k_i: np.ndarray, final_basis: np.ndarray | None = None) -> tuple[float, Floats]:
    """Sums over initial/final polarization pairs for a final photon with the
    same momentum as the initial one: sum of 1 and sum of (eps_i . eps_f)^2.
    The initial basis is ``transverse_polarization_basis(k_i)``, and so is the
    final one unless it is given. Batched with (..., 4) momenta and (..., 2, 4) bases."""
    k = np.asarray(k_i, dtype=float)
    initial = final = transverse_polarization_basis(k)
    if final_basis is not None:
        final = np.asarray(final_basis, dtype=float)
        if final.shape[-2] != 2:
            raise ValueError("final polarization basis must contain two vectors")
        _require_polarization(final, k[..., None, :], "final polarization")
    squares = _dot(initial[..., :, None, :], final[..., None, :, :]) ** 2
    sum_dot_squared = sum(squares[..., i, f] for i in (0, 1) for f in (0, 1))  # in pair order
    return float(initial.shape[-2] * final.shape[-2]), _float_or_array(sum_dot_squared)


def phase_space_integral(
    method: str = "analytic",
    photon_energy: float = 1.0,
    widths: Sequence[float] = DEFAULT_REGULARIZATION_WIDTHS,
) -> float:
    """Photon phase-space integral: the on-shell delta against d^3k/(2w).

    ``analytic`` performs the radial delta integration in closed form (the
    angular integral gives 4pi, the radial one w^2/(4w^2)), returning exactly
    pi. ``regularized`` replaces the radial delta by Gaussians of decreasing
    width and integrates numerically; the sequence must converge to pi.
    """
    if method == "analytic":
        return 4.0 * math.pi * photon_energy**2 / (4.0 * photon_energy**2)
    if method != "regularized":
        raise ValueError(f"method must be 'analytic' or 'regularized', got {method!r}")
    values = phase_space_width_study(widths, photon_energy)
    errors = [abs(value - math.pi) for _, value in values]
    if any(late > early for early, late in zip(errors, errors[1:])):
        raise RuntimeError("regularized phase-space integral is not converging")
    if errors[-1] > 1e-6:
        raise RuntimeError(
            f"regularized phase-space integral off by {errors[-1]:.3e} at the narrowest width"
        )
    return values[-1][1]


@functools.cache
def _gauss_rule() -> np.ndarray:
    """Nodes and weights, a (2, 64) array, of the Gauss-Legendre rule for the regularized phase-space
    integral over +-10 widths: the bits of numpy's leggauss(64), stored, so that no process imports
    numpy.polynomial or runs its eigenvalue solver. Read on first use, which only trace-check makes."""
    text = resources.files("vfvacuum.data").joinpath("gauss_legendre_64.txt").read_text(encoding="utf-8")
    rows = [[float.fromhex(x) for x in line.split()] for line in text.splitlines() if line and not line.startswith("#")]
    rule = np.array(rows).T.copy()
    rule.flags.writeable = False
    return rule


def phase_space_width_study(
    widths: Sequence[float] = DEFAULT_REGULARIZATION_WIDTHS, photon_energy: float = 1.0
) -> list[tuple[float, float]]:
    """Regularized phase-space values for each relative delta width."""
    if not widths:
        raise ValueError("at least one regularization width is required")
    w = photon_energy
    nodes, weights = _gauss_rule()
    results = []
    for relative_width in widths:
        width = relative_width * w
        norm = 1.0 / (width * math.sqrt(2.0 * math.pi))
        lower = max(0.0, w - 10.0 * width)
        upper = w + 10.0 * width
        half = 0.5 * (upper - lower)
        kk = half * nodes + 0.5 * (upper + lower)
        integrand = 4.0 * math.pi * kk**2 / (4.0 * w**2) * norm * _exp(-0.5 * ((kk - w) / width) ** 2)
        results.append((relative_width, half * math.fsum(weights * integrand)))
    return results


def cross_section_coefficient(
    spin_average_mode: str = "singlet_only", mass: Floats = 1.0, photon_energy: Floats | None = None
) -> Floats:
    """Dimensionless sigma * |v_rel| * m^2 / (pi alpha^2), assembled from the
    brute-force matrix element, the polarization sums, and the phase-space
    integral: a float, or an array for arrays of masses or photon energies.

    ``all_four`` averages over all four fermion spin states; ``singlet_only``
    keeps the one spin state that can reach a single photon (charge
    conjugation rules out the triplet), quadrupling the result. A mass and
    photon energy for which 16 m^4 w^2 is not a normal float raise ValueError.
    """
    if spin_average_mode == "all_four":
        spin_factor = 0.25
    elif spin_average_mode == "singlet_only":
        spin_factor = 1.0
    else:
        raise ValueError(
            f"spin_average_mode must be 'all_four' or 'singlet_only', got {spin_average_mode!r}"
        )
    _require_positive_mass(mass)  # named before the photon energy, which defaults to it
    w = np.asarray(mass if photon_energy is None else photon_energy, dtype=float)
    # _require_lightlike's messages for k = w (1, 0, 0, 1), raised before k is built: inf * 0 is NaN.
    if not (w > 0.0).all():
        raise ValueError("photon momentum must have positive energy")
    if not (w < math.inf).all():
        raise ValueError("photon momentum must be lightlike")
    k = np.multiply.outer(w, _PHOTON_Z)
    # All four basis pairs of every mass in one call; the pair axis leads, so sum() adds in pair order.
    commutators = _PHOTON_Z_COMMUTATORS.reshape(4, *[1] * max(np.ndim(mass), w.ndim), 4, 4)
    element_sum = sum(_reduced_trace(commutators, k, mass))
    # 1/2 averages the initial polarization; the leftover photon-coupling and
    # wavenumber-measure factors reduce to 4/pi against the pi alpha^2 / m^2
    # normalization of the quoted cross section.
    factor = spin_factor * 0.5 * element_sum * 4.0 * phase_space_integral("analytic")
    return _float_or_array(factor * np.float_power(mass, 2) / math.pi)


def decay_rate(
    species: LeptonSpecies | tuple[LeptonSpecies, ...], constants: ConstantsSet
) -> AnnihilationResult | tuple[AnnihilationResult, ...]:
    """Single-photon decay rate of the photon-excited pair, end to end: a tuple
    of results in the same order for a tuple of species, whose engine work runs
    as one batched pass, or one result for one species, run as a batch of one.

    The relative-velocity flux divides the cross section and multiplies the
    collision rate, so it is cancelled algebraically before any number is
    evaluated; the result equals alpha^5 * m in natural units.
    """
    group = species if isinstance(species, tuple) else (species,)
    masses = [constants.to_natural(entry.mass, "mass") for entry in group]
    coefficients = cross_section_coefficient("singlet_only", mass=np.array(masses)).tolist()
    results = []
    for entry, mass, coefficient in zip(group, masses, coefficients):
        sigma_times_velocity = coefficient * math.pi * constants.alpha**2 / mass**2
        # Times |psi(0)|^2 = (alpha m / 2)^3 / pi, the squared ground-state wave function at the origin.
        gamma_natural = sigma_times_velocity * ((constants.alpha * mass / 2.0) ** 3 / math.pi)
        rate_si = constants.from_natural(gamma_natural, "rate")
        results.append(AnnihilationResult(entry.name, coefficient, gamma_natural, lifetime=1.0 / rate_si))
    return tuple(results) if isinstance(species, tuple) else results[0]


def two_photon_rate_natural(decay: AnnihilationResult) -> float:
    """Two-photon annihilation rate of the ordinary (non-transient) singlet
    pair: half the single-photon rate ``decay`` of the photon-excited
    transient pair (a ``decay_rate`` result)."""
    return decay.gamma / 2.0


def _slash_square_residuals(rng: np.random.Generator, count: int) -> tuple[np.ndarray, ...]:
    vectors = rng.normal(size=(count, 2, 4))
    a, b = np.moveaxis(vectors, 1, 0)
    aa, ab, bb = _dot(a, a), _dot(a, b), _dot(b, b)
    scale = np.maximum(1.0, np.maximum(np.abs(aa), np.abs(bb)))
    sa, sb = np.moveaxis(slash(vectors), 1, 0)
    square, pair = _times_slash(sa, a), _times_slash(sa, b) + _times_slash(sb, a)
    square[:, range(4), range(4)] -= aa[:, None]
    pair[:, range(4), range(4)] -= 2.0 * ab[:, None]
    return (np.maximum(np.max(np.abs(square), axis=(1, 2)), np.max(np.abs(pair), axis=(1, 2))) / scale,)


def _spinor_residuals(rng: np.random.Generator, count: int) -> tuple[np.ndarray, ...]:
    u = rng.random((count, 4))
    mass = _exp(2.0 * u[:, 0] - 1.0)  # log-uniform in [1/e, e)
    p3 = mass[:, None] * (4.0 * u[:, 1:] - 2.0)  # each component uniform in [-2m, 2m)
    momentum = np.concatenate([np.sqrt(mass**2 + _inner(p3, p3))[:, None], p3], axis=-1)
    pslash, m = slash(momentum), mass[:, None, None]
    psi = spinor(momentum, mass)
    # psi^dagger gamma^0, one row per spinor, in the C order _times_slash reads as (re, im) pairs.
    bar = np.ascontiguousarray(psi.swapaxes(1, 2).conj()) * GAMMA[0].diagonal()
    sign = np.array([1.0, 1.0, -1.0, -1.0])  # u+, u-, v+, v-
    # bar (pslash -+ m) = 0 is (pslash -+ m) psi = 0 conjugated, since gamma^0 gamma^mu^dagger gamma^0 = gamma^mu.
    dirac = np.abs(_times_slash(bar, momentum) - sign[:, None] * m * bar)
    norm = np.abs(_inner(bar, psi.swapaxes(1, 2)) - sign)
    outer = psi[:, :, None, :] * bar.swapaxes(1, 2)[:, None]  # [n, i, j, s]: psi_i psibar_j of spinor s
    projector = [np.abs(outer[..., k] + outer[..., k + 1] - (pslash + sign[k] * m * IDENTITY) / (2.0 * m))
                 for k in (0, 2)]
    return np.max(dirac, axis=(1, 2)) / mass, np.max(norm, axis=1), np.max(projector, axis=(0, 2, 3))


def _angular_law_residuals(rng: np.random.Generator, count: int) -> tuple[np.ndarray, ...]:
    e1 = _PHOTON_Z_BASIS[0]
    theta = rng.uniform(0.0, 2.0 * math.pi, size=count)
    ef = np.stack([np.zeros(count), np.cos(theta), np.sin(theta), np.zeros(count)], axis=-1)
    brute = _reduced_trace(_commutator(e1, ef), _PHOTON_Z, 1.0)  # ef is unit and transverse by construction
    return (np.abs(brute - closed_form_matrix_element(e1, ef, 1.0)) / 2.0,)


def _uniform_rotations(rng: np.random.Generator, count: int) -> np.ndarray:
    """Uniform rotations as (count, 3, 3) matrices whose row j is the image of axis j: a normal 4-vector's
    quaternion is a uniform rotation (Shoemake 1992; s = 2/|q|^2 normalizes it)."""
    w, x, y, z = rng.normal(size=(count, 4)).T
    s = 2.0 / (w * w + x * x + y * y + z * z)
    return np.stack([1.0 - s * (y * y + z * z), s * (x * y + w * z), s * (x * z - w * y),
                     s * (x * y - w * z), 1.0 - s * (x * x + z * z), s * (y * z + w * x),
                     s * (x * z + w * y), s * (y * z - w * x), 1.0 - s * (x * x + y * y)], axis=-1).reshape(count, 3, 3)


def _rotation_residuals(rng: np.random.Generator, count: int) -> tuple[np.ndarray, ...]:
    # The images of the +z basis and of k = (1, 0, 0, 1) are those of the x, y and z axes. They are not
    # checked again: a rotation keeps them unit, transverse and lightlike, and a wrong one fails the row.
    time_parts = np.broadcast_to([[0.0], [0.0], [1.0]], (count, 3, 1))
    rotated = np.concatenate([time_parts, _uniform_rotations(rng, count)], -1)
    e_i, e_f, k = np.moveaxis(rotated, 1, 0)
    value = _reduced_trace(_commutator(e_i, e_f), k, 1.0)
    return (np.abs(value - _seed_independent()[1]) / 2.0,)  # against the unrotated amplitude


def _polarization_sum_residuals(rng: np.random.Generator, count: int) -> tuple[np.ndarray, ...]:
    u = rng.random((count, 3))
    cos, phi = 2.0 * u[:, 0] - 1.0, 2.0 * math.pi * u[:, 1]  # an isotropic direction
    sin = np.sqrt(1.0 - cos**2)
    direction = np.stack([sin * np.cos(phi), sin * np.sin(phi), cos], axis=-1)
    energy = _exp(2.0 * u[:, 2:] - 1.0)  # log-uniform in [1/e, e)
    sum_one, sum_dot = polarization_sums(np.concatenate([energy, energy * direction], axis=-1))
    return np.abs(sum_one - 4.0), np.abs(sum_dot - 2.0)


def _basis_independence_residuals(rng: np.random.Generator, count: int) -> tuple[np.ndarray, ...]:
    b1, b2 = _PHOTON_Z_BASIS
    phi = rng.uniform(0.0, 2.0 * math.pi, size=count)[:, None]
    cos, sin = np.cos(phi), np.sin(phi)
    final = np.stack([cos * b1 + sin * b2, -sin * b1 + cos * b2], axis=-2)
    sum_one, sum_dot = polarization_sums(_PHOTON_Z, final_basis=final)
    return (np.maximum(np.abs(sum_one - 4.0), np.abs(sum_dot - 2.0)),)


@functools.cache
def _seed_independent() -> tuple[tuple[CheckRow, ...], float]:
    """The six rows no draw enters and the rotation reference amplitude, once per process."""
    gammas = np.stack(GAMMA)
    anti = gammas[:, None] @ gammas[None, :] + gammas[None, :] @ gammas[:, None]
    target = 2.0 * np.diag(METRIC_DIAGONAL)[:, :, None, None] * IDENTITY
    adjoint = gammas.conj().transpose(0, 2, 1)  # gamma^mu dagger = gamma_mu (gamma^i anti-hermitian)
    rows = (
        check_row("clifford-anticommutator", np.max(np.abs(anti - target)), 1e-14),
        check_row("gamma-hermiticity", np.max(np.abs(adjoint - _GAMMA_LOWERED)), 1e-14),
        check_row("phase-space-analytic", abs(phase_space_integral("analytic") - math.pi), 1e-15),
        check_row("phase-space-regularized", abs(phase_space_integral("regularized") - math.pi), 1e-6),
        check_row("cross-section-all-four", abs(cross_section_coefficient("all_four") - 2.0), 1e-8),
        check_row("cross-section-singlet", abs(cross_section_coefficient("singlet_only") - 8.0), 1e-8),
    )
    return rows, squared_matrix_element(*_PHOTON_Z_BASIS, _PHOTON_Z, 1.0)


def verification_suite(trials: int = 100, seed: int = 0) -> list[CheckRow]:
    """Full engine self-check: algebraic identities, spinor projectors, the
    angular law, rotation and basis independence, phase space, and the
    assembled coefficients. The randomized sections draw in turn from one
    generator, each in blocks of trials."""
    # (trials, residuals, tolerance, one row name per residual), in the order of the draws.
    sections = (
        (trials, _trace_identity_residuals, 1e-12,
         ["trace-pair-identity", "trace-quartet-identity", "trace-odd-vanishes"]),
        (trials, _slash_square_residuals, 1e-12, ["slash-clifford-square"]),
        (max(1, trials // 10), _spinor_residuals, 1e-12,
         ["spinor-dirac-equation", "spinor-normalization", "spin-sum-projectors"]),
        (trials, _angular_law_residuals, 1e-10, ["matrix-element-angular-law"]),
        (max(1, trials // 5), _rotation_residuals, 1e-10, ["matrix-element-rotation-invariance"]),
        (trials, _polarization_sum_residuals, 1e-12,
         ["polarization-sum-count", "polarization-sum-dot-squared"]),
        (max(1, trials // 5), _basis_independence_residuals, 1e-12, ["polarization-basis-independence"]),
    )
    fixed, rng = _seed_independent()[0], np.random.default_rng(seed)
    rows = list(fixed[:2])
    for count, residuals, tolerance, names in sections:
        worst = _worst_over_blocks(count, residuals, rng)
        rows += [check_row(name, value, tolerance) for name, value in zip(names, worst)]
    return rows + list(fixed[2:])
