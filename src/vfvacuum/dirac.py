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
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss

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

DEFAULT_REGULARIZATION_WIDTHS = (1e-2, 3e-3, 1e-3, 3e-4, 1e-4)

# Gauss-Legendre rule for the regularized phase-space integral over +-10 widths.
_GAUSS_NODES, _GAUSS_WEIGHTS = leggauss(64)

# Trials drawn and evaluated together by the verification suites, bounding their memory.
_BLOCK = 1024


@dataclass(frozen=True)
class FourVector:
    """Contravariant four-vector, metric signature (+,-,-,-)."""

    t: float
    x: float
    y: float
    z: float

    def dot(self, other: "FourVector") -> float:
        return float(_dot(self.as_array(), other.as_array()))

    def as_array(self) -> np.ndarray:
        return np.array([self.t, self.x, self.y, self.z])


VectorLike = FourVector | np.ndarray  # one FourVector, or (..., 4) components
Floats = float | np.ndarray  # one value, or a stack of them


@dataclass(frozen=True)
class DiracSpinor:
    components: np.ndarray  # 4 complex entries, or (..., 4) for (..., 4) momenta
    kind: str  # "u" | "v"
    momentum: VectorLike
    spin: str  # "+" | "-"

    def bar(self) -> np.ndarray:
        """Adjoint row spinor psi^dagger gamma^0."""
        return self.components.conj() @ GAMMA[0]


@dataclass(frozen=True)
class AnnihilationResult:
    species: str
    sigma_coefficient: float  # sigma * |v_rel| * m^2 / (pi alpha^2)
    gamma: float  # natural-unit rate (MeV)
    lifetime: float  # s


def _components(v: VectorLike) -> np.ndarray:
    return v.as_array() if isinstance(v, FourVector) else np.asarray(v, dtype=float)


def _float_or_array(x: np.ndarray) -> float | np.ndarray:
    return float(x) if np.ndim(x) == 0 else x


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Minkowski product over the last axis."""
    p = a * b
    return p[..., 0] - p[..., 1] - p[..., 2] - p[..., 3]


def _inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Plain inner product over the last axis, rounded as ``a @ b`` of two vectors."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _trace(m: np.ndarray) -> np.ndarray:
    """Trace over the last two axes, summed in the pairwise order ``np.trace`` uses on the complex
    stacks the engine traces, whose matrix axes are innermost; ``0.0 +`` gives its signed zeros."""
    return 0.0 + ((m[..., 0, 0] + m[..., 1, 1]) + (m[..., 2, 2] + m[..., 3, 3]))


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` for 4x4 matrices or stacks of them, as one matrix product when
    one side is a single matrix: a stacked ``@`` calls the BLAS once per matrix.
    Each entry is the same 4-term sum of products either way."""
    if a.ndim == 2 and b.ndim > 2:
        rows = b.swapaxes(0, -2)  # each matrix's row index first; the order of the rest is immaterial
        return (a @ rows.reshape(4, -1)).reshape(rows.shape).swapaxes(0, -2)
    if b.ndim == 2 and a.ndim > 2:
        return (a.reshape(-1, 4) @ b).reshape(a.shape)
    return a @ b


def slash(a: VectorLike) -> np.ndarray:
    """Contraction a_mu gamma^mu with index lowering by the metric: a 4x4
    matrix for one vector, a (..., 4, 4) stack for (..., 4) components."""
    v = _components(a)
    return (v @ _GAMMA_LOWERED.reshape(4, 16)).reshape(v.shape[:-1] + (4, 4))


def kinematic_check(electron_energy: float, photon_energy: float) -> str:
    """Single-photon annihilation kinematics for a pair at rest.

    The squared conservation constraint reduces to E^2 + E*w = 0, which a
    physical pair (E > 0) can never satisfy; only the transient-pair limit
    E -> 0 opens the channel.
    """
    if electron_energy < 0.0 or photon_energy < 0.0:
        raise ValueError("energies must be non-negative")
    constraint = electron_energy**2 + electron_energy * photon_energy
    return "allowed" if constraint == 0.0 else "forbidden"


def spinor(kind: str, momentum: VectorLike, spin: str, mass: float | np.ndarray) -> DiracSpinor:
    """Free-particle spinor with box normalization ubar u = 1, vbar v = -1; a
    stack of spinors for (..., 4) momenta with broadcastable masses."""
    if kind not in ("u", "v"):
        raise ValueError(f"spinor kind must be 'u' or 'v', got {kind!r}")
    if spin not in ("+", "-"):
        raise ValueError(f"spin label must be '+' or '-', got {spin!r}")
    if not np.all(mass > 0.0):
        raise ValueError("mass must be positive")
    four_momentum = _components(momentum)
    energy, p = four_momentum[..., 0], four_momentum[..., 1:]
    if np.any(np.abs(energy - np.sqrt(mass**2 + _inner(p, p))) >= 1e-9 * mass):
        raise ValueError("momentum is off shell for the given mass")
    column = 0 if spin == "+" else 1
    chi = np.broadcast_to(np.eye(2, dtype=complex)[column], p.shape[:-1] + (2,))
    small = np.tensordot(p, _SIGMA, axes=1)[..., column] / (energy + mass)[..., None]
    norm = np.sqrt((energy + mass) / (2.0 * mass))[..., None]
    components = norm * np.concatenate([chi, small] if kind == "u" else [small, chi], axis=-1)
    return DiracSpinor(components=components, kind=kind, momentum=momentum, spin=spin)


def spin_sum(kind: str, momentum: VectorLike, mass: float | np.ndarray) -> np.ndarray:
    """Outer-product sum over both spins, equal to (pslash +- m)/(2m); a
    (..., 4, 4) stack for (..., 4) momenta with broadcastable masses."""
    psis = [spinor(kind, momentum, s, mass) for s in ("+", "-")]
    return sum(psi.components[..., :, None] * psi.bar()[..., None, :] for psi in psis)


def _trace_identity_residuals(rng: np.random.Generator, count: int) -> tuple[np.ndarray, ...]:
    vectors = rng.normal(size=(count, 4, 4))
    a, b, c, d = np.moveaxis(vectors, 1, 0)
    scale = np.maximum(1.0, np.max(np.abs(_dot(vectors, vectors)), axis=-1))
    sa, sb, sc, sd = slash(a), slash(b), slash(c), slash(d)
    ab = sa @ sb
    abc = ab @ sc
    pair = np.abs(_trace(ab) - 4.0 * _dot(a, b)) / scale
    expected = 4.0 * (_dot(a, b) * _dot(c, d) - _dot(a, c) * _dot(b, d) + _dot(a, d) * _dot(b, c))
    quartet = np.abs(_trace(abc @ sd) - expected) / scale**2
    odd = np.maximum(np.abs(_trace(sa)) / scale, np.abs(_trace(abc)) / scale**1.5)
    return pair, quartet, odd


def _worst_over_blocks(count: int, residuals: Callable, rng: np.random.Generator) -> np.ndarray:
    """Largest value of each per-trial residual over ``count`` trials drawn and evaluated
    ``_BLOCK`` at a time; a NaN propagates. No trials runs one empty block, reading 0."""
    worst = 0.0
    for size in [min(_BLOCK, count - start) for start in range(0, count, _BLOCK)] or [0]:
        worst = np.maximum(worst, [np.max(r, initial=0.0) for r in residuals(rng, size)])
    return worst


def trace_identities_check(trials: int = 100, seed: int = 0) -> list[CheckRow]:
    """Verify the gamma-trace identities numerically on random four-vectors.

    Covers Tr(aslash bslash) = 4 a.b, the four-slash trace expansion, and the
    vanishing of odd products. Deviations are scaled by the magnitude of the
    vectors involved so the tolerances are scale-free.
    """
    names = ("trace-pair-identity", "trace-quartet-identity", "trace-odd-vanishes")
    worst = _worst_over_blocks(trials, _trace_identity_residuals, np.random.default_rng(seed))
    return [check_row(name, value, 1e-12) for name, value in zip(names, worst)]


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
    epsilon_i: VectorLike, epsilon_f: VectorLike, k_i: VectorLike, mass: Floats
) -> Floats:
    """Spin-summed reduced squared amplitude by brute-force matrix products.

    No symbolic simplification: the commutator structure, the photon slash,
    and the (pslash +- m) projectors are multiplied out entrywise and traced.
    FourVectors and a float mass give a float; (..., 4) component arrays and
    an array of masses, all broadcasting against each other's leading axes,
    give an array. A mass and photon energy for which 16 m^4 w^2 is not a
    normal float raise ValueError.
    """
    m = np.asarray(mass)[..., None]
    if not (m > 0.0).all():  # NaN fails too
        raise ValueError("mass must be positive")
    e_i, e_f, k = _components(epsilon_i), _components(epsilon_f), _components(k_i)
    _require_lightlike(k)
    denominator = _normal_denominator(mass, k[..., 0])
    _require_polarization(e_i, k, "initial polarization")
    _require_polarization(e_f, k, "final polarization")

    rest, m = slash(m * _PAIR_AT_REST), m[..., None]
    ei, ef, ks = slash(e_i), slash(e_f), slash(k)
    commutator = _matmul(ei, ef) - _matmul(ef, ei)
    reversed_commutator = -commutator
    # Multiplied left to right, as the trace reads.
    chain = (rest - m * IDENTITY, commutator, ks, rest + m * IDENTITY, ks, reversed_commutator)
    trace = _trace(functools.reduce(_matmul, chain))
    non_real = np.abs(trace.imag) > 1e-10 * np.maximum(1.0, np.abs(trace.real))
    if non_real.any():
        raise RuntimeError(f"squared amplitude trace has a non-real part: {trace[non_real][0]}")
    return _float_or_array(trace.real / denominator)


def closed_form_matrix_element(
    epsilon_i: VectorLike, epsilon_f: VectorLike, mass: float
) -> float | np.ndarray:
    """Closed form of the reduced squared amplitude, (2/m^2)(1 - (ei.ef)^2)."""
    overlap = _dot(_components(epsilon_i), _components(epsilon_f))
    return _float_or_array((2.0 / mass**2) * (1.0 - overlap**2))


def transverse_polarization_basis(k: VectorLike) -> tuple[FourVector, FourVector] | np.ndarray:
    """Two orthonormal spacelike polarization vectors transverse to k: a pair
    of FourVectors for a FourVector, a (..., 2, 4) array for (..., 4) momenta."""
    k_array = _components(k)
    _require_lightlike(k_array)
    k3 = k_array[..., 1:]
    khat = k3 / np.sqrt(_inner(k3, k3))[..., None]
    trial = np.eye(3)[np.argmin(np.abs(khat), axis=-1)]
    e1 = trial - _inner(trial, khat)[..., None] * khat
    e1 = e1 / np.sqrt(_inner(e1, e1))[..., None]
    (a1, a2, a3), (b1, b2, b3) = np.moveaxis(khat, -1, 0), np.moveaxis(e1, -1, 0)
    e2 = np.stack([a2 * b3 - a3 * b2, a3 * b1 - a1 * b3, a1 * b2 - a2 * b1], axis=-1)  # khat x e1
    if isinstance(k, FourVector):
        return FourVector(0.0, *e1), FourVector(0.0, *e2)
    return np.concatenate([np.zeros(e1.shape[:-1] + (2, 1)), np.stack([e1, e2], axis=-2)], axis=-1)


_PHOTON_Z = np.array([1.0, 0.0, 0.0, 1.0])  # k along z for a unit mass
_PAIR_AT_REST = np.array([1.0, 0.0, 0.0, 0.0])  # p_+ = p_- for a unit mass

# The transverse basis of a photon along +z, and its four (initial, final) pairs in pair order.
# Both hold at every energy w whose square neither over- nor underflows, since then
# sqrt(fl(w * w)) == w and the basis is exactly (0, 1, 0, 0), (0, 0, 1, 0).
_PHOTON_Z_BASIS = transverse_polarization_basis(_PHOTON_Z)
_PHOTON_Z_PAIRS = _PHOTON_Z_BASIS[np.array([[0, 0, 1, 1], [0, 1, 0, 1]])]
_PHOTON_Z_BASIS.flags.writeable = False
_PHOTON_Z_PAIRS.flags.writeable = False


def polarization_sums(
    k_i: VectorLike,
    initial_basis: Sequence[FourVector] | np.ndarray | None = None,
    final_basis: Sequence[FourVector] | np.ndarray | None = None,
) -> tuple[float, float | np.ndarray]:
    """Sums over initial/final polarization pairs for a final photon with the
    same momentum as the initial one: sum of 1 and sum of (eps_i . eps_f)^2.
    Batched with (..., 4) momenta and (..., 2, 4) bases."""
    k = _components(k_i)
    _require_lightlike(k)
    default = transverse_polarization_basis(k) if initial_basis is None or final_basis is None else None
    bases = []
    for label, basis in (("initial", initial_basis), ("final", final_basis)):
        if basis is None:
            basis = default
        elif not isinstance(basis, np.ndarray):
            basis = np.array([_components(eps) for eps in basis]).reshape(-1, 4)
        if basis.shape[-2] != 2:
            raise ValueError(f"{label} polarization basis must contain two vectors")
        _require_polarization(basis, k[..., None, :], f"{label} polarization")
        bases.append(basis)
    squares = _dot(bases[0][..., :, None, :], bases[1][..., None, :, :]) ** 2
    sum_dot_squared = sum(squares[..., i, f] for i in (0, 1) for f in (0, 1))  # in pair order
    return float(bases[0].shape[-2] * bases[1].shape[-2]), _float_or_array(sum_dot_squared)


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


def phase_space_width_study(
    widths: Sequence[float] = DEFAULT_REGULARIZATION_WIDTHS, photon_energy: float = 1.0
) -> list[tuple[float, float]]:
    """Regularized phase-space values for each relative delta width."""
    if not widths:
        raise ValueError("at least one regularization width is required")
    w = photon_energy
    results = []
    for relative_width in widths:
        width = relative_width * w
        norm = 1.0 / (width * math.sqrt(2.0 * math.pi))
        lower = max(0.0, w - 10.0 * width)
        upper = w + 10.0 * width
        half = 0.5 * (upper - lower)
        kk = half * _GAUSS_NODES + 0.5 * (upper + lower)
        integrand = 4.0 * math.pi * kk**2 / (4.0 * w**2) * norm * np.exp(-0.5 * ((kk - w) / width) ** 2)
        results.append((relative_width, float(half * (_GAUSS_WEIGHTS @ integrand))))
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
    if photon_energy is None:
        photon_energy = mass
    k = np.multiply.outer(photon_energy, _PHOTON_Z)
    # All four basis pairs of every mass in one call; the pair axis leads, so sum() adds in pair order.
    pairs = _PHOTON_Z_PAIRS.reshape(2, 4, *[1] * max(np.ndim(mass), np.ndim(photon_energy)), 4)
    element_sum = sum(squared_matrix_element(*pairs, k, mass))
    # 1/2 averages the initial polarization; the leftover photon-coupling and
    # wavenumber-measure factors reduce to 4/pi against the pi alpha^2 / m^2
    # normalization of the quoted cross section.
    factor = spin_factor * 0.5 * element_sum * 4.0 * phase_space_integral("analytic")
    return _float_or_array(factor * np.float_power(mass, 2) / math.pi)


def wavefunction_at_origin(mass: float, alpha: float) -> float:
    """Squared ground-state wave function of the bound pair at zero
    separation, (1/pi) (alpha m / 2)^3 in natural units."""
    if not (mass > 0.0) or alpha < 0.0:
        raise ValueError("mass must be positive and alpha non-negative")
    return (alpha * mass / 2.0) ** 3 / math.pi


def decay_rate(
    species: LeptonSpecies | tuple[LeptonSpecies, ...], constants: ConstantsSet
) -> AnnihilationResult | tuple[AnnihilationResult, ...]:
    """Single-photon decay rate of the photon-excited pair, end to end: one
    result for one species, a tuple of results in the same order for a tuple
    of species, whose engine work runs as one batched pass.

    The relative-velocity flux divides the cross section and multiplies the
    collision rate, so it is cancelled algebraically before any number is
    evaluated; the result equals alpha^5 * m in natural units.
    """
    batch = isinstance(species, tuple)
    group = species if batch else (species,)
    masses = [constants.to_natural(entry.mass, "mass") for entry in group]
    coefficients = cross_section_coefficient("singlet_only", mass=np.array(masses) if batch else masses[0])
    results = []
    for entry, mass, coefficient in zip(group, masses, coefficients.tolist() if batch else [coefficients]):
        sigma_times_velocity = coefficient * math.pi * constants.alpha**2 / mass**2
        gamma_natural = sigma_times_velocity * wavefunction_at_origin(mass, constants.alpha)
        rate_si = constants.from_natural(gamma_natural, "rate")
        results.append(AnnihilationResult(entry.name, coefficient, gamma_natural, lifetime=1.0 / rate_si))
    return tuple(results) if batch else results[0]


def two_photon_rate_natural(decay: AnnihilationResult) -> float:
    """Two-photon annihilation rate of the ordinary (non-transient) singlet
    pair: half the single-photon rate ``decay`` of the photon-excited
    transient pair (a ``decay_rate`` result)."""
    return decay.gamma / 2.0


def _slash_square_residuals(rng: np.random.Generator, count: int) -> tuple[np.ndarray, ...]:
    a, b = np.moveaxis(rng.normal(size=(count, 2, 4)), 1, 0)
    aa, ab, bb = _dot(a, a), _dot(a, b), _dot(b, b)
    scale = np.maximum(1.0, np.maximum(np.abs(aa), np.abs(bb)))
    sa, sb = slash(a), slash(b)
    square = sa @ sa - aa[:, None, None] * IDENTITY
    pair = sa @ sb + sb @ sa - 2.0 * ab[:, None, None] * IDENTITY
    return (np.max(np.abs(np.concatenate([square, pair], axis=-1)), axis=(1, 2)) / scale,)


def _spinor_residuals(rng: np.random.Generator, count: int) -> tuple[np.ndarray, ...]:
    normal, random = rng.standard_normal, rng.random
    draws = [(math.exp(-1.0 + 2.0 * random()), normal(3)) for _ in range(count)]
    mass = np.array([draw[0] for draw in draws])
    p3 = np.array([draw[1] for draw in draws]).reshape(count, 3) * mass[:, None]
    momentum = np.concatenate([np.sqrt(mass**2 + _inner(p3, p3))[:, None], p3], axis=-1)
    pslash, m = slash(momentum), mass[:, None, None]
    dirac, norm, projector = [], [], []
    for kind, sign in (("u", 1.0), ("v", -1.0)):
        for spin_label in ("+", "-"):
            psi = spinor(kind, momentum, spin_label, mass)
            residual = ((pslash - sign * m * IDENTITY) @ psi.components[..., None])[..., 0]
            dirac.append(np.max(np.abs(residual), axis=-1) / mass)
            norm.append(np.abs(_inner(psi.bar(), psi.components) - sign))
        deviation = spin_sum(kind, momentum, mass) - (pslash + sign * m * IDENTITY) / (2.0 * m)
        projector.append(np.max(np.abs(deviation), axis=(1, 2)))
    return np.max(dirac, axis=0), np.max(norm, axis=0), np.max(projector, axis=0)


def _angular_law_residuals(rng: np.random.Generator, count: int) -> tuple[np.ndarray, ...]:
    e1 = _PHOTON_Z_BASIS[0]
    theta = rng.uniform(0.0, 2.0 * math.pi, size=count)
    ef = np.stack([np.zeros(count), np.cos(theta), np.sin(theta), np.zeros(count)], axis=-1)
    brute = squared_matrix_element(e1, ef, _PHOTON_Z, 1.0)
    return (np.abs(brute - closed_form_matrix_element(e1, ef, 1.0)) / 2.0,)


def _rotation_residuals(rng: np.random.Generator, count: int) -> tuple[np.ndarray, ...]:
    e1, e2 = _PHOTON_Z_BASIS
    reference = squared_matrix_element(e1, e2, _PHOTON_Z, 1.0)
    q, r = np.linalg.qr(rng.normal(size=(count, 3, 3)))
    rotation = q * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[:, None, :]
    rotation[:, :, 0] *= np.where(np.linalg.det(rotation) < 0, -1.0, 1.0)[:, None]  # proper rotations
    rotated = [np.concatenate([np.full((count, 1), v[0]), rotation @ v[1:]], axis=-1)
               for v in (e1, e2, _PHOTON_Z)]
    value = squared_matrix_element(*rotated, 1.0)
    return (np.abs(value - reference) / 2.0,)


def _polarization_sum_residuals(rng: np.random.Generator, count: int) -> tuple[np.ndarray, ...]:
    normal, random = rng.standard_normal, rng.random
    draws = [(normal(3), math.exp(-1.0 + 2.0 * random())) for _ in range(count)]
    direction = np.array([d for d, _ in draws]).reshape(count, 3)
    direction = direction / np.sqrt(_inner(direction, direction))[:, None]
    energy = np.array([e for _, e in draws])[:, None]
    sum_one, sum_dot = polarization_sums(np.concatenate([energy, energy * direction], axis=-1))
    return np.abs(sum_one - 4.0), np.abs(sum_dot - 2.0)


def _basis_independence_residuals(rng: np.random.Generator, count: int) -> tuple[np.ndarray, ...]:
    b1, b2 = _PHOTON_Z_BASIS
    phi = rng.uniform(0.0, 2.0 * math.pi, size=count)[:, None]
    cos, sin = np.cos(phi), np.sin(phi)
    final = np.stack([cos * b1 + sin * b2, -sin * b1 + cos * b2], axis=-2)
    sum_one, sum_dot = polarization_sums(_PHOTON_Z, final_basis=final)
    return (np.maximum(np.abs(sum_one - 4.0), np.abs(sum_dot - 2.0)),)


def verification_suite(trials: int = 100, seed: int = 0) -> list[CheckRow]:
    """Full engine self-check: algebraic identities, spinor projectors, the
    angular law, rotation and basis independence, phase space, and the
    assembled coefficients. Randomized sections run in blocks of trials."""
    gammas = np.stack(GAMMA)
    anti = gammas[:, None] @ gammas[None, :] + gammas[None, :] @ gammas[:, None]
    target = 2.0 * np.diag(METRIC_DIAGONAL)[:, :, None, None] * IDENTITY
    adjoint = gammas.conj().transpose(0, 2, 1)  # gamma^mu dagger = gamma_mu (gamma^i anti-hermitian)
    rows = [
        check_row("clifford-anticommutator", np.max(np.abs(anti - target)), 1e-14),
        check_row("gamma-hermiticity", np.max(np.abs(adjoint - _GAMMA_LOWERED)), 1e-14),
        *trace_identities_check(trials=trials, seed=seed),
    ]

    # (trials, residuals, tolerance, one row name per residual), in the order of the draws.
    sections = (
        (trials, _slash_square_residuals, 1e-12, ["slash-clifford-square"]),
        (max(1, trials // 10), _spinor_residuals, 1e-12,
         ["spinor-dirac-equation", "spinor-normalization", "spin-sum-projectors"]),
        (trials, _angular_law_residuals, 1e-10, ["matrix-element-angular-law"]),
        (max(1, trials // 5), _rotation_residuals, 1e-10, ["matrix-element-rotation-invariance"]),
        (trials, _polarization_sum_residuals, 1e-12,
         ["polarization-sum-count", "polarization-sum-dot-squared"]),
        (max(1, trials // 5), _basis_independence_residuals, 1e-12, ["polarization-basis-independence"]),
    )
    # A child stream of the seed, so these sections never reuse the trace-identity draws.
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    for count, residuals, tolerance, names in sections:
        worst = _worst_over_blocks(count, residuals, rng)
        rows += [check_row(name, value, tolerance) for name, value in zip(names, worst)]

    rows += [
        check_row("phase-space-analytic", abs(phase_space_integral("analytic") - math.pi), 1e-15),
        check_row("phase-space-regularized", abs(phase_space_integral("regularized") - math.pi), 1e-6),
        check_row("cross-section-all-four", abs(cross_section_coefficient("all_four") - 2.0), 1e-8),
        check_row("cross-section-singlet", abs(cross_section_coefficient("singlet_only") - 8.0), 1e-8),
    ]
    return rows
