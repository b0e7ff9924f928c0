"""Continuous-variable teleportation of a single-mode Gaussian signal
through a TMSV resource degraded by absorbing fibers.

Pipeline: assemble signal + degraded TMSV, mix signal and near arm on a
symmetric beamsplitter, homodyne the two outputs, read off the receiver
covariance, the classical-record gain, the outcome density and the
fidelity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channels import IDEAL_FIBER, FiberParams, degraded_tmsv
from .measurement import OutcomeDensity, _quadratic_columns, homodyne_project
from .states import GaussianState
from .symplectic import (
    _SIGMA_1,
    _block_diag,
    _check_finite,
    _check_matrix,
    _check_physical,
    _check_squeezing,
    _check_vector,
    _own,
    beamsplitter,
    build_symplectic,
    rotation_matrix,
)

# The 50:50 beamsplitter that mixes the signal (mode 0) with the near arm (mode 1).
_MIX = build_symplectic([beamsplitter(0, 1)], 3)
_MIX.setflags(write=False)
# past it cosh(2 zeta)^2, which the closed form forms, overflows
_ZETA_MAX = math.acosh(math.sqrt(np.finfo(float).max)) / 2.0  # ~177.79


@dataclass(frozen=True)
class TeleportSetup:
    """Signal covariance [[x, z], [z, y]], resource squeezing and fibers.

    ``kappa_in`` is the signal's phase-space mean; it only matters for the
    outcome density and Monte-Carlo round trips, never for gamma_rec.
    Checked and copied read-only when built: ValueError unless gamma_in is a finite, physical 2x2 matrix,
    kappa_in a finite vector of length 2 and |zeta| <= _ZETA_MAX ~ 177.79, past which cosh(2 zeta)^2 overflows.
    """

    gamma_in: np.ndarray
    zeta: float
    f1: FiberParams = IDEAL_FIBER
    f2: FiberParams = IDEAL_FIBER
    kappa_in: np.ndarray = field(default_factory=lambda: np.zeros(2))

    def __post_init__(self):
        gamma = _check_matrix(self.gamma_in, "signal covariance", 2)
        kappa = _check_vector(self.kappa_in, "signal mean", 2)
        _check_physical(gamma, "signal covariance")
        _check_squeezing("zeta", self.zeta, _ZETA_MAX, "cosh(2 zeta)^2")
        _own(self, gamma_in=gamma, kappa_in=kappa)


@dataclass(frozen=True)
class TeleportResult:
    """gamma_rec is outcome independent; gain maps the record
    (X_x0, -X_p1), scaled as described in the measurement module, to the
    receiver displacement."""

    gamma_rec: np.ndarray
    gain: np.ndarray
    density: OutcomeDensity
    fidelity_zero_mean: float


def _gamma_rec_explicit(gamma_in: np.ndarray, zeta: float, f1: FiberParams, f2: FiberParams) -> np.ndarray:
    """Receiver covariance in closed form.

    Algebraically identical to the direct Schur complement, but arranged so
    that the hyperbolic identities cosh^2 - sinh^2 = 1 and
    |T1|^2 |T2|^2 = beta^2 are substituted symbolically.  The direct form
    subtracts two terms that both grow like cosh(2 zeta)^2 and loses all
    precision long before zeta = 20; every term below is non-negative.
    ValueError where a product overflows, which the zeta range alone does
    not rule out.  The terms are Python floats, which overflow to inf without
    a warning, and an inf leaves delta or a result non-finite.  ValueError
    too where delta = det(gamma_in) + a (x + y) + a^2 >= 1, formed by
    subtraction, rounds to 0 or below, as for a squeezed signal at eta = 40.
    """
    c = math.cosh(2.0 * zeta)
    s = math.sinh(2.0 * zeta)
    t1, t2 = float(f1.t_mag), float(f2.t_mag)
    alpha1, alpha2, beta = t1**2, t2**2, t1 * t2
    g1, g2 = float(f1.noise), float(f2.noise)
    a = c * alpha1 + g1
    b = c * alpha2 + g2

    x, z, _, y = gamma_in.ravel().tolist()
    det_in = x * y - z * z
    delta = (x + a) * (y + a) - z * z
    if math.isfinite(delta) and not delta > 0.0:
        raise ValueError(f"the closed-form receiver covariance's denominator rounds to {delta!r} at zeta = {zeta!r}")

    # P = a*b - s^2 beta^2 with the growing parts cancelled exactly
    p_term = c * (alpha2 * g1 + alpha1 * g2) + g1 * g2 + beta**2

    rot = rotation_matrix(f1.phase + f2.phase)
    xt, zt, _, yt = (rot @ gamma_in @ rot.T).ravel().tolist()

    ba = b * a
    e11 = (a * p_term + b * det_in + ba * xt + p_term * yt) / delta
    e22 = (a * p_term + b * det_in + ba * yt + p_term * xt) / delta
    e12 = (s * beta) ** 2 * zt / delta
    if not all(map(math.isfinite, (delta, e11, e22, e12))):
        raise ValueError(f"the closed-form receiver covariance overflows at zeta = {zeta!r}")
    return np.array([[e11, e12], [e12, e22]])


def teleport(setup: TeleportSetup) -> TeleportResult:
    """Run the full protocol and return the receiver-side summary.

    The receiver covariance is computed twice, from the closed form and
    from the generic homodyne machinery, and the two must agree, NaN
    failing, to a tolerance scaled by the magnitude of the mixed covariance
    matrix: the generic Schur complement loses absolute precision for
    strongly squeezed resources.  ValueError where the closed form overflows
    inside the setup's zeta range, as for a squeezed signal near its end, or
    its denominator rounds to 0 or below, as for a squeezed signal at eta = 40.
    """
    gamma_dec = degraded_tmsv(setup.zeta, setup.f1, setup.f2)
    gamma_012 = _MIX @ _block_diag(setup.gamma_in, gamma_dec) @ _MIX.T
    kappa_012 = _MIX @ np.concatenate([setup.kappa_in, np.zeros(4)])

    hom = homodyne_project(gamma_012, measured=(0, 3), kappa=kappa_012)
    gamma_explicit = _gamma_rec_explicit(setup.gamma_in, setup.zeta, setup.f1, setup.f2)

    scale = max(1.0, float(np.max(np.abs(gamma_012))))
    if not np.max(np.abs(gamma_explicit - hom.gamma_out)) <= 1e-10 * scale:
        raise RuntimeError("closed-form and Schur-complement receiver covariances disagree")

    fidelity_zero_mean = _overlap_prefactor(setup.gamma_in + gamma_explicit)
    return TeleportResult(gamma_explicit, hom.mean_map, hom.density, fidelity_zero_mean)


def _overlap_prefactor(total: np.ndarray) -> float:
    """2^N / sqrt(det(total)), the zero-mean Gaussian overlap for the
    covariance sum ``total`` = Ga + Gb."""
    det = np.linalg.det(total)
    if det <= 0:
        raise ValueError("covariance sum has non-positive determinant")
    return 2.0 ** (total.shape[0] // 2) / math.sqrt(det)


def fidelity(gamma_in, gamma_rec) -> float:
    """Overlap fidelity of two zero-mean single-mode Gaussians,
    F = 2 / sqrt(det(gamma_in + gamma_rec)); the N = 1, zero-mean case of
    :func:`state_overlap`.  ValueError unless both, and their sum, are finite
    2x2 matrices."""
    total = _check_matrix(gamma_in, "gamma_in", 2) + _check_matrix(gamma_rec, "gamma_rec", 2)
    return float(_overlap_prefactor(_check_finite(total, "covariance sum")))


def state_overlap(state_a: GaussianState, state_b: GaussianState) -> float:
    """Mean-aware overlap of N-mode Gaussian states,
    2^N / sqrt(det(Ga + Gb)) * exp(-d^T (Ga + Gb)^-1 d) with d = ka - kb."""
    if state_a.n_modes != state_b.n_modes:
        raise ValueError("states must have the same mode count")
    total, delta = state_a.gamma + state_b.gamma, (state_a.kappa - state_b.kappa)[:, np.newaxis]
    return float(_overlap_prefactor(total) * np.exp(-_quadratic_columns(delta, np.linalg.inv(total)))[0])


def pure_squeezed_fidelity(eta: float, zeta: float) -> float:
    """Closed-form teleportation fidelity of a pure squeezed signal
    through an undegraded TMSV:
    F = sqrt(1 - sinh^2(eta) / (cosh(eta) + cosh(2 zeta))^2).  ValueError
    where sinh(eta) or cosh(eta) + cosh(2 zeta) overflows, as at eta = 800,
    zeta = 400 or (eta, zeta) = (710, 355), or is NaN."""
    try:
        sinh, total = math.sinh(eta), math.cosh(eta) + math.cosh(2.0 * zeta)
    except OverflowError:
        sinh = total = math.inf
    if not (math.isfinite(sinh) and math.isfinite(total)):  # NaN and inf arguments too
        raise ValueError(
            f"sinh(eta) or cosh(eta) + cosh(2 zeta) overflows or is NaN at eta = {eta!r}, zeta = {zeta!r}"
        )
    ratio = sinh / total
    return math.sqrt(1.0 - ratio * ratio)


def ideal_displacement_gain(f1: FiberParams, f2: FiberParams) -> np.ndarray:
    """Record-to-displacement gain in the infinite-squeezing limit:
    Sigma * |T2/T1| * R(phi1 + phi2); exactly Sigma for ideal fibers."""
    if f1.t_mag == 0.0:
        raise ValueError("gain undefined for |T1| = 0 (dead signal arm)")
    return _SIGMA_1 * (f2.t_mag / f1.t_mag) @ rotation_matrix(f1.phase + f2.phase)


def teleport_monte_carlo(
    setup: TeleportSetup,
    n_samples: int,
    seed: int,
    gain: np.ndarray | None = None,
) -> float:
    """Mean fidelity over sampled homodyne records, displacement included.

    For each record the receiver applies ``gain`` (default: the
    finite-squeezing matched gain from :func:`teleport`); the fidelity is
    the mean-aware overlap with the input state.  Using the
    infinite-squeezing gain at finite squeezing leaves a record-dependent
    residual displacement and therefore an extra fidelity penalty, which
    this estimator quantifies.

    The records share the receiver covariance and are evaluated as one batch, component-major
    as ``OutcomeDensity.sample`` forms them: with the matched gain G, a record w's mean difference
    is kappa_in + sqrt(2) G mean - M w, M = sqrt(2) (G - gain) diag(signs), zero for G itself, and
    its overlap ``fidelity_zero_mean`` * exp(-quadratic form of :func:`state_overlap`).  ``n_samples``
    must be a positive integer and ``gain`` a finite 2x2 matrix, else ``ValueError``; ValueError as in teleport.
    """
    if isinstance(n_samples, bool) or not isinstance(n_samples, (int, np.integer)) or n_samples < 1:
        raise ValueError(f"n_samples must be a positive integer, got {n_samples!r}")
    if gain is not None:
        gain = _check_matrix(gain, "gain", 2, even=False)
    result = teleport(setup)
    chosen = result.gain if gain is None else gain
    record_map = math.sqrt(2.0) * (result.gain - chosen) * result.density.signs
    offset = setup.kappa_in + math.sqrt(2.0) * (result.gain @ result.density.mean)
    deltas = offset[:, np.newaxis] - record_map @ result.density.sample(np.random.default_rng(seed), n_samples).T
    exponents = _quadratic_columns(deltas, np.linalg.inv(setup.gamma_in + result.gamma_rec))
    return float(np.mean(result.fidelity_zero_mean * np.exp(-exponents)))
