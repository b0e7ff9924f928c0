"""Separability and entanglement of two-mode Gaussian states, plus the
closed forms for TMSV degradation in absorbing fibers."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import _check_fiber, _check_length
from .states import _check_occupation
from .symplectic import _SIGMA_1, DEFAULT_TOL, symplectic_eigenvalues, validate_covariance

_PT = np.diag([1.0, 1.0, 1.0, -1.0])

_LN2 = math.log(2.0)


def _check_base(base) -> str:
    """The log base, which must be the string "e" or "2"."""
    if base in ("e", "2"):
        return base
    raise ValueError(f'log base must be "e" or "2", got {base!r}')


def _to_base(nats: float, base) -> float:
    """Convert a natural logarithm to ``base`` ("e" or "2")."""
    return nats / _LN2 if _check_base(base) == "2" else nats


def _check_squeezing(zeta) -> None:
    if not zeta >= 0.0:
        raise ValueError(f"squeezing zeta must be non-negative, got {zeta!r}")


def _as_two_mode(gamma) -> np.ndarray:
    gamma = np.asarray(gamma, dtype=float)
    if gamma.shape != (4, 4):
        raise ValueError("expected a 4x4 two-mode covariance matrix")
    return gamma


def _physical_two_mode(gamma):
    """The 4x4 covariance, once it passes the physicality check, and the
    determinants of its blocks C1, C2 and C3; else ValueError."""
    gamma = _as_two_mode(gamma)
    if not validate_covariance(gamma).physical:
        raise ValueError("covariance matrix is unphysical")
    det1, det2, det3 = (np.linalg.det(b) for b in (gamma[:2, :2], gamma[2:, 2:], gamma[:2, 2:]))
    return gamma, det1, det2, det3


def partial_transpose(gamma) -> np.ndarray:
    """Flip the sign of the second mode's momentum row and column."""
    gamma = _as_two_mode(gamma)
    return _PT @ gamma @ _PT.T


@dataclass(frozen=True)
class SeparabilityVerdict:
    """Outcome of the two equivalent separability tests.

    ``lhs >= rhs`` is the determinant-form criterion; ``pt_min_eig`` is the
    smallest eigenvalue of gamma^PT + i Sigma.  Both must agree outside the
    boundary band _BORDERLINE_BAND, otherwise an internal-consistency error
    is raised; a disagreement inside the band counts as separable.
    """

    separable: bool
    lhs: float
    rhs: float
    pt_min_eig: float


_BORDERLINE_BAND = 1e-8  # relative width of the boundary band of is_separable


def is_separable(gamma) -> SeparabilityVerdict:
    gamma, det1, det2, det3 = _physical_two_mode(gamma)
    c1, c2, c3 = gamma[:2, :2], gamma[2:, 2:], gamma[:2, 2:]
    trace_term = np.trace(c1 @ _SIGMA_1 @ c3 @ _SIGMA_1 @ c2 @ _SIGMA_1 @ c3.T @ _SIGMA_1)
    lhs = float(det1 * det2 + (1.0 - abs(det3)) ** 2 - trace_term)
    rhs = float(det1 + det2)

    pt_min = validate_covariance(partial_transpose(gamma)).min_eigenvalue

    scale = max(1.0, abs(lhs), abs(rhs))
    crit_margin = (lhs - rhs) / scale
    crit_sep = crit_margin >= -_BORDERLINE_BAND
    pt_sep = pt_min >= -DEFAULT_TOL

    if crit_sep != pt_sep:
        if abs(crit_margin) <= _BORDERLINE_BAND or abs(pt_min) <= _BORDERLINE_BAND:
            # borderline state: the boundary counts as separable
            return SeparabilityVerdict(True, lhs, rhs, pt_min)
        raise RuntimeError(
            "separability criterion and partial-transpose test disagree "
            f"(margin {crit_margin:.3e}, PT min eigenvalue {pt_min:.3e})"
        )
    return SeparabilityVerdict(bool(crit_sep), lhs, rhs, pt_min)


@dataclass(frozen=True)
class NegativityReport:
    f_value: float
    e_n: float
    log_base: str


def log_negativity(gamma, base="e") -> NegativityReport:
    """Logarithmic negativity of a two-mode covariance matrix.

    The closed form

        f(gamma) = sqrt(A - sqrt(A^2 - det gamma)),
        A = (det C1 + det C2)/2 - det C3,

    is evaluated in the cancellation-free arrangement
    f^2 = det gamma / (A + sqrt(A^2 - det gamma)) and cross-checked against
    the smallest symplectic eigenvalue of the partial transpose; the two
    backends must agree to DEFAULT_TOL (relatively, once E_N grows large).
    """
    base = _check_base(base)
    gamma, det1, det2, det3 = _physical_two_mode(gamma)
    det_g = np.linalg.det(gamma)
    a_half = 0.5 * (det1 + det2) - det3
    disc = a_half**2 - det_g
    if disc < 0.0:
        if disc < -DEFAULT_TOL * max(1.0, a_half**2):
            raise ValueError("negative discriminant: inconsistent covariance data")
        disc = 0.0
    denom = a_half + math.sqrt(disc)
    f_sq = max(det_g, 0.0) / denom if denom > 0.0 else 0.0
    f_closed = math.sqrt(max(f_sq, 0.0))

    nu_min = float(symplectic_eigenvalues(partial_transpose(gamma))[0])
    f_backend = nu_min

    e_closed = -math.log(f_closed) if 0.0 < f_closed < 1.0 else (math.inf if f_closed == 0.0 else 0.0)
    e_backend = -math.log(f_backend) if 0.0 < f_backend < 1.0 else (math.inf if f_backend == 0.0 else 0.0)
    both_deep = f_closed < 1e-8 and f_backend < 1e-8
    if not both_deep:
        limit = DEFAULT_TOL * max(1.0, min(e_closed, e_backend))
        if abs(e_closed - e_backend) > limit:
            raise RuntimeError(
                "closed-form and symplectic-spectrum log-negativities disagree: "
                f"{e_closed!r} vs {e_backend!r} (f = {f_closed!r}, nu = {f_backend!r})"
            )

    e_n = 0.0 if e_closed <= 0.0 else _to_base(e_closed, base)
    return NegativityReport(f_value=f_closed, e_n=float(e_n), log_base=base)


def fiber_separability_threshold(zeta: float, t_mag: float, r_mag: float = 0.0) -> float:
    """Thermal occupation at which the degraded TMSV turns separable.

    n_crit = |T|^2 (1 - e^(-2 zeta)) / (2 (1 - |R|^2 - |T|^2)).  Without
    absorption (|T|^2 + |R|^2 = 1) the threshold is infinite: entanglement
    survives any zero-temperature fiber, so math.inf is returned.

    Raises ValueError for zeta < 0 and for fiber magnitudes that
    ``FiberParams`` rejects.
    """
    _check_squeezing(zeta)
    _check_fiber(t_mag, r_mag)
    absorption = 1.0 - t_mag**2 - r_mag**2
    if zeta == 0.0:
        return 0.0
    if absorption <= 0.0:
        return math.inf
    return t_mag**2 * (-math.expm1(-2.0 * zeta)) / (2.0 * absorption)


def separability_length(zeta: float, n_th: float, l_abs: float) -> float:
    """Fiber length (Lambert-Beer, R = 0) at which the TMSV turns separable.

    l_S = (l_abs/2) ln[1 + (1 - e^(-2 zeta)) / (2 n_th)]; diverges for
    n_th -> 0, in which case math.inf is returned.  Raises ValueError for
    zeta < 0, n_th < 0 or infinite, or l_abs <= 0, NaN included.
    """
    _check_squeezing(zeta)
    _check_occupation(n_th)
    _check_length(l_abs)
    if zeta == 0.0:
        return 0.0
    if n_th == 0.0:
        return math.inf
    return 0.5 * l_abs * math.log1p(-math.expm1(-2.0 * zeta) / (2.0 * n_th))


def transmitted_log_negativity(zeta: float, t_mag: float, base="e") -> float:
    """Log-negativity of a TMSV after two zero-temperature fibers.

    E_N = -log[1 - |T|^2 (1 - e^(-2 zeta))], independent of the reflection
    coefficient.  Perfect transmission recovers E_N = 2 zeta in natural log.
    Raises ValueError for zeta < 0 or |T| outside [0, 1].
    """
    base = _check_base(base)
    _check_squeezing(zeta)
    _check_fiber(t_mag)
    loss_arg = t_mag**2 * (-math.expm1(-2.0 * zeta))
    if loss_arg >= 1.0:
        return math.inf
    return _to_base(-math.log1p(-loss_arg), base)


def max_transmittable(length: float, l_abs: float, base="e") -> float:
    """Saturation bound: E_N,max = -log[1 - e^(-2 l / l_abs)].

    Raises ValueError for length < 0 or l_abs <= 0, NaN included.
    """
    base = _check_base(base)
    _check_length(l_abs, length)
    t_sq = math.exp(-2.0 * length / l_abs)
    if t_sq >= 1.0:
        return math.inf
    return _to_base(-math.log1p(-t_sq), base)
