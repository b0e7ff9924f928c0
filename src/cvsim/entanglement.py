"""Separability and entanglement of two-mode Gaussian states, plus the
closed forms for TMSV degradation in absorbing fibers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import _check_fiber, _check_length
from .states import _check_occupation
from .symplectic import DEFAULT_TOL, _check_each, _check_matrix, _check_physical, _check_rule, _min_eigenvalue
from .symplectic import _result, _spectrum

# gamma^PT = gamma * _PT_SIGNS + 0.0 flips the second mode's p row and column;
# + 0.0 keeps a flipped 0.0 at 0.0, as the product with diag(1, 1, 1, -1) did
_PT_SIGNS = np.outer([1.0, 1.0, 1.0, -1.0], [1.0, 1.0, 1.0, -1.0])

_LN2 = float(np.log(2.0))

# -log(1 - x) of an x near 1 keeps few of x's digits; past this x the closed
# forms take -log of 1 - x summed from parts that do not cancel
_NEAR_SATURATION = 0.99


def _check_base(base) -> str:
    """The log base, which must be the string "e" or "2"."""
    if base in ("e", "2"):
        return base
    raise ValueError(f'log base must be "e" or "2", got {base!r}')


def _to_base(nats, base):
    """Convert natural logarithms to ``base`` ("e" or "2")."""
    return nats / _LN2 if _check_base(base) == "2" else nats


def _check_non_negative_zeta(zeta):
    """zeta, a scalar or an array, as _check_rule returns it; ValueError
    unless each value is a real number >= 0 (inf included)."""
    return _check_rule(zeta, lambda z: z >= 0.0, "squeezing zeta must be non-negative, got {!r}", "squeezing zeta")


def _two_mode(gamma, physical: bool = True) -> np.ndarray:
    """The finite, symmetric (..., 4, 4) stack, physical if ``physical``; else
    ValueError.  No test then reads the two triangles of a matrix differently."""
    gamma = _check_matrix(gamma, "covariance matrix", 4, stack=True, symmetric=True)
    if physical:
        _check_physical(gamma, "covariance matrix")
    return gamma


def _invariants(gamma: np.ndarray):
    """det C1, det C2, det C3 of the 2 x 2 blocks [[C1, C3], [C3^T, C2]] of a
    (..., 4, 4) stack, from one det over the blocks, and det gamma: the four
    local symplectic invariants both closed forms read."""
    dets = np.linalg.det(gamma.reshape(*gamma.shape[:-2], 2, 2, 2, 2).swapaxes(-3, -2))
    return dets[..., 0, 0][()], dets[..., 1, 1][()], dets[..., 0, 1][()], np.linalg.det(gamma)


def partial_transpose(gamma) -> np.ndarray:
    """Flip the sign of the second mode's momentum row and column of a (4, 4)
    gamma or of each matrix of a stack (..., 4, 4)."""
    return _two_mode(gamma, physical=False) * _PT_SIGNS + 0.0


@dataclass(frozen=True)
class SeparabilityVerdict:
    """Outcome of the two equivalent separability tests.

    ``lhs >= rhs`` is Simon's criterion (PRL 84, 2726 (2000)), with
    lhs = det gamma + 1 - 2 |det C3| and rhs = det C1 + det C2.  Simon
    writes lhs as det C1 det C2 + (1 - |det C3|)^2 - tr(C1 J C3 J C2 J C3^T J);
    the identity det gamma = det C1 det C2 + (det C3)^2 - tr(C1 J C3 J C2
    J C3^T J) turns it into the four local invariants, with no product to
    cancel.  ``pt_min_eig`` is the smallest eigenvalue of gamma^PT + i Sigma.
    Both must agree outside the boundary band _BORDERLINE_BAND, otherwise
    an internal-consistency error is raised; a disagreement inside the band
    counts as separable.
    """

    separable: bool
    lhs: float
    rhs: float
    pt_min_eig: float


_BORDERLINE_BAND = 1e-8  # relative width of the boundary band of is_separable


def is_separable(gamma) -> SeparabilityVerdict:
    """Both tests on a (4, 4) gamma, giving a bool and floats, or on a stack
    (..., 4, 4), giving arrays of shape (...).  Simon's criterion is read off
    the invariants as lhs = det gamma + 1 - 2 |det C3| (see
    SeparabilityVerdict)."""
    gamma = _two_mode(gamma)
    det1, det2, det3, det_g = _invariants(gamma)
    lhs = det_g + 1.0 - 2.0 * abs(det3)
    rhs = det1 + det2
    pt_min = _min_eigenvalue(gamma * _PT_SIGNS + 0.0)

    scale = np.maximum(np.maximum(1.0, abs(lhs)), abs(rhs))
    crit_margin = (lhs - rhs) / scale
    crit_sep = crit_margin >= -_BORDERLINE_BAND
    disagree = crit_sep != (pt_min >= -DEFAULT_TOL)
    # a borderline state: the boundary counts as separable
    borderline = disagree & ((abs(crit_margin) <= _BORDERLINE_BAND) | (abs(pt_min) <= _BORDERLINE_BAND))
    _check_each(~disagree | borderline, lambda i: "separability criterion and partial-transpose test disagree "
                f"(margin {crit_margin[i]:.3e}, PT min eigenvalue {pt_min[i]:.3e})", error=RuntimeError)
    return SeparabilityVerdict(_result(crit_sep | borderline), _result(lhs), _result(rhs), _result(pt_min))


@dataclass(frozen=True)
class NegativityReport:
    f_value: float
    e_n: float
    log_base: str


def log_negativity(gamma, base="e") -> NegativityReport:
    """Logarithmic negativity of a (4, 4) gamma, giving floats, or of a stack
    (..., 4, 4), giving arrays of shape (...).

    The closed form

        f(gamma) = sqrt(A - sqrt(A^2 - det gamma)),
        A = (det C1 + det C2)/2 - det C3,

    is evaluated in the cancellation-free arrangement
    f^2 = det gamma / (A + sqrt(A^2 - det gamma)) and cross-checked against
    the smallest symplectic eigenvalue of the partial transpose; the two
    backends must agree to DEFAULT_TOL (relatively, once E_N grows large).
    """
    base = _check_base(base)
    gamma = _two_mode(gamma)
    det1, det2, det3, det_g = _invariants(gamma)
    a_half = 0.5 * (det1 + det2) - det3
    a_sq = np.float_power(a_half, 2.0)  # C pow, as a numpy scalar's ** 2 rounds it
    disc = a_sq - det_g
    _check_each(disc >= -DEFAULT_TOL * np.maximum(1.0, a_sq), "negative discriminant: inconsistent covariance data")
    # A + sqrt(A^2 - det gamma) = nu~_+^2 >= 1 for a physical gamma
    f_closed = np.sqrt(np.maximum(det_g, 0.0) / (a_half + np.sqrt(np.maximum(disc, 0.0))))
    f_backend = _spectrum(gamma * _PT_SIGNS + 0.0)[..., 0][()]

    # E = -ln f below f = 1, else 0; ln 0 = -inf, and inf - inf only where both f are deep
    with np.errstate(divide="ignore", invalid="ignore"):
        e_closed, e_backend = (0.0 - np.log(np.minimum(f, 1.0)) for f in (f_closed, f_backend))
        limit = DEFAULT_TOL * np.maximum(1.0, np.minimum(e_closed, e_backend))
        agree = ((f_closed < 1e-8) & (f_backend < 1e-8)) | ~(abs(e_closed - e_backend) > limit)
    _check_each(agree, lambda i: "closed-form and symplectic-spectrum log-negativities disagree: "
                f"{float(e_closed[i])!r} vs {float(e_backend[i])!r} (f = {float(f_closed[i])!r}, "
                f"nu = {float(f_backend[i])!r})", error=RuntimeError)
    return NegativityReport(f_value=_result(f_closed), e_n=_result(_to_base(e_closed, base)), log_base=base)


# The closed forms below take scalars, giving a float, or arrays, which
# broadcast, giving an array.  Each branch is one numpy expression, chosen
# by np.where, so a point gives the same bits alone as inside an array.  The
# branch not chosen may divide by 0, and 2 zeta or 2 l / l_abs may pass the
# float range, so each is formed under np.errstate(all="ignore").


def fiber_separability_threshold(zeta, t_mag, r_mag=0.0):
    """Thermal occupation at which the degraded TMSV turns separable.

    n_crit = |T|^2 (1 - e^(-2 zeta)) / (2 (1 - |R|^2 - |T|^2)), 0 at
    zeta = 0.  Without absorption (|T|^2 + |R|^2 = 1) the threshold is
    infinite: entanglement survives any zero-temperature fiber, so inf is
    returned.

    Raises ValueError for zeta < 0 and for fiber magnitudes that
    ``FiberParams`` rejects, naming the first failing entry of an array.
    """
    zeta = _check_non_negative_zeta(zeta)
    t_mag, r_mag = _check_fiber(t_mag, r_mag)
    t_sq = t_mag * t_mag
    absorption = 1.0 - t_sq - r_mag * r_mag
    with np.errstate(all="ignore"):
        n_crit = np.where(absorption > 0.0, t_sq * -np.expm1(-2.0 * zeta) / (2.0 * absorption), np.inf)
    return _result(np.where(zeta == 0.0, 0.0, n_crit))


def separability_length(zeta, n_th, l_abs):
    """Fiber length (Lambert-Beer, R = 0) at which the TMSV turns separable.

    l_S = (l_abs/2) ln[1 + (1 - e^(-2 zeta)) / (2 n_th)], 0 at zeta = 0;
    diverges for n_th -> 0, in which case inf is returned.  Raises
    ValueError for zeta < 0, n_th < 0 or infinite, or l_abs <= 0, NaN
    included, naming the first failing entry of an array.
    """
    zeta = _check_non_negative_zeta(zeta)
    n_th = _check_occupation(n_th)
    l_abs, _ = _check_length(l_abs)
    with np.errstate(all="ignore"):  # x / 0 = inf at n_th = 0, and 0 / 0 at zeta = 0 too
        l_s = 0.5 * l_abs * np.log1p(-np.expm1(-2.0 * zeta) / (2.0 * n_th))
    return _result(np.where(zeta == 0.0, 0.0, l_s))


def transmitted_log_negativity(zeta, t_mag, base="e"):
    """Log-negativity of a TMSV after two zero-temperature fibers.

    E_N = -log[1 - |T|^2 (1 - e^(-2 zeta))], independent of the reflection
    coefficient.  Perfect transmission recovers E_N = 2 zeta in natural log,
    inf at zeta = inf.  Near saturation the argument of the log is summed as
    (1 - |T|)(1 + |T|) + |T|^2 e^(-2 zeta), so E_N keeps its digits there.
    Raises ValueError for zeta < 0 or |T| outside [0, 1].
    """
    zeta = _check_non_negative_zeta(zeta)
    t_mag, _ = _check_fiber(t_mag)
    t_sq = t_mag * t_mag
    with np.errstate(all="ignore"):
        loss_arg = t_sq * -np.expm1(-2.0 * zeta)
        near = -np.log((1.0 - t_mag) * (1.0 + t_mag) + t_sq * np.exp(-2.0 * zeta))  # positive below |T| = 1
        # at |T| = 1, 2 zeta, where e^(-2 zeta) underflows from zeta ~ 372 on
        nats = np.where(loss_arg <= _NEAR_SATURATION, -np.log1p(-loss_arg), np.where(t_mag < 1.0, near, 2.0 * zeta))
        return _result(_to_base(nats, base))


def max_transmittable(length, l_abs, base="e"):
    """Saturation bound: E_N,max = -log[1 - e^(-2 l / l_abs)], inf at l = 0.

    Near l = 0 the argument of the log is -expm1(-2 l / l_abs), so E_N,max
    keeps its digits there.  Raises ValueError for length < 0 or
    l_abs <= 0, NaN included, and where both are infinite, naming the first
    failing entry of an array.
    """
    l_abs, length = _check_length(l_abs, length)
    with np.errstate(all="ignore"):  # inf / inf is the one NaN the length rule lets through
        exponent = _check_rule(-2.0 * length / l_abs, lambda e: e <= 0.0,
                               "fiber length and absorption length are both infinite", "")
        t_sq = np.exp(exponent)
        nats = np.where(t_sq <= _NEAR_SATURATION, -np.log1p(-t_sq), -np.log(-np.expm1(exponent)))
        return _result(_to_base(nats, base))
