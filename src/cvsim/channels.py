"""Trace-preserving Gaussian channels and the absorbing-fiber model."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .symplectic import DEFAULT_TOL, _block_diag, _check_finite, _check_matrix, _check_rule, _is_real, _own, _result
from .symplectic import rotation_matrix, symplectic_form
from .states import GaussianState, _check_occupation, tmsv_state

_PARAM_TOL = 1e-12  # slack of the energy-conservation rule |T|^2 + |R|^2 <= 1


@dataclass(frozen=True, eq=False)
class GaussianChannel:
    """A map gamma -> A gamma A^T + G, kappa -> A kappa.

    A and G are finite 2N x 2N matrices, G symmetric; complete positivity
    holds iff the Hermitian G + i Sigma - i A Sigma A^T is positive semidefinite.
    """

    a: np.ndarray
    g: np.ndarray

    def __post_init__(self):
        a = _check_matrix(self.a, "channel matrix A")
        _own(self, a=a, g=_check_matrix(self.g, "noise matrix G", a.shape[0], symmetric=True))

    @property
    def n_modes(self) -> int:
        return self.a.shape[0] // 2


@dataclass(frozen=True)
class FiberParams:
    """Single-frequency fiber: |T|, transmission phase, |R|, thermal occupation.

    ``noise`` is the scalar G = |R|^2 + (2 n_th + 1)(1 - |T|^2 - |R|^2) that
    the fiber adds to each quadrature variance.  The phase must be finite.
    """

    t_mag: float
    phase: float = 0.0
    r_mag: float = 0.0
    n_th: float = 0.0

    def __post_init__(self):
        _check_fiber(self.t_mag, self.r_mag)
        _check_finite(self.phase, "phase")
        _check_occupation(self.n_th)
        if not all(map(_is_real, (self.t_mag, self.phase, self.r_mag, self.n_th))):  # the rules take arrays
            raise ValueError("fiber parameters must be real numbers, not arrays")

    @property
    def noise(self) -> float:
        """Reflected vacuum plus thermal noise from the absorbed power."""
        absorbed = max(0.0, 1.0 - self.t_mag**2 - self.r_mag**2)
        return self.r_mag**2 + (2.0 * self.n_th + 1.0) * absorbed


def _in_unit(v):
    return (0.0 <= v) & (v <= 1.0)


def _check_fiber(t_mag, r_mag=0.0):
    """The fiber-magnitude rule on scalars or arrays, else ValueError: |T|
    and |R| real numbers in [0, 1] and |T|^2 + |R|^2 <= 1; returns them,
    an array as a float array (see _check_rule)."""
    t_mag = _check_rule(t_mag, _in_unit, "transmission magnitude must lie in [0, 1]", "transmission magnitude")
    r_mag = _check_rule(r_mag, _in_unit, "reflection magnitude must lie in [0, 1]", "reflection magnitude")
    _check_rule(t_mag**2 + r_mag**2, lambda p: p <= 1.0 + _PARAM_TOL,
                "energy conservation requires |T|^2 + |R|^2 <= 1", "")
    return t_mag, r_mag


def _check_length(l_abs, length=0.0):
    """The fiber-length rule on scalars or arrays, else ValueError:
    absorption length l_abs > 0 and fiber length >= 0, NaN failing both;
    returns them as _check_rule does."""
    l_abs = _check_rule(l_abs, lambda l: l > 0.0, "absorption length must be positive, got {!r}", "absorption length")
    return l_abs, _check_rule(length, lambda l: l >= 0.0, "fiber length must be non-negative, got {!r}", "fiber length")


IDEAL_FIBER = FiberParams(t_mag=1.0)


def validate_channel(ch: GaussianChannel) -> bool:
    """Complete-positivity certificate, state independent.

    The requirement that every physical input stays physical is equivalent
    to G + i Sigma - i A Sigma A^T >= 0, tested here to within DEFAULT_TOL.
    """
    sigma = symplectic_form(ch.n_modes)
    herm = ch.g + 1j * sigma - 1j * ch.a @ sigma @ ch.a.T
    herm = 0.5 * (herm + herm.conj().T)
    return bool(np.linalg.eigvalsh(herm)[0] >= -DEFAULT_TOL)


def apply_channel(state: GaussianState, ch: GaussianChannel) -> GaussianState:
    if ch.n_modes != state.n_modes:
        raise ValueError("channel dimension does not match the state")
    if not validate_channel(ch):
        raise ValueError("channel fails the complete-positivity certificate")
    return GaussianState(ch.a @ state.kappa, ch.a @ state.gamma @ ch.a.T + ch.g)


def fiber_channel(p: FiberParams) -> GaussianChannel:
    """Single-mode channel of one absorbing fiber.

    A = |T| R(phase); G = ``p.noise`` * identity.
    """
    return GaussianChannel(p.t_mag * rotation_matrix(p.phase), p.noise * np.eye(2))


def fiber_from_length(length: float, l_abs: float, n_th: float = 0.0) -> FiberParams:
    """Fiber with Lambert-Beer extinction |T| = exp(-length/l_abs) and R = 0."""
    l_abs, length = _check_length(l_abs, length)
    return FiberParams(t_mag=_result(np.exp(-length / l_abs)), n_th=n_th)  # an array fails its rule


def tensor_channels(*channels: GaussianChannel) -> GaussianChannel:
    """Independent channels acting on consecutive mode groups."""
    if not channels:
        raise ValueError("need at least one channel")
    return GaussianChannel(
        _block_diag(*[ch.a for ch in channels]),
        _block_diag(*[ch.g for ch in channels]),
    )


def degraded_tmsv(zeta: float, f1: FiberParams, f2: FiberParams) -> np.ndarray:
    """Covariance matrix of a TMSV sent through one fiber per arm.

    gamma = A gamma_TMSV A^T + diag(G1, G1, G2, G2), A = |T1| R(phase1) (+)
    |T2| R(phase2): the products ``apply_channel`` forms for the two
    ``fiber_channel``s, so the Re/Im structure of the cross block arises
    from the phase rotations rather than a special-cased formula.  The fiber
    rule implies complete positivity, so no certificate is solved:
    G - |1 - |T|^2| = 2 n_th (1 - |T|^2 - |R|^2) >= 0, and inside the rule's
    1e-12 slack it equals |T|^2 + |R|^2 - 1 >= 0.
    """
    a = _block_diag(f1.t_mag * rotation_matrix(f1.phase), f2.t_mag * rotation_matrix(f2.phase))
    return a @ tmsv_state(zeta).gamma @ a.T + np.diag([f1.noise, f1.noise, f2.noise, f2.noise])
