"""Gaussian state constructors, the classicality test, and the
characteristic function."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .symplectic import (
    _EXP_MAX,
    DEFAULT_TOL,
    _check_each,
    _check_finite,
    _check_matrix,
    _check_mode_count,
    _check_physical,
    _check_squeezing,
    _check_vector,
    _is_real,
    _made,
    _own,
    _real_array,
    _result,
    check_symplectic,
    rotation_matrix,
    symplectic_form,
)


@dataclass(frozen=True, eq=False)
class GaussianState:
    """First moments kappa (length 2N) and covariance matrix gamma (2N x 2N).

    N must be at least 1: a 0 x 0 covariance raises ValueError, and so
    does a non-finite entry in either moment.
    """

    kappa: np.ndarray
    gamma: np.ndarray

    def __post_init__(self):
        gamma = _check_matrix(self.gamma, "covariance matrix")
        _own(self, kappa=_check_vector(self.kappa, "mean vector", gamma.shape[0]), gamma=gamma)

    @property
    def n_modes(self) -> int:
        return self.gamma.shape[0] // 2


def _check_occupation(n_mean):
    """Mean thermal photon numbers, a scalar as a float and an array-like as
    a float array; ValueError unless each is a real number, which a string
    is not, finite and >= 0, naming the first failing index of an array."""
    if not (_is_real(n_mean) or np.ndim(n_mean)):
        raise ValueError(f"mean thermal photon number must be a real number, got {n_mean!r}")
    n_mean = _check_finite(_real_array(n_mean, "mean thermal photon number"), "mean thermal photon number")
    _check_each(np.greater_equal(n_mean, 0.0), "mean thermal photon number must be non-negative")
    return n_mean


_COSH_MAX = math.acosh(sys.float_info.max)  # ~710.48; cosh and sinh overflow past it


def vacuum_state(n_modes: int = 1) -> GaussianState:
    """Vacuum of n_modes >= 1 modes, gamma = 1; ValueError for fewer or a fractional count."""
    n_modes = _check_mode_count(n_modes)
    return GaussianState(np.zeros(2 * n_modes), np.eye(2 * n_modes))


def thermal_state(n_mean, n_modes: int | None = None) -> GaussianState:
    """Thermal state, gamma = 2*diag(n1, n1, ..., nN, nN) + 1.

    ``n_mean`` is a scalar (same occupation in every mode) or a sequence
    of per-mode occupations, whose length must equal ``n_modes`` if given.
    A state without modes (``[]`` or ``n_modes < 1``) raises ValueError.
    """
    if n_modes is not None:
        n_modes = _check_mode_count(n_modes)
    ns = np.atleast_1d(_check_occupation(n_mean))
    if n_modes is not None and ns.size == 1:
        ns = np.full(n_modes, ns[0])
    elif n_modes is not None and ns.size != n_modes:
        raise ValueError(f"{ns.size} occupations given for {n_modes} modes")
    diag = 2.0 * np.repeat(ns, 2) + 1.0
    return GaussianState(np.zeros(diag.size), np.diag(diag))


def squeezed_state(zeta: float, theta: float = 0.0) -> GaussianState:
    """Single-mode squeezed vacuum, gamma = R(theta) diag(e^2z, e^-2z) R(theta)^T;
    ValueError where |zeta| > ln(float max)/2 ~ 354.89 (e^2|z| overflows) or zeta or theta is NaN."""
    zeta = _check_squeezing("zeta", zeta, _EXP_MAX / 2.0, "exp(2 |zeta|)")
    r = rotation_matrix(theta)
    gamma = r @ np.diag([np.exp(2.0 * zeta), np.exp(-2.0 * zeta)]) @ r.T
    return GaussianState(np.zeros(2), gamma)


def squeezed_signal(eta: float) -> GaussianState:
    """Pure squeezed signal in the cosh/sinh parameterisation.

    gamma = [[cosh eta, sinh eta], [sinh eta, cosh eta]]; equivalent to
    squeezed_state(eta/2, pi/4).  Both constructors are provided because the
    two squeezing conventions are easy to mix up.  ValueError where
    |eta| > acosh(float max) ~ 710.48, past which cosh(eta) overflows.
    """
    eta = _check_squeezing("eta", eta, _COSH_MAX, "cosh(eta)")
    ch, sh = np.cosh(eta), np.sinh(eta)
    return _made(GaussianState, kappa=np.zeros(2), gamma=np.array([[ch, sh], [sh, ch]]))


def tmsv_state(zeta: float) -> GaussianState:
    """Two-mode squeezed vacuum with c = cosh(2 zeta), s = sinh(2 zeta); ValueError
    where |zeta| > acosh(float max)/2 ~ 355.24, past which c overflows."""
    zeta = _check_squeezing("zeta", zeta, _COSH_MAX / 2.0, "cosh(2 zeta)")
    c, s = np.cosh(2.0 * zeta), np.sinh(2.0 * zeta)
    gamma = np.array(
        [
            [c, 0.0, s, 0.0],
            [0.0, c, 0.0, -s],
            [s, 0.0, c, 0.0],
            [0.0, -s, 0.0, c],
        ]
    )
    return _made(GaussianState, kappa=np.zeros(4), gamma=gamma)


def displace(state: GaussianState, delta) -> GaussianState:
    """Shift the phase-space mean by delta, a finite vector of the shape of
    ``state.kappa``; the covariance is unchanged."""
    return GaussianState(state.kappa + _check_vector(delta, "displacement", state.kappa.size), state.gamma)


def apply_symplectic(state: GaussianState, s) -> GaussianState:
    """Transform gamma -> S gamma S^T and kappa -> S kappa."""
    s = _check_matrix(s, "symplectic matrix", 2 * state.n_modes)
    if not check_symplectic(s):
        raise ValueError("matrix is not symplectic within tolerance")
    return GaussianState(s @ state.kappa, s @ state.gamma @ s.T)


@dataclass(frozen=True)
class ClassicalityVerdict:
    classical: bool
    min_gamma_eigenvalue: float


def classicality_test(gamma) -> ClassicalityVerdict:
    """Eigenvalue criterion for classicality.

    A Gaussian state admits a well-behaved classical phase-space description
    iff no eigenvalue of its covariance matrix drops below 1 (i.e. below the
    vacuum level).  Eigenvalues down to 1 - DEFAULT_TOL count as classical.
    """
    gamma = _check_matrix(gamma, "covariance matrix")
    _check_physical(gamma, "covariance matrix")
    min_eig = float(np.linalg.eigvalsh(0.5 * (gamma + gamma.T))[0])
    return ClassicalityVerdict(classical=bool(min_eig >= 1.0 - DEFAULT_TOL), min_gamma_eigenvalue=min_eig)


def max_classical_squeezing(n_mean: float) -> float:
    """Largest |zeta| for which a squeezed thermal state stays classical.

    Equals 0.5*ln(2n + 1), a float for a scalar n and an array for an
    array-like; squeezing the vacuum by any amount is non-classical.
    """
    return 0.5 * np.log(2.0 * _check_occupation(n_mean) + 1.0)


def characteristic_function(state: GaussianState, lam) -> complex:
    """Evaluate chi(lambda) = exp(-1/4 lam^T gamma lam + i lam^T Sigma kappa)
    at a finite lam of shape (2N,), giving a complex, or at a stack (..., 2N),
    giving a complex array of shape (...)."""
    lam = _check_vector(lam, "lambda", state.kappa.size, stack=True)
    row = lam[..., np.newaxis, :]  # 1 x 2N rows: one and many take the same vector products
    quad = (-0.25 * row @ state.gamma @ row.swapaxes(-1, -2))[..., 0, 0]
    phase = (row @ symplectic_form(state.n_modes) @ state.kappa)[..., 0]
    return _result(np.exp(quad + 1j * phase))
