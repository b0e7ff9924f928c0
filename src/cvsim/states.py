"""Gaussian state constructors, the classicality test, and the
characteristic function."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .symplectic import (
    DEFAULT_TOL,
    _check_each,
    _check_mode_count,
    _even_square,
    _result,
    check_symplectic,
    rotation_matrix,
    symplectic_form,
    validate_covariance,
)


@dataclass(frozen=True)
class GaussianState:
    """First moments kappa (length 2N) and covariance matrix gamma (2N x 2N).

    N must be at least 1: a 0 x 0 covariance raises ValueError, and so
    does a non-finite entry in either moment.
    """

    kappa: np.ndarray
    gamma: np.ndarray

    def __post_init__(self):
        # own copies, frozen: sharing buffers with the caller would let a
        # later setflags surprise them
        kappa = np.array(self.kappa, dtype=float)
        gamma = _even_square(self.gamma, "covariance matrix").copy()
        if kappa.shape != (gamma.shape[0],):
            raise ValueError("mean vector length does not match covariance dimension")
        if not np.isfinite(kappa).all():
            raise ValueError("mean vector has non-finite entries")
        kappa.setflags(write=False)
        gamma.setflags(write=False)
        object.__setattr__(self, "kappa", kappa)
        object.__setattr__(self, "gamma", gamma)

    @property
    def n_modes(self) -> int:
        return self.gamma.shape[0] // 2


def _check_occupation(n_mean) -> None:
    """Mean thermal photon numbers (scalar or array) must be finite and >= 0."""
    if not np.all(np.isfinite(n_mean) & np.greater_equal(n_mean, 0.0)):
        raise ValueError("mean thermal photon number must be finite and non-negative")


_COSH_MAX = math.acosh(sys.float_info.max)  # ~710.48; cosh and sinh overflow past it


def _check_squeezing(name: str, value: float, limit: float, overflowing: str) -> None:
    """The constructors' range rule: ValueError where |value| > limit, before
    ``overflowing`` would overflow; NaN is left to GaussianState."""
    if abs(value) > limit:
        raise ValueError(f"|{name}| = {abs(value)!r} is past {limit:.5g}, where {overflowing} overflows")


def vacuum_state(n_modes: int = 1) -> GaussianState:
    """Vacuum of n_modes >= 1 modes, gamma = 1; ValueError for fewer."""
    _check_mode_count(n_modes)
    return GaussianState(np.zeros(2 * n_modes), np.eye(2 * n_modes))


def thermal_state(n_mean, n_modes: int | None = None) -> GaussianState:
    """Thermal state, gamma = 2*diag(n1, n1, ..., nN, nN) + 1.

    ``n_mean`` is a scalar (same occupation in every mode) or a sequence
    of per-mode occupations, whose length must equal ``n_modes`` if given.
    A state without modes (``[]`` or ``n_modes < 1``) raises ValueError.
    """
    if n_modes is not None:
        _check_mode_count(n_modes)
    ns = np.atleast_1d(np.asarray(n_mean, dtype=float))
    if n_modes is not None and ns.size == 1:
        ns = np.full(n_modes, ns[0])
    elif n_modes is not None and ns.size != n_modes:
        raise ValueError(f"{ns.size} occupations given for {n_modes} modes")
    _check_occupation(ns)
    diag = 2.0 * np.repeat(ns, 2) + 1.0
    return GaussianState(np.zeros(diag.size), np.diag(diag))


def squeezed_state(zeta: float, theta: float = 0.0) -> GaussianState:
    """Single-mode squeezed vacuum, gamma = R(theta) diag(e^2z, e^-2z) R(theta)^T;
    ValueError where |zeta| > ln(float max)/2 ~ 354.89, past which e^2|z| overflows."""
    _check_squeezing("zeta", zeta, math.log(sys.float_info.max) / 2.0, "exp(2 |zeta|)")
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
    _check_squeezing("eta", eta, _COSH_MAX, "cosh(eta)")
    ch, sh = np.cosh(eta), np.sinh(eta)
    return GaussianState(np.zeros(2), np.array([[ch, sh], [sh, ch]]))


def tmsv_state(zeta: float) -> GaussianState:
    """Two-mode squeezed vacuum with c = cosh(2 zeta), s = sinh(2 zeta); ValueError
    where |zeta| > acosh(float max)/2 ~ 355.24, past which c overflows."""
    _check_squeezing("zeta", zeta, _COSH_MAX / 2.0, "cosh(2 zeta)")
    c, s = np.cosh(2.0 * zeta), np.sinh(2.0 * zeta)
    gamma = np.array(
        [
            [c, 0.0, s, 0.0],
            [0.0, c, 0.0, -s],
            [s, 0.0, c, 0.0],
            [0.0, -s, 0.0, c],
        ]
    )
    return GaussianState(np.zeros(4), gamma)


def displace(state: GaussianState, delta) -> GaussianState:
    """Shift the phase-space mean by delta, a finite vector of the shape of
    ``state.kappa``; the covariance is unchanged."""
    delta = np.asarray(delta, dtype=float)
    if delta.shape != state.kappa.shape:
        raise ValueError(f"displacement shape {delta.shape} != mean shape {state.kappa.shape}")
    return GaussianState(state.kappa + delta, state.gamma)


def apply_symplectic(state: GaussianState, s) -> GaussianState:
    """Transform gamma -> S gamma S^T and kappa -> S kappa."""
    s = np.asarray(s, dtype=float)
    if s.shape != (2 * state.n_modes, 2 * state.n_modes):
        raise ValueError("symplectic matrix dimension does not match the state")
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
    gamma = _even_square(gamma, "covariance matrix")
    if not validate_covariance(gamma).physical:
        raise ValueError("covariance matrix violates the uncertainty relation")
    min_eig = float(np.linalg.eigvalsh(0.5 * (gamma + gamma.T))[0])
    return ClassicalityVerdict(classical=bool(min_eig >= 1.0 - DEFAULT_TOL), min_gamma_eigenvalue=min_eig)


def max_classical_squeezing(n_mean: float) -> float:
    """Largest |zeta| for which a squeezed thermal state stays classical.

    Equals 0.5*ln(2n + 1); squeezing the vacuum by any amount is
    non-classical.
    """
    _check_occupation(n_mean)
    return 0.5 * np.log(2.0 * n_mean + 1.0)


def characteristic_function(state: GaussianState, lam) -> complex:
    """Evaluate chi(lambda) = exp(-1/4 lam^T gamma lam + i lam^T Sigma kappa)
    at a finite lam of shape (2N,), giving a complex, or at a stack (..., 2N),
    giving a complex array of shape (...)."""
    lam = np.asarray(lam, dtype=float)
    if lam.shape[-1:] != state.kappa.shape:
        raise ValueError("lambda length does not match the state dimension")
    _check_each(np.isfinite(lam), "lambda has non-finite entries", core=1)
    row = lam[..., np.newaxis, :]  # 1 x 2N rows: one and many take the same vector products
    quad = (-0.25 * row @ state.gamma @ row.swapaxes(-1, -2))[..., 0, 0]
    phase = (row @ symplectic_form(state.n_modes) @ state.kappa)[..., 0]
    return _result(np.exp(quad + 1j * phase))
