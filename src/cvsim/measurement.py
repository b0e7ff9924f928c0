"""Conditional Gaussian states after projective Gaussian measurements and
homodyne detection.

Homodyne conventions
--------------------

Outcomes are quoted in natural quadrature units (the vacuum x distribution
is exp(-X^2)/sqrt(pi)).  The outcome record enters linear maps sign-adjusted:
outcomes of measured x-quadratures with a plus sign, measured p-quadratures
with a minus sign.  ``mean_map`` maps the record scaled by sqrt(2) to the
conditional mean displacement of the kept modes; that scaling is the usual
teleportation-protocol convention in which a lossless, infinitely squeezed
resource gives a gain of exactly unit magnitude.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .symplectic import DEFAULT_TOL, _even_square, validate_covariance

MP_REL_TOL = 1e-12


def _require_physical(gamma: np.ndarray, message: str) -> None:
    """Raise ValueError(message) unless gamma + i*Sigma >= -gate, with the gate
    DEFAULT_TOL * max(1, max|gamma|): eigenvalue noise of a representable
    boundary state grows with its norm."""
    gate = DEFAULT_TOL * max(1.0, float(np.max(np.abs(gamma))))
    if not validate_covariance(gamma).min_eigenvalue >= -gate:
        raise ValueError(message)


def _spectral_cut(mat, tol: float):
    """Eigenpairs of the symmetrised matrix and the mask of the eigenvalues
    that survive the rank cut |e| > tol * max|e|."""
    evals, evecs = np.linalg.eigh(0.5 * (mat + mat.T))
    return evals, evecs, np.abs(evals) > tol * np.max(np.abs(evals), initial=0.0)


def mp_inverse(mat, tol: float = MP_REL_TOL) -> np.ndarray:
    """Moore-Penrose inverse of a symmetric matrix via spectral decomposition.

    Eigenvalues with |e| <= tol * max|e| are treated as exactly zero.
    """
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("matrix must be square")
    if mat.shape[0] == 0:
        return mat.copy()
    if np.max(np.abs(mat - mat.T)) > 1e-10 * max(1.0, np.max(np.abs(mat))):
        raise ValueError("matrix must be symmetric")
    evals, evecs, keep = _spectral_cut(mat, tol)
    inv = np.where(keep, 1.0 / np.where(evals == 0.0, 1.0, evals), 0.0)
    return (evecs * inv) @ evecs.T


def _pseudo_determinant(mat, tol: float = MP_REL_TOL) -> float:
    """Product of the eigenvalues of a symmetric matrix kept by the rank cut
    of :func:`mp_inverse`; 1.0 when none is kept."""
    evals, _, keep = _spectral_cut(np.asarray(mat, dtype=float), tol)
    return float(np.prod(evals[keep]))


@dataclass(frozen=True)
class BlockedCovariance:
    """Bipartite covariance blocks: kept c1, measured c2, correlations c3."""

    c1: np.ndarray
    c2: np.ndarray
    c3: np.ndarray

    def __post_init__(self):
        c1 = np.asarray(self.c1, dtype=float)
        c2 = np.asarray(self.c2, dtype=float)
        c3 = np.asarray(self.c3, dtype=float)
        if c3.shape != (c1.shape[0], c2.shape[0]):
            raise ValueError("correlation block shape does not match c1/c2")
        object.__setattr__(self, "c1", c1)
        object.__setattr__(self, "c2", c2)
        object.__setattr__(self, "c3", c3)

    @classmethod
    def from_gamma(cls, gamma, measured_modes) -> "BlockedCovariance":
        """Split a covariance matrix into kept and measured mode blocks."""
        gamma = _even_square(gamma, "covariance matrix")
        n_modes = gamma.shape[0] // 2
        measured = sorted(set(measured_modes))
        if any(not 0 <= m < n_modes for m in measured):
            raise ValueError("measured mode index out of range")
        meas_q = [q for m in measured for q in (2 * m, 2 * m + 1)]
        kept_q = [q for q in range(2 * n_modes) if q not in meas_q]
        return cls(
            gamma[np.ix_(kept_q, kept_q)],
            gamma[np.ix_(meas_q, meas_q)],
            gamma[np.ix_(kept_q, meas_q)],
        )

    def assemble(self) -> np.ndarray:
        return np.block([[self.c1, self.c3], [self.c3.T, self.c2]])


@dataclass(frozen=True)
class ConditionalResult:
    """Reduced state after measuring subsystem 2.

    ``gamma_out`` never depends on the outcome values.  ``prob_factor`` is
    the bare [det(C2 + D^2)]^(-1/2) without any pi- or 2-power normalisation
    (the overall constant is calibrated empirically against the Fock
    oracle in the acceptance suite).  ``mean_map`` sends the measurement
    record to the conditional mean displacement of the kept modes.
    """

    gamma_out: np.ndarray
    prob_factor: float
    mean_map: np.ndarray


def gaussian_project(blocks: BlockedCovariance, d_matrix) -> ConditionalResult:
    """Project the measured subsystem onto a Gaussian state of covariance D^2.

    Returns the Schur complement C1 - C3 (C2 + D^2)^-1 C3^T, falling back to
    the Moore-Penrose inverse and pseudo-determinant when C2 + D^2 is
    singular.  ``mean_map`` is C3 (C2 + D^2)^MP, acting on the displacement
    of the projection center relative to the measured-block mean.
    """
    d_matrix = np.asarray(d_matrix, dtype=float)
    m_dim = blocks.c2.shape[0]
    if d_matrix.shape != (m_dim, m_dim):
        raise ValueError("D must match the measured block dimension")
    if np.any(d_matrix != np.diag(np.diagonal(d_matrix))) or np.any(np.diagonal(d_matrix) < 0):
        raise ValueError("D must be diagonal with non-negative entries")
    if m_dim == 0:
        return ConditionalResult(blocks.c1.copy(), 1.0, np.zeros((blocks.c1.shape[0], 0)))
    _require_physical(blocks.assemble(), "assembled covariance matrix is unphysical")
    core = blocks.c2 + d_matrix @ d_matrix
    # near-eps threshold: the core is invertible for any positive D, and the
    # homodyne limit D = diag(1/d, d) makes it ill conditioned on purpose, so
    # the default rank cutoff of mp_inverse would discard genuine directions
    core_inv = mp_inverse(core, tol=1e-15)
    gamma_out = blocks.c1 - blocks.c3 @ core_inv @ blocks.c3.T
    prob = float(_pseudo_determinant(core, tol=1e-15) ** -0.5)
    return ConditionalResult(gamma_out, prob, blocks.c3 @ core_inv)


def _conjugate_quadrature(q: int) -> int:
    """p-index of an x-quadrature and vice versa, interleaved ordering."""
    return q + 1 if q % 2 == 0 else q - 1


@dataclass(frozen=True)
class OutcomeDensity:
    """Gaussian density of the homodyne record.

    ``block`` is the covariance block selected by the projector onto the
    conjugate quadratures, ``mean`` its first moments, ``signs`` the
    adjustment applied to the recorded outcomes (+1 for measured x, -1 for
    measured p).  The density is normalised; for the single-mode vacuum it
    is exp(-X^2)/sqrt(pi).
    """

    block: np.ndarray
    mean: np.ndarray
    signs: np.ndarray

    def pdf(self, outcomes) -> np.ndarray | float:
        outcomes = np.asarray(outcomes, dtype=float)
        single = outcomes.ndim == 1
        pts = np.atleast_2d(outcomes)
        if pts.shape[1] != self.block.shape[0]:
            raise ValueError("outcome dimension does not match the record size")
        dev = pts * self.signs - self.mean
        quad = np.einsum("ni,ij,nj->n", dev, mp_inverse(self.block), dev)
        m = self.block.shape[0]
        norm = np.pi ** (m / 2.0) * np.sqrt(_pseudo_determinant(self.block))
        vals = np.exp(-quad) / norm
        return float(vals[0]) if single else vals

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw outcome records (rows) from the density."""
        evals, evecs = np.linalg.eigh(0.5 * (self.block + self.block.T))
        root = evecs * np.sqrt(np.clip(0.5 * evals, 0.0, None))
        raw = self.mean + rng.standard_normal((size, self.mean.size)) @ root.T
        return raw * self.signs


@dataclass(frozen=True)
class HomodyneResult:
    gamma_out: np.ndarray
    mean_map: np.ndarray
    density: OutcomeDensity


def homodyne_project(gamma, measured, kappa=None) -> HomodyneResult:
    """Condition on ideal quadrature measurements.

    ``measured`` lists quadrature indices, at most one per mode; the modes
    containing them are removed from the output.  The Schur complement runs
    over the conjugate quadratures of the measured ones (measuring x removes
    the x rows and keeps p), through the Moore-Penrose inverse, which is the
    limit of ``gaussian_project`` with D = diag(1/d, d), d -> 0.

    ``mean_map`` columns follow the measured indices in ascending order; see
    the module docstring for the record convention it consumes.
    """
    gamma = _even_square(gamma, "covariance matrix")
    n_modes = gamma.shape[0] // 2
    measured = sorted(set(int(q) for q in measured))
    if any(not 0 <= q < 2 * n_modes for q in measured):
        raise ValueError("measured quadrature index out of range")
    modes = [q // 2 for q in measured]
    if len(set(modes)) != len(modes):
        raise ValueError("cannot homodyne both quadratures of one mode")
    if kappa is None:
        kappa = np.zeros(2 * n_modes)
    kappa = np.asarray(kappa, dtype=float)
    _require_physical(gamma, "covariance matrix is unphysical")

    blocks = BlockedCovariance.from_gamma(gamma, modes)
    # measured modes are ascending and distinct, so the conjugate of the
    # i-th measured quadrature sits at row 2i or 2i + 1 of the measured block
    conj = [_conjugate_quadrature(q) for q in measured]
    support = [2 * i + q % 2 for i, q in enumerate(conj)]
    block = blocks.c2[np.ix_(support, support)]
    c3 = blocks.c3[:, support]

    full_map = c3 @ mp_inverse(block)
    gamma_out = blocks.c1 - full_map @ c3.T
    mean_map = full_map / np.sqrt(2.0)

    signs = np.array([1.0 if q % 2 == 0 else -1.0 for q in measured])
    density = OutcomeDensity(
        block=block,
        mean=kappa[conj],
        signs=signs,
    )
    return HomodyneResult(gamma_out, mean_map, density)
