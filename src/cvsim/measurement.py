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

import math
from dataclasses import dataclass

import numpy as np

from .symplectic import _check_each, _check_matrix, _check_physical, _check_symmetric, _check_vector, _own

MP_REL_TOL = 1e-12
# near-eps rank cut of gaussian_project: the core C2 + D^2 is invertible for
# any positive D, and the homodyne limit D = diag(1/d, d) makes it ill
# conditioned on purpose, so MP_REL_TOL would discard genuine directions
_PROJECT_REL_TOL = 1e-15


def _eigh(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvectors of (mat + mat^T) / 2."""
    return np.linalg.eigh(0.5 * (mat + mat.T))


def _spectral_cut(evals: np.ndarray, evecs: np.ndarray, tol: float, power=np.sqrt) -> tuple[np.ndarray, float]:
    """Moore-Penrose inverse of a symmetric matrix from its
    eigen-decomposition, and ``power`` (a square root or an inverse one) of
    its pseudo-determinant.

    Eigenvalues with |e| <= tol * max|e| count as exactly zero: the inverse
    drops them and the pseudo-determinant is the product of the others
    (1.0 when none is kept).  Where that product overflows although each
    factor's root is finite, ``power`` is taken of each factor instead.
    """
    keep = np.abs(evals) > tol * np.max(np.abs(evals), initial=0.0)
    inv = np.where(keep, 1.0 / np.where(keep, evals, 1.0), 0.0)
    kept = evals[keep]
    pdet = math.prod(kept.tolist())  # in np.prod's order, but a float overflow is inf without a warning
    scaled = power(pdet) if pdet < math.inf else math.prod(power(kept).tolist())
    return (evecs * inv) @ evecs.T, scaled


def mp_inverse(mat) -> np.ndarray:
    """Moore-Penrose inverse of a symmetric matrix via spectral decomposition.

    Eigenvalues with |e| <= MP_REL_TOL * max|e| are treated as exactly zero.
    """
    return _spectral_cut(*_eigh(_check_matrix(mat, "matrix", even=False, symmetric=True)), MP_REL_TOL)[0]


def _checked_input(gamma, measured, per_mode: int) -> tuple[np.ndarray, list[int]]:
    """The covariance matrix and the measured indices, sorted and distinct.

    ``per_mode`` is 1 for mode indices and 2 for quadrature indices.
    ValueError unless gamma is finite, symmetric and physical and every
    index is an integer in range; 1.5 is not read as 1.
    """
    gamma = _check_matrix(gamma, "covariance matrix")
    scale = _check_symmetric(gamma, "covariance matrix")
    bound = gamma.shape[0] // 2 * per_mode
    indices = sorted(set(measured))
    if not all(float(i).is_integer() and 0 <= i < bound for i in indices):
        raise ValueError(f"measured indices must be integers in [0, {bound}), got {indices}")
    _check_physical(gamma, "covariance matrix", scale)
    return gamma, [int(i) for i in indices]


def _split(gamma: np.ndarray, support: list[int]):
    """Blocks (c1, c2, c3) of a covariance matrix for the measured
    quadratures ``support``: c1 over every mode that ``support`` leaves
    untouched, c2 over ``support``, c3 their correlations."""
    touched = {q // 2 for q in support}
    kept = [q for q in range(gamma.shape[0]) if q // 2 not in touched]
    kept_rows = gamma.take(kept, 0)
    return kept_rows.take(kept, 1), gamma.take(support, 0).take(support, 1), kept_rows.take(support, 1)


def _quadratic_columns(cols: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """d^T M d per column d of the 2-d ``cols``, for pdf and overlap exponents over component-major records."""
    return ((mat.T @ cols) * cols).sum(axis=0)


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


def gaussian_project(gamma, measured_modes, d_matrix) -> ConditionalResult:
    """Project ``measured_modes`` onto a Gaussian state of covariance D^2.

    With C1, C2, C3 the kept, measured and correlation blocks of ``gamma``,
    returns the Schur complement C1 - C3 (C2 + D^2)^-1 C3^T, falling back to
    the Moore-Penrose inverse and pseudo-determinant when C2 + D^2 is
    singular.  ``mean_map`` is C3 (C2 + D^2)^MP, acting on the displacement
    of the projection center relative to the measured-block mean.
    """
    gamma, modes = _checked_input(gamma, measured_modes, per_mode=1)
    c1, c2, c3 = _split(gamma, [q for m in modes for q in (2 * m, 2 * m + 1)])
    d_matrix = _check_matrix(d_matrix, "D", c2.shape[0], even=False)
    if np.any(d_matrix != np.diag(np.diagonal(d_matrix))) or np.any(np.diagonal(d_matrix) < 0):
        raise ValueError("D must be diagonal with non-negative entries")
    core = _check_matrix(c2 + d_matrix @ d_matrix, "matrix", even=False, symmetric=True)  # D^2 can overflow
    core_inv, prob_factor = _spectral_cut(*_eigh(core), _PROJECT_REL_TOL, lambda det: det**-0.5)
    return ConditionalResult(c1 - c3 @ core_inv @ c3.T, prob_factor, c3 @ core_inv)


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
    is exp(-X^2)/sqrt(pi).  Checked, copied read-only and eigen-solved once, when built: ValueError unless
    block is a finite symmetric matrix and mean and signs finite vectors of its length, each sign +1 or -1.
    """

    block: np.ndarray
    mean: np.ndarray
    signs: np.ndarray

    def __post_init__(self):
        block = _check_matrix(self.block, "block", even=False, symmetric=True)
        mean = _check_vector(self.mean, "mean", len(block))
        signs = _check_vector(self.signs, "signs", len(block))
        _check_each(np.abs(signs) == 1.0, lambda _: f"signs must be +1 or -1, got {signs}", core=1)
        _own(self, block=block, mean=mean, signs=signs)
        evals, evecs = _eigh(block)
        inverse, root_pdet = _spectral_cut(evals, evecs, MP_REL_TOL)
        # beside the fields, not fields: the solve, its cut that pdf and homodyne_project's mean_map read, the norm
        vars(self).update(_eig=(evals, evecs), _inverse=inverse, _norm=np.pi ** (len(block) / 2.0) * root_pdet)

    def pdf(self, outcomes) -> np.ndarray | float:
        """exp(-d^T B^MP d) / (pi^(n/2) sqrt(pdet B)) per record, d its sign-adjusted deviation from ``mean``."""
        n = len(self.mean)
        pts = _check_vector(np.atleast_2d(outcomes), "outcomes", n, stack=True)
        cols = (pts * self.signs - self.mean).reshape(np.prod(pts.shape[:-1], dtype=int), n).T
        vals = np.exp(-_quadratic_columns(cols, self._inverse)) / self._norm
        return float(vals[0]) if np.ndim(outcomes) == 1 else vals.reshape(pts.shape[:-1])

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw outcome records, the rows of the transposed view of a (k, size) array."""
        evals, evecs = self._eig
        root = self.signs[:, np.newaxis] * evecs * np.sqrt(np.clip(0.5 * evals, 0.0, None))
        # a seed's rows (mean + z R^T) * signs bit for bit: z used transposed, the exact +-1 factors folded into R, mean
        return (root @ rng.standard_normal((size, self.mean.size)).T + (self.mean * self.signs)[:, np.newaxis]).T


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

    ``mean_map`` columns follow the measured indices in ascending order (the record convention is the
    module docstring's).  ``density`` is built from the conjugate block, which it checks and solves;
    ``mean_map`` is formed from the density's Moore-Penrose cut, so the block is solved once.
    """
    gamma, measured = _checked_input(gamma, measured, per_mode=2)
    if len({q // 2 for q in measured}) != len(measured):
        raise ValueError("cannot homodyne both quadratures of one mode")
    kappa = np.zeros(len(gamma)) if kappa is None else _check_vector(kappa, "kappa", len(gamma))
    conj = [_conjugate_quadrature(q) for q in measured]
    c1, block, c3 = _split(gamma, conj)
    density = OutcomeDensity(block, kappa[conj], np.array([1.0 if q % 2 == 0 else -1.0 for q in measured]))
    full_map = c3 @ density._inverse
    return HomodyneResult(c1 - full_map @ c3.T, full_map / np.sqrt(2.0), density)
