"""Phase-space linear algebra for Gaussian states.

Conventions used throughout the package:

* quadratures are ordered (x1, p1, ..., xN, pN),
* hbar = 1 and the vacuum covariance matrix is the identity,
* a covariance matrix gamma is physical iff gamma + i*Sigma >= 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

DEFAULT_TOL = 1e-9  # absolute tolerance of every validity test; not a parameter

_SIGMA_1 = np.array([[0.0, 1.0], [-1.0, 0.0]])


def _check_mode_count(n_modes) -> None:
    """Every state and symplectic form has at least one mode."""
    if not n_modes >= 1:
        raise ValueError(f"mode count must be positive, got {n_modes!r}")


@lru_cache(maxsize=16)
def symplectic_form(n_modes: int) -> np.ndarray:
    """Return the 2N x 2N symplectic form, N blocks of [[0, 1], [-1, 0]].

    The array is built once per mode count and shared, so it is read-only.
    """
    _check_mode_count(n_modes)
    sigma = np.kron(np.eye(n_modes), _SIGMA_1)
    sigma.setflags(write=False)
    return sigma


def _mode_index(mode, n_modes: int) -> int:
    """The mode index as an int; ValueError unless an integer in [0, n_modes)."""
    if not (float(mode).is_integer() and 0 <= mode < n_modes):
        raise ValueError(f"mode index must be an integer in [0, {n_modes}), got {mode!r}")
    return int(mode)


def _block_diag(*mats) -> np.ndarray:
    """Square matrices placed corner to corner on the diagonal, zeros elsewhere."""
    n = sum(len(m) for m in mats)
    out = np.zeros((n, n))
    i = 0
    for m in mats:
        out[i : i + len(m), i : i + len(m)] = m
        i += len(m)
    return out


def rotation_matrix(theta: float) -> np.ndarray:
    """Single-mode phase-space rotation by theta (counter-clockwise)."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def _even_square(m, name: str = "matrix") -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    if m.shape[0] % 2 != 0:
        raise ValueError(f"{name} must have even dimension, got {m.shape[0]}")
    if not np.isfinite(m).all():
        raise ValueError(f"{name} has non-finite entries")
    return m


@dataclass(frozen=True)
class CovarianceReport:
    """Verdict of the matrix uncertainty relation.

    ``min_eigenvalue`` is the smallest eigenvalue of the Hermitian matrix
    gamma + i*Sigma; the state is physical iff it is >= -DEFAULT_TOL.
    """

    physical: bool
    min_eigenvalue: float


def validate_covariance(gamma) -> CovarianceReport:
    """Test the uncertainty relation gamma + i*Sigma >= 0.

    The input is symmetrised as (gamma + gamma.T)/2 before testing so that
    representation noise cannot flip the verdict.
    """
    gamma = _even_square(gamma, "covariance matrix")
    n_modes = gamma.shape[0] // 2
    sym = 0.5 * (gamma + gamma.T)
    herm = sym + 1j * symplectic_form(n_modes)
    min_eig = float(np.linalg.eigvalsh(herm)[0])
    return CovarianceReport(physical=bool(min_eig >= -DEFAULT_TOL), min_eigenvalue=min_eig)


def check_symplectic(s) -> bool:
    """True iff ||S Sigma S^T - Sigma||_max <= DEFAULT_TOL."""
    s = _even_square(s, "symplectic candidate")
    sigma = symplectic_form(s.shape[0] // 2)
    return bool(np.max(np.abs(s @ sigma @ s.T - sigma)) <= DEFAULT_TOL)


@dataclass(frozen=True, eq=False)
class Gate:
    """One elementary symplectic gate: the 2k x 2k matrix ``block`` acting on
    the k listed ``modes`` (in that order) and as the identity elsewhere."""

    modes: tuple[int, ...]
    block: np.ndarray


def rotation(mode: int, theta: float) -> Gate:
    return Gate((mode,), rotation_matrix(theta))


def squeeze(mode: int, zeta: float) -> Gate:
    return Gate((mode,), np.diag([np.exp(zeta), np.exp(-zeta)]))


_BEAMSPLITTER = np.kron([[1.0, 1.0], [-1.0, 1.0]], np.eye(2)) / np.sqrt(2.0)
_BEAMSPLITTER.setflags(write=False)


def beamsplitter(mode_i: int, mode_j: int) -> Gate:
    """Symmetric 50:50 beamsplitter [[1, 1], [-1, 1]] / sqrt(2) on (i, j)."""
    if mode_i == mode_j:
        raise ValueError("beamsplitter needs two distinct modes")
    return Gate((mode_i, mode_j), _BEAMSPLITTER)


def build_symplectic(gates, n_modes: int) -> np.ndarray:
    """Ordered product of gate matrices; the leftmost gate acts last.

    Each gate's block is written into the 2N x 2N identity by 2 x 2
    sub-blocks, one per pair of its modes.  An empty gate list yields the
    identity; a mode that is not an integer in [0, N) raises ValueError.
    """
    s = np.eye(2 * n_modes)
    for gate in gates:
        modes = [_mode_index(m, n_modes) for m in gate.modes]
        g = np.eye(2 * n_modes)
        g_modes = g.reshape(n_modes, 2, n_modes, 2)  # a view: [mode, q, mode, q]
        block = gate.block.reshape(len(modes), 2, len(modes), 2)
        for r, mr in enumerate(modes):
            for c, mc in enumerate(modes):
                g_modes[mr, :, mc] = block[r, :, c]
        s = s @ g
    return s


def symplectic_eigenvalues(gamma) -> np.ndarray:
    """The N symplectic eigenvalues of gamma, sorted ascending.

    These are the moduli of the eigenvalues of i*Sigma*gamma, which come in
    (+nu, -nu) pairs; the pairs are deduplicated to N values.  Computed via
    the Hermitian matrix gamma^(1/2) (i Sigma) gamma^(1/2), which is better
    conditioned than the plain non-symmetric eigenproblem.
    """
    gamma = _even_square(gamma, "covariance matrix")
    n_modes = gamma.shape[0] // 2
    sym = 0.5 * (gamma + gamma.T)
    evals, evecs = np.linalg.eigh(sym)
    if evals[0] < -DEFAULT_TOL * max(1.0, evals[-1]):
        raise ValueError("covariance matrix is not positive semidefinite")
    root = (evecs * np.sqrt(np.clip(evals, 0.0, None))) @ evecs.T
    herm = root @ (1j * symplectic_form(n_modes)) @ root
    nu = np.sort(np.abs(np.linalg.eigvalsh(herm)))
    return nu[::2]


_PAIR_BAND = 1e-8


def euler_decompose(s):
    """Factor a symplectic matrix as S = O1 @ D @ O2.

    O1 and O2 are orthogonal and symplectic, D = diag(k1, 1/k1, ..., kN, 1/kN)
    with k_i >= 1 sorted descending.  The factorisation is not unique for
    degenerate k_i; only the recomposition is guaranteed.

    Method: eigendecompose the symmetric positive-definite symplectic matrix
    S S^T, whose eigenvalues come in (k^2, 1/k^2) pairs with the partner
    eigenvector -Sigma v.  Assembling the paired vectors column-wise gives an
    orthogonal symplectic O1, and O2 = D^-1 O1^T S.
    """
    s = _even_square(s, "symplectic matrix")
    if not check_symplectic(s):
        raise ValueError("input is not symplectic within tolerance")
    n_modes = s.shape[0] // 2
    sigma = symplectic_form(n_modes)

    gram = s @ s.T
    gram = 0.5 * (gram + gram.T)
    evals, evecs = np.linalg.eigh(gram)

    band = _PAIR_BAND * max(1.0, float(evals[-1]))
    big = [i for i in range(len(evals)) if evals[i] > 1.0 + band]
    unit = [i for i in range(len(evals)) if abs(evals[i] - 1.0) <= band]

    pairs: list[tuple[float, np.ndarray]] = []  # (k, column vector u)
    for i in sorted(big, key=lambda i: -evals[i]):
        pairs.append((float(np.sqrt(evals[i])), evecs[:, i]))

    # eigenvalue-1 subspace: build a symplectically paired orthonormal basis
    basis = [evecs[:, i] for i in unit]
    while basis:
        u = basis.pop(0)
        u = u / np.linalg.norm(u)
        w = -sigma @ u
        pairs.append((1.0, u))
        kept = []
        for v in basis:
            v = v - (u @ v) * u - (w @ v) * w
            norm = np.linalg.norm(v)
            if norm > 1e-6:
                kept.append(v / norm)
        basis = kept

    if len(pairs) != n_modes:
        raise RuntimeError("failed to pair the singular-value spectrum")

    o1 = np.empty_like(s)
    d = np.empty(2 * n_modes)
    for j, (k, u) in enumerate(pairs):
        o1[:, 2 * j] = u
        o1[:, 2 * j + 1] = -sigma @ u
        d[2 * j] = k
        d[2 * j + 1] = 1.0 / k
    d_mat = np.diag(d)
    o2 = np.diag(1.0 / d) @ o1.T @ s
    return o1, d_mat, o2
