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


@dataclass(frozen=True)
class Gate:
    """One elementary symplectic gate.

    kind is "rotation" (modes=(m,), param=theta), "squeeze"
    (modes=(m,), param=zeta, matrix diag(e^zeta, e^-zeta)) or
    "beamsplitter" (modes=(i, j), symmetric 50:50, no parameter).
    """

    kind: str
    modes: tuple[int, ...]
    param: float = 0.0


def rotation(mode: int, theta: float) -> Gate:
    return Gate("rotation", (mode,), float(theta))


def squeeze(mode: int, zeta: float) -> Gate:
    return Gate("squeeze", (mode,), float(zeta))


def beamsplitter(mode_i: int, mode_j: int) -> Gate:
    if mode_i == mode_j:
        raise ValueError("beamsplitter needs two distinct modes")
    return Gate("beamsplitter", (mode_i, mode_j))


def _embed_single(block: np.ndarray, mode: int, n_modes: int) -> np.ndarray:
    s = np.eye(2 * n_modes)
    s[2 * mode : 2 * mode + 2, 2 * mode : 2 * mode + 2] = block
    return s


def _gate_matrix(gate: Gate, n_modes: int) -> np.ndarray:
    """The 2N x 2N symplectic matrix of one gate."""
    for m in gate.modes:
        if not 0 <= m < n_modes:
            raise ValueError(f"mode index {m} out of range for {n_modes} modes")
    if gate.kind == "rotation":
        return _embed_single(rotation_matrix(gate.param), gate.modes[0], n_modes)
    if gate.kind == "squeeze":
        z = gate.param
        return _embed_single(np.diag([np.exp(z), np.exp(-z)]), gate.modes[0], n_modes)
    if gate.kind == "beamsplitter":
        i, j = gate.modes
        s = np.eye(2 * n_modes)
        eye2 = np.eye(2) / np.sqrt(2.0)
        s[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = eye2
        s[2 * j : 2 * j + 2, 2 * j : 2 * j + 2] = eye2
        s[2 * i : 2 * i + 2, 2 * j : 2 * j + 2] = eye2
        s[2 * j : 2 * j + 2, 2 * i : 2 * i + 2] = -eye2
        return s
    raise ValueError(f"unknown gate kind {gate.kind!r}")


def build_symplectic(gates, n_modes: int) -> np.ndarray:
    """Ordered product of gate matrices; the leftmost gate acts last.

    An empty gate list yields the identity.
    """
    s = np.eye(2 * n_modes)
    for gate in gates:
        s = s @ _gate_matrix(gate, n_modes)
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
