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


def _even_square(m, name: str = "matrix", stack: bool = False) -> np.ndarray:
    """``m`` as a finite float array of shape (2N, 2N), N >= 1, or with
    ``stack`` of shape (..., 2N, 2N); else ValueError."""
    m = np.asarray(m, dtype=float)
    if m.ndim < 2 or (m.ndim > 2 and not stack) or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    if m.shape[-1] % 2 != 0:
        raise ValueError(f"{name} must have even dimension, got {m.shape[-1]}")
    _check_mode_count(m.shape[-1] // 2)
    _check_each(np.isfinite(m), f"{name} has non-finite entries", core=2)
    return m


def _check_each(ok, message, core: int = 0, error=ValueError) -> None:
    """Raise error(message) unless ``ok`` holds everywhere.  ``ok`` has the
    stack's shape followed by ``core`` axes within one matrix.  ``message``
    may be a function of the first failing stack index; for a stack, the
    text ends by naming that index."""
    if not (ok.all() if ok.ndim else ok):  # a 0-d reduction costs a microsecond
        index = tuple(np.argwhere(~ok)[0][: ok.ndim - core])
        text = message(index) if callable(message) else message
        raise error(text + (f" (stack index {', '.join(map(str, index))})" if index else ""))


def _result(x):
    """A per-matrix value: a Python scalar for one matrix, the array for a
    stack.  One matrix is a stack of shape (); its values are taken out with
    [()] as numpy scalars, whose arithmetic is several times faster than
    that of 0-d arrays."""
    return x.item() if x.ndim == 0 else x


@dataclass(frozen=True)
class CovarianceReport:
    """Verdict of the matrix uncertainty relation.

    ``min_eigenvalue`` is the smallest eigenvalue of the Hermitian matrix
    gamma + i*Sigma; the state is physical iff it is >= -DEFAULT_TOL.
    """

    physical: bool
    min_eigenvalue: float


def _min_eigenvalue(gamma: np.ndarray):
    """validate_covariance's min_eigenvalue of a checked stack."""
    sym = 0.5 * (gamma + gamma.swapaxes(-1, -2))
    return np.linalg.eigvalsh(sym + 1j * symplectic_form(gamma.shape[-1] // 2))[..., 0][()]


def validate_covariance(gamma) -> CovarianceReport:
    """Test the uncertainty relation gamma + i*Sigma >= 0.

    ``gamma`` is (2N, 2N), giving a bool and a float, or a stack
    (..., 2N, 2N), giving arrays of shape (...).  The input is symmetrised
    as (gamma + gamma.T)/2 before testing so that representation noise
    cannot flip the verdict.
    """
    min_eig = _min_eigenvalue(_even_square(gamma, "covariance matrix", stack=True))
    return CovarianceReport(physical=_result(min_eig >= -DEFAULT_TOL), min_eigenvalue=_result(min_eig))


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


def _spectrum(gamma: np.ndarray) -> np.ndarray:
    """symplectic_eigenvalues of a checked stack."""
    evals, evecs = np.linalg.eigh(0.5 * (gamma + gamma.swapaxes(-1, -2)))
    psd = evals[..., 0][()] >= -DEFAULT_TOL * np.maximum(1.0, evals[..., -1][()])
    _check_each(psd, "covariance matrix is not positive semidefinite")
    root = (evecs * np.sqrt(np.maximum(evals, 0.0))[..., np.newaxis, :]) @ evecs.swapaxes(-1, -2)
    herm = root @ (1j * symplectic_form(gamma.shape[-1] // 2)) @ root
    return np.sort(np.abs(np.linalg.eigvalsh(herm)), axis=-1)[..., ::2]


def symplectic_eigenvalues(gamma) -> np.ndarray:
    """The N symplectic eigenvalues of gamma, sorted ascending: shape (N,)
    for a (2N, 2N) gamma, (..., N) for a stack (..., 2N, 2N).

    These are the moduli of the eigenvalues of i*Sigma*gamma, which come in
    (+nu, -nu) pairs; the pairs are deduplicated to N values.  Computed via
    the Hermitian matrix gamma^(1/2) (i Sigma) gamma^(1/2), which is better
    conditioned than the plain non-symmetric eigenproblem.
    """
    return _spectrum(_even_square(gamma, "covariance matrix", stack=True))


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
