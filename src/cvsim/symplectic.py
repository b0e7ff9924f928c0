"""Phase-space linear algebra for Gaussian states.

Conventions used throughout the package:

* quadratures are ordered (x1, p1, ..., xN, pN),
* hbar = 1 and the vacuum covariance matrix is the identity,
* a covariance matrix gamma is physical iff gamma + i*Sigma >= 0.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

DEFAULT_TOL = 1e-9  # absolute tolerance of every validity test; not a parameter

_SIGMA_1 = np.array([[0.0, 1.0], [-1.0, 0.0]])


def _is_real(value) -> bool:
    """Whether ``value`` is a real number, which a string is not: a Python or
    numpy real scalar, or a 0-d array of one."""
    if isinstance(value, np.ndarray):
        return value.ndim == 0 and value.dtype.kind in "biuf"
    return isinstance(value, (int, float, numbers.Real))  # int and float skip the slower ABC check


def _is_integer(value, low: float, high: float = math.inf) -> bool:
    """Whether ``value`` is a real number and an integer in [low, high)."""
    return _is_real(value) and float(value).is_integer() and low <= value < high


def _real_array(x, name: str) -> np.ndarray:
    """``x`` as a float array; ValueError naming ``name`` unless its entries
    are real numbers (bool, int or float), which strings and complex numbers
    are not."""
    x = np.asarray(x)
    if x.dtype.kind not in "biuf":
        raise ValueError(f"{name} must hold real numbers, got dtype {x.dtype}")
    return x.astype(float, copy=False)


def _check_mode_count(n_modes) -> int:
    """The mode count as an int: every state and symplectic form has an
    integral number of modes, at least one; else ValueError."""
    if not _is_integer(n_modes, -math.inf):
        raise ValueError(f"mode count must be an integer, got {n_modes!r}")
    if not n_modes >= 1:
        raise ValueError(f"mode count must be positive, got {n_modes!r}")
    return int(n_modes)


@lru_cache(maxsize=16)
def symplectic_form(n_modes: int) -> np.ndarray:
    """Return the 2N x 2N symplectic form, N blocks of [[0, 1], [-1, 0]].

    The array is built once per mode count and shared, so it is read-only.
    """
    sigma = np.kron(np.eye(_check_mode_count(n_modes)), _SIGMA_1)
    sigma.setflags(write=False)
    return sigma


def _mode_index(mode, n_modes: int) -> int:
    """The mode index as an int; ValueError unless an integer in [0, n_modes)."""
    if not _is_integer(mode, 0, n_modes):
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
    """Counter-clockwise single-mode phase-space rotation by a finite theta."""
    c, s = np.cos(_check_finite(theta, "theta")), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def _check_finite(x, name: str, core: int | None = None):
    """``x``; ValueError naming ``name`` unless the scalar ``x`` is a finite
    real number or each entry of the array ``x`` is finite.  ``core`` as in
    _check_each, default x.ndim."""
    if not isinstance(x, np.ndarray) or x.ndim == 0:
        if not _is_real(x):
            raise ValueError(f"{name} must be a real number, got {x!r}")
        if not math.isfinite(x):
            raise ValueError(f"{name} must be finite, got {float(x)!r}")
    else:
        _check_each(np.isfinite(x), f"{name} has non-finite entries", x.ndim if core is None else core)
    return x


def _check_rule(x, ok, message: str, name: str):
    """``x`` if a real number, else as a float array; ValueError unless
    ``ok`` holds for each value.  The text is message.format(v): v is a
    scalar ``x`` itself, which fails too where it is not a real number, or
    the first failing entry of an array, whose index the text then names.
    ``name`` names an array whose entries are not real numbers."""
    if _is_real(x) or not np.ndim(x):
        if not (_is_real(x) and ok(x)):
            raise ValueError(message.format(x))
        return x
    x = _real_array(x, name)
    _check_each(ok(x), lambda i: message.format(float(x[i])))
    return x


def _check_matrix(m, name: str, size=None, stack=False, even=True, symmetric=False) -> np.ndarray:
    """The matrix rule: ``m`` as a finite real array of shape (n, n), or
    with ``stack`` (..., n, n); n is ``size`` if given, and with ``even``
    2N for N >= 1 modes.  With ``symmetric``, the symmetry rule too.  Else
    ValueError naming ``name``."""
    m = _real_array(m, name)
    if m.ndim < 2 or (m.ndim > 2 and not stack) or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    if even:
        if m.shape[-1] % 2 != 0:
            raise ValueError(f"{name} must have even dimension, got {m.shape[-1]}")
        _check_mode_count(m.shape[-1] // 2)
    if size is not None and m.shape[-1] != size:
        raise ValueError(f"{name} must be {size}x{size}, got shape {m.shape}")
    _check_finite(m, name, core=2)
    if symmetric:
        _check_symmetric(m, name)
    return m


def _check_vector(v, name: str, length: int | None = None, stack: bool = False) -> np.ndarray:
    """The vector rule: ``v`` as a finite real array of shape (length,), any
    length if None, or with ``stack`` (..., length); else ValueError naming ``name``."""
    v = _real_array(v, name)
    if v.ndim < 1 or (v.ndim > 1 and not stack) or length not in (None, v.shape[-1]):
        of_length = "" if length is None else f" of length {length}"
        raise ValueError(f"{name} must be a vector{of_length}, got shape {v.shape}")
    return _check_finite(v, name, core=1)


def _check_symmetric(m: np.ndarray, name: str):
    """The symmetry rule on a finite matrix or stack: max|m - m^T| <= 1e-10
    * max(1, max|m|) per matrix, else ValueError naming ``name``; returns
    max(1, max|m|)."""
    scale = np.abs(m).max(axis=(-2, -1), initial=1.0)
    asymmetry = np.abs(m - m.swapaxes(-1, -2)).max(axis=(-2, -1), initial=0.0)
    _check_each(asymmetry <= 1e-10 * scale, f"{name} must be symmetric")
    return scale


def _own(record, **arrays) -> None:
    """Set each checked array on the frozen dataclass ``record`` as the
    record's own read-only copy: a caller's later write cannot reach it."""
    for name, value in arrays.items():
        value = value.copy()
        value.setflags(write=False)
        object.__setattr__(record, name, value)


_EXP_MAX = math.log(sys.float_info.max)  # ~709.78; exp overflows past it


def _check_squeezing(name: str, value: float, limit: float, overflowing: str) -> None:
    """The squeezing-range rule: ValueError where |value| > limit, before
    ``overflowing`` would overflow, and where value is NaN or not a real number."""
    if _is_real(value) and abs(value) > limit:
        raise ValueError(f"|{name}| = {abs(value)!r} is past {limit:.5g}, where {overflowing} overflows")
    _check_finite(value, name)


def _check_each(ok, message, core: int = 0, error=ValueError) -> None:
    """Raise error(message) unless ``ok`` holds everywhere.  ``ok`` has the
    stack's shape followed by ``core`` axes within one matrix.  ``message``
    may be a function of the first failing stack index; for a stack, the
    text ends by naming that index."""
    if not (np.count_nonzero(ok) == ok.size if ok.ndim else ok):  # ok.all(), or a 0-d reduction, costs ~1 us more
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


def _check_physical(gamma: np.ndarray, name: str, scale=1.0) -> None:
    """The physicality rule on a checked matrix or stack: min eig(gamma +
    i Sigma) >= -DEFAULT_TOL * scale per matrix, else ValueError "<name> is
    unphysical".  A caller passes max|gamma| as the scale where eigenvalue
    noise of a representable boundary state grows with the matrix norm."""
    _check_each(_min_eigenvalue(gamma) >= -DEFAULT_TOL * scale, f"{name} is unphysical")


def validate_covariance(gamma) -> CovarianceReport:
    """Test the uncertainty relation gamma + i*Sigma >= 0.

    ``gamma`` is (2N, 2N), giving a bool and a float, or a stack
    (..., 2N, 2N), giving arrays of shape (...).  The input is symmetrised
    as (gamma + gamma.T)/2 before testing so that representation noise
    cannot flip the verdict.
    """
    min_eig = _min_eigenvalue(_check_matrix(gamma, "covariance matrix", stack=True))
    return CovarianceReport(physical=_result(min_eig >= -DEFAULT_TOL), min_eigenvalue=_result(min_eig))


def check_symplectic(s) -> bool:
    """True iff ||S Sigma S^T - Sigma||_max <= DEFAULT_TOL."""
    s = _check_matrix(s, "symplectic candidate")
    sigma = symplectic_form(s.shape[0] // 2)
    return bool(np.max(np.abs(s @ sigma @ s.T - sigma)) <= DEFAULT_TOL)


@dataclass(frozen=True, eq=False)
class Gate:
    """One elementary symplectic gate: the 2k x 2k matrix ``block`` acting on
    the k listed ``modes`` (in that order) and as the identity elsewhere.
    The block is checked (finite, real, 2k x 2k) and copied read-only when
    the gate is built."""

    modes: tuple[int, ...]
    block: np.ndarray

    def __post_init__(self):
        _own(self, block=_check_matrix(self.block, "gate block", 2 * len(self.modes)))


def rotation(mode: int, theta: float) -> Gate:
    return Gate((mode,), rotation_matrix(theta))


def squeeze(mode: int, zeta: float) -> Gate:
    """ValueError where |zeta| > ln(float max) ~ 709.78, past which e^|zeta| overflows, or zeta is NaN."""
    _check_squeezing("zeta", zeta, _EXP_MAX, "exp(|zeta|)")
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

    Each gate's block is written into the 2N x 2N identity at the rows and
    columns of both quadratures of each of its modes, in the gate's order.
    An empty gate list yields the identity; a mode count N that is not an
    integer >= 1, or a mode that is not an integer in [0, N), raises
    ValueError.
    """
    n_modes = _check_mode_count(n_modes)
    s = np.eye(2 * n_modes)
    for gate in gates:
        modes = [_mode_index(m, n_modes) for m in gate.modes]
        rows = np.array([2 * m + q for m in modes for q in (0, 1)], dtype=int)  # both quadratures of each mode
        g = np.eye(2 * n_modes)
        g[rows[:, None], rows] = gate.block
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
    return _spectrum(_check_matrix(gamma, "covariance matrix", stack=True))


def euler_decompose(s):
    """Factor a symplectic matrix as S = O1 @ D @ O2.

    O1 and O2 are orthogonal and symplectic, D = diag(k1, 1/k1, ..., kN, 1/kN)
    with k_i >= 1 sorted descending.  The factorisation is not unique for
    degenerate k_i.  ValueError unless the factors pass the cross-check:
    check_symplectic on O1 and O2, and O1 D O2 = S to DEFAULT_TOL max(1, max|S|).

    Method: eigendecompose the symmetric positive-definite symplectic matrix
    S S^T, whose eigenvalues come in (k^2, 1/k^2) pairs with the partner
    eigenvector -Sigma v.  In descending order, each eigenvector is
    orthogonalised against the pairs kept so far and kept with its partner
    unless it was a partner itself (nothing of it is left), so O1 is
    orthogonal and symplectic even where eigh mixes k^2 and 1/k^2 at k ~ 1.
    O2 = D^-1 O1^T S.
    """
    s = _check_matrix(s, "symplectic matrix")
    if not check_symplectic(s):
        raise ValueError("input is not symplectic within tolerance")
    n_modes = s.shape[0] // 2
    sigma = symplectic_form(n_modes)

    gram = s @ s.T
    evals, evecs = np.linalg.eigh(0.5 * (gram + gram.T))
    o1, ks = np.empty_like(s), []
    for e, v in zip(evals[::-1], evecs.T[::-1]):
        kept = o1[:, : 2 * len(ks)]
        u = v - kept @ (kept.T @ v)
        if len(ks) < n_modes and np.linalg.norm(u) > 1e-6:
            o1[:, 2 * len(ks)] = u = u / np.linalg.norm(u)
            o1[:, 2 * len(ks) + 1] = -sigma @ u
            ks.append(np.sqrt(max(e, 1.0)))
    if len(ks) == n_modes:
        d = np.ravel([(k, 1.0 / k) for k in ks])
        d_mat, o2 = np.diag(d), np.diag(1.0 / d) @ o1.T @ s
        recomposed = np.max(np.abs(o1 @ d_mat @ o2 - s)) <= DEFAULT_TOL * max(1.0, np.max(np.abs(s)))
        if recomposed and check_symplectic(o1) and check_symplectic(o2):
            return o1, d_mat, o2
    raise ValueError("Euler factors fail the symplectic or recomposition cross-check")
