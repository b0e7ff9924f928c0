"""Truncated Fock-space oracle.

Everything here is brute force on purpose: the module exists to verify the
covariance-matrix machinery against an independent representation, so it
shares no formulas with the Gaussian modules beyond the quadrature
conventions (x = (a + a^dag)/sqrt(2), gamma = twice the symmetrised
covariance, vacuum gamma = 1) and the conversion of a natural logarithm
to the requested log base.

Both unitaries are exponentials of real antisymmetric generators, so
each is taken through the Hermitian eigenproblem of 1j * gen, which keeps
the module on numpy alone.  The squeezer is one d x d eigen-solve.  The
loss beamsplitter conserves the total photon number n1 + n2 (Campos, Saleh
and Teich, PRA 40, 1371 (1989)), so its generator is a direct sum of
blocks of size at most d; each input |m, 0> needs only the (m + 1)-sized
block n1 + n2 = m, never the dense d^2 x d^2 generator.

The two d^2 x d^2 kernels, the loss superoperator product and the
eigen-solve of the partial transpose, run block by block.  Loss keeps the
ket-minus-bra photon number of its mode, so the superoperator is zero
between different values of it.  A state that commutes with n1 - n2 (a
TMSV, with or without loss on either arm) has a partial transpose that is
zero between different total photon numbers; E_N is the log of its trace
norm (Vidal and Werner, PRA 65, 032314 (2002)).  At cutoff 25 either
matrix is 51 blocks of size at most 26.  _blocks reads the blocks off the
exact zeros of the matrix at hand, not off this physics, so the result is
the dense one for any input, and a dense matrix is one block.

Loss with thermal occupation is out of scope; all oracle checks run at
n_th = 0.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .entanglement import _check_base, _to_base
from .symplectic import _check_mode_count

DEFAULT_CUTOFF = 25
DEFAULT_GRID = (-8.0, 8.0, 801)

# Probability the truncation may cost: the weight dropped by a state
# constructor (else ValueError) and the population at the cutoff level
# that log_negativity_fock tolerates (else a warning).
_TRUNCATION_BUDGET = 1e-6
_PURITY_TOL = 1e-6


@dataclass(frozen=True)
class FockState:
    """Density matrix over a truncated product Fock basis.

    ``tensor`` has shape (d, ..., d) with the ket indices first and the bra
    indices last (d = cutoff + 1); ``trunc_weight`` is the probability lost
    to the truncation when the state was built.  ``modes`` must be at least
    1, else ValueError.
    """

    modes: int
    cutoff: int
    tensor: np.ndarray
    trunc_weight: float = 0.0

    def __post_init__(self):
        _check_mode_count(self.modes)
        d = self.cutoff + 1
        expected = (d,) * (2 * self.modes)
        tensor = np.asarray(self.tensor, dtype=complex)
        if tensor.shape != expected:
            raise ValueError(f"tensor shape {tensor.shape} != {expected}")
        object.__setattr__(self, "tensor", tensor)

    @property
    def dim(self) -> int:
        return (self.cutoff + 1) ** self.modes

    @property
    def matrix(self) -> np.ndarray:
        return self.tensor.reshape(self.dim, self.dim)

    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    def purity(self) -> float:
        return _trace_product(self.matrix, self.matrix)


def _trace_product(a: np.ndarray, b: np.ndarray) -> float:
    """Re Tr[a b] as the elementwise sum of a and b^T, without forming a b."""
    return float(np.sum(a * b.T).real)


def _from_matrix(matrix: np.ndarray, modes: int, cutoff: int, weight: float = 0.0) -> FockState:
    d = cutoff + 1
    return FockState(modes, cutoff, matrix.reshape((d,) * (2 * modes)), weight)


def vacuum_fock(modes: int = 1, cutoff: int = DEFAULT_CUTOFF) -> FockState:
    """Vacuum |0, ..., 0> of ``modes`` modes, at least 1, else ValueError."""
    _check_mode_count(modes)
    return number_state_fock([0] * modes, cutoff)


def number_state_fock(ns, cutoff: int = DEFAULT_CUTOFF) -> FockState:
    """Product number state |n1, n2, ...><...|.

    ValueError unless at least one occupation is given and each is an
    integer in [0, cutoff]; 1.7 is not read as 1.
    """
    ns = np.atleast_1d(np.asarray(ns, dtype=float))
    if not np.all((ns >= 0) & (ns <= cutoff) & (ns == np.round(ns))):
        raise ValueError(f"occupations must be integers in [0, {cutoff}], got {ns.tolist()}")
    d = cutoff + 1
    idx = 0
    for n in ns:
        idx = idx * d + int(n)
    vec = np.zeros(d ** len(ns), dtype=complex)
    vec[idx] = 1.0
    return _from_matrix(np.outer(vec, vec.conj()), len(ns), cutoff)


def build_tmsv_fock(zeta: float, cutoff: int = DEFAULT_CUTOFF) -> FockState:
    """Two-mode squeezed vacuum sqrt(1-q^2) sum_n q^n |nn>, q = tanh(zeta).

    The expansion is truncated at the cutoff and renormalised; the dropped
    weight q^(2(cutoff+1)) is reported on the state and must not exceed
    the truncation budget 1e-6.  A non-finite zeta raises ValueError.
    """
    if not np.isfinite(zeta):
        raise ValueError(f"squeezing must be finite, got {zeta!r}")
    q = np.tanh(zeta)
    d = cutoff + 1
    weight = float(q ** (2 * d))
    if weight > _TRUNCATION_BUDGET:
        raise ValueError(
            f"truncation weight {weight:.3e} exceeds the budget {_TRUNCATION_BUDGET:.1e}; raise the cutoff"
        )
    amps = np.sqrt(1.0 - q * q) * q ** np.arange(d)
    psi = np.zeros((d, d), dtype=complex)
    np.fill_diagonal(psi, amps)
    psi = psi.reshape(-1)
    psi /= np.linalg.norm(psi)
    return _from_matrix(np.outer(psi, psi.conj()), 2, cutoff, weight)


def _blocks(m: np.ndarray) -> list[np.ndarray]:
    """Index sets of the connected components of the nonzero pattern
    (m != 0) | (m.T != 0) of a square matrix, each sorted.

    m is block diagonal over these sets up to a permutation, exactly, so a
    product or eigen-solve may run block by block; a dense m is one block.
    """
    nonzero = m != 0
    linked = nonzero | nonzero.T
    label = np.full(len(m), -1)
    blocks = []
    while (free := np.flatnonzero(label < 0)).size:
        frontier = free[:1]
        while frontier.size:
            label[frontier] = len(blocks)
            frontier = np.flatnonzero(linked[frontier].any(axis=0) & (label < 0))
        blocks.append(np.flatnonzero(label == len(blocks)))
    return blocks


def _destroy(d: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, d, dtype=float)), k=1)


def _expm_antisymmetric(gen: np.ndarray) -> np.ndarray:
    """exp(gen) for a real antisymmetric gen: with 1j gen = V diag(w) V^dag
    Hermitian, exp(gen) = V diag(e^-iw) V^dag, which is real."""
    w, v = np.linalg.eigh(1j * gen)
    return ((v * np.exp(-1j * w)) @ v.conj().T).real


@lru_cache(maxsize=32)
def _loss_kraus(cutoff: int, transmittance: float) -> np.ndarray:
    """Kraus operators of the loss channel, stacked as kraus[k] = E_k.

    The mode is coupled to a vacuum ancilla by U = exp[theta (a^dag g -
    a g^dag)] with cos^2(theta) = transmittance, and the ancilla is traced
    out: E_k = <k|U|0>.  Its only nonzero column entries E_k[m - k, m] =
    <m - k, k|U|m, 0> come from the block n1 + n2 = m, spanned by |i, m - i>,
    which fits under the cutoff, so the truncation is exact.  Read-only,
    because the array is cached.
    """
    d = cutoff + 1
    theta = np.arccos(np.sqrt(transmittance))
    kraus = np.zeros((d, d, d))
    for m in range(d):
        i = np.arange(m + 1)
        hop = theta * np.sqrt(i[1:] * (m + 1.0 - i[1:]))  # <i, m-i| gen |i-1, m-i+1>
        column = _expm_antisymmetric(np.diag(hop, -1) - np.diag(hop, 1))[:, m]
        kraus[m - i, i, m] = column
    kraus.setflags(write=False)
    return kraus


def apply_loss_fock(state: FockState, mode: int, transmittance: float) -> FockState:
    """Transmit one mode through a beamsplitter of the given power
    transmittance with a vacuum ancilla behind it, tracing out the ancilla.

    The Kraus sum is the superoperator L[(a, b), (m, n)] = sum_k E_k[a, m]
    E_k[b, n]* applied to the mode's (ket, bra) axes as a matrix product,
    one per block of L's nonzero pattern (a - b = m - n, since
    E_k[a, m] = 0 unless a = m - k); E_k and so L are real, which lets one
    real product cover both parts.
    """
    if not 0.0 <= transmittance <= 1.0:
        raise ValueError("transmittance must lie in [0, 1]")
    if not 0 <= mode < state.modes:
        raise ValueError("mode index out of range")
    if transmittance == 1.0:
        return state
    d = state.cutoff + 1
    kraus = _loss_kraus(state.cutoff, float(transmittance))  # (k, a, m)
    pairs = kraus.transpose(1, 2, 0).reshape(d * d, d) @ kraus.reshape(d, d * d)  # ((a, m), (b, n))
    sup = pairs.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)
    axes = (mode, state.modes + mode)
    moved = np.ascontiguousarray(np.moveaxis(state.tensor, axes, (0, 1)))
    flat = moved.reshape(d * d, -1).view(float)
    out = np.empty_like(flat)
    for idx in _blocks(sup):
        out[idx] = sup[np.ix_(idx, idx)] @ flat[idx]
    out = np.ascontiguousarray(np.moveaxis(out.view(complex).reshape(moved.shape), (0, 1), axes))
    return FockState(state.modes, state.cutoff, out, state.trunc_weight)


def partial_trace(state: FockState, keep) -> FockState:
    keep = sorted(set(keep))
    drop = [m for m in range(state.modes) if m not in keep]
    tensor = state.tensor
    for m in sorted(drop, reverse=True):
        tensor = np.trace(tensor, axis1=m, axis2=tensor.ndim // 2 + m)
    return FockState(len(keep), state.cutoff, tensor, state.trunc_weight)


def _quadrature_ops(cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    a = _destroy(cutoff + 1)
    x = (a + a.T) / np.sqrt(2.0)
    p = (a - a.T) / (1j * np.sqrt(2.0))
    return x, p.astype(complex)


def covariance_from_fock(state: FockState) -> tuple[np.ndarray, np.ndarray]:
    """Extract (kappa, gamma) by taking first and second moments.

    Each moment contracts the ket/bra tensor with d x d quadratures: a
    same-mode pair is a trace of the one-mode reduced matrix, a cross-mode
    pair is 2 Tr[rho (A (x) B)].  One or two modes cover every oracle check.
    """
    if state.modes > 2:
        raise ValueError("moment extraction supports at most two modes")
    x, p = _quadrature_ops(state.cutoff)
    reduced = [partial_trace(state, [m]).tensor for m in range(state.modes)]
    quads = [(m, op) for m in range(state.modes) for op in (x, p)]
    kappa = np.array([np.trace(reduced[m] @ op).real for m, op in quads])
    dim = 2 * state.modes
    gamma = np.empty((dim, dim))
    for i in range(dim):
        for j in range(i, dim):
            (mi, a), (mj, b) = quads[i], quads[j]
            if mi == mj:
                second = np.trace(reduced[mi] @ (a @ b + b @ a)).real
            else:
                second = 2.0 * np.einsum("ijkl,ki,lj->", state.tensor, a, b).real
            gamma[i, j] = gamma[j, i] = second - 2.0 * kappa[i] * kappa[j]
    return kappa, gamma


def _boundary_population(state: FockState) -> float:
    """Largest diagonal probability with any mode at the cutoff level."""
    diag = np.real(np.diagonal(state.matrix))
    d = state.cutoff + 1
    probs = diag.reshape((d,) * state.modes)
    worst = 0.0
    for m in range(state.modes):
        worst = max(worst, float(np.take(probs, -1, axis=m).sum()))
    return worst


def log_negativity_fock(state: FockState, base="e") -> float:
    """Trace-norm logarithmic negativity of a two-mode density matrix.

    The partial transpose swaps the second mode's ket and bra indices; the
    result is log of the sum of absolute eigenvalues, solved block by block
    over its nonzero pattern.
    """
    if state.modes != 2:
        raise ValueError("log negativity needs a bipartite state")
    _check_base(base)
    if _boundary_population(state) > _TRUNCATION_BUDGET:
        warnings.warn("cutoff boundary population exceeds budget; result may be truncation dominated")
    d = state.cutoff + 1
    pt = state.tensor.transpose(0, 3, 2, 1).reshape(d * d, d * d)
    blocks = (pt[np.ix_(idx, idx)] for idx in _blocks(pt))
    trace_norm = sum(float(np.sum(np.abs(np.linalg.eigvalsh(block)))) for block in blocks)
    return float(_to_base(np.log(trace_norm), base))


def overlap_fock(state_a: FockState, state_b: FockState) -> float:
    """<psi_a| rho_b |psi_a> as Tr[rho_a rho_b]; state_a must be pure."""
    if state_a.modes != state_b.modes or state_a.cutoff != state_b.cutoff:
        raise ValueError("states must live on the same truncated space")
    if abs(state_a.purity() - 1.0) > _PURITY_TOL:
        raise ValueError("first argument must be a pure state")
    return _trace_product(state_a.matrix, state_b.matrix)


@dataclass(frozen=True)
class QuadratureWavefunctionTable:
    """Harmonic-oscillator eigenfunctions psi_n sampled on a grid.

    Built by the stable two-term recurrence
    psi_n = sqrt(2/n) X psi_(n-1) - sqrt((n-1)/n) psi_(n-2),
    which avoids the factorial overflow of the closed form.
    """

    grid: np.ndarray
    values: np.ndarray  # shape (n_max + 1, len(grid))

    @classmethod
    def build(cls, grid, n_max: int) -> "QuadratureWavefunctionTable":
        grid = np.asarray(grid, dtype=float)
        values = np.empty((n_max + 1, grid.size))
        values[0] = np.pi**-0.25 * np.exp(-0.5 * grid**2)
        if n_max >= 1:
            values[1] = np.sqrt(2.0) * grid * values[0]
        for n in range(2, n_max + 1):
            values[n] = np.sqrt(2.0 / n) * grid * values[n - 1] - np.sqrt((n - 1.0) / n) * values[n - 2]
        return cls(grid=grid, values=values)


def default_grid() -> np.ndarray:
    lo, hi, num = DEFAULT_GRID
    return np.linspace(lo, hi, num)


@dataclass(frozen=True)
class HomodyneFockResult:
    grid: np.ndarray
    pdf: np.ndarray


def _quadrature_amplitudes(cutoff: int, phi: float, grid: np.ndarray) -> np.ndarray:
    """<n|X,phi> for every grid point X, shape (n_points, d)."""
    table = QuadratureWavefunctionTable.build(grid, cutoff)
    return np.exp(1j * phi * np.arange(cutoff + 1))[None, :] * table.values.T


def homodyne_povm_fock(state: FockState, mode: int, phi: float = 0.0, grid=None) -> HomodyneFockResult:
    """Outcome density of projecting one mode onto quadrature eigenstates |X, phi>.

    phi = 0 is an x measurement and phi = pi/2 a p measurement.  The density
    p(X) = <X,phi| rho_mode |X,phi> needs only the mode's reduced matrix.
    """
    if not 0 <= mode < state.modes:
        raise ValueError("mode index out of range")
    grid = default_grid() if grid is None else np.asarray(grid, dtype=float)
    amps = _quadrature_amplitudes(state.cutoff, phi, grid)
    reduced = partial_trace(state, [mode]).tensor
    pdf = np.einsum("gm,mn,gn->g", amps.conj(), reduced, amps).real
    return HomodyneFockResult(grid=grid, pdf=pdf)


def homodyne_conditional_fock(state: FockState, mode: int, x: float, phi: float = 0.0) -> FockState:
    """Renormalised state of the other modes after the quadrature of
    ``mode`` at angle phi reads x; ValueError if x has zero density."""
    if state.modes < 2:
        raise ValueError("conditioning needs a state of at least two modes")
    if not 0 <= mode < state.modes:
        raise ValueError("mode index out of range")
    if not np.isfinite(x):
        raise ValueError(f"homodyne record must be finite, got {x!r}")
    amp = _quadrature_amplitudes(state.cutoff, phi, np.array([float(x)]))[0]
    moved = np.moveaxis(state.tensor, (mode, state.modes + mode), (0, 1))
    sigma = np.einsum("m,mn...,n->...", amp.conj(), moved, amp)
    rest = (state.cutoff + 1) ** (state.modes - 1)
    prob = np.trace(sigma.reshape(rest, rest)).real
    if not prob > 0.0:
        raise ValueError(f"homodyne record {x!r} has zero density")
    return FockState(state.modes - 1, state.cutoff, sigma / prob, state.trunc_weight)


def _squeeze_unitary(d: int, zeta: float) -> np.ndarray:
    """Fock-space squeezer whose phase-space action is diag(e^zeta, e^-zeta)."""
    a = _destroy(d)
    return _expm_antisymmetric((-zeta / 2.0) * (a @ a - a.T @ a.T))


def _rotation_unitary(d: int, theta: float) -> np.ndarray:
    """Fock-space phase shifter acting as the counter-clockwise R(theta)."""
    n = np.arange(d, dtype=float)
    return np.diag(np.exp(1j * theta * n))


def gaussian_fock(gamma, cutoff: int = DEFAULT_CUTOFF) -> FockState:
    """Single-mode Gaussian state (zero mean) as a Fock density matrix.

    Decomposes gamma = R(theta) diag(nu k^2, nu/k^2) R(theta)^T and builds
    the rotated, squeezed thermal state with the matching unitaries; the
    thermal tail beyond the cutoff must not exceed the budget 1e-6.  A
    covariance with a non-finite entry raises ValueError.
    """
    gamma = np.asarray(gamma, dtype=float)
    if gamma.shape != (2, 2):
        raise ValueError("expected a single-mode covariance matrix")
    if not np.all(np.isfinite(gamma)):
        raise ValueError(f"covariance matrix must be finite, got {gamma.tolist()}")
    nu = float(np.sqrt(np.linalg.det(gamma)))
    if nu < 1.0 - 1e-9:
        raise ValueError("covariance matrix is unphysical")
    evals, evecs = np.linalg.eigh(0.5 * (gamma + gamma.T))
    zeta = 0.5 * np.log(evals[1] / nu)
    theta = float(np.arctan2(evecs[1, 1], evecs[0, 1]))

    d = cutoff + 1
    n_bar = (nu - 1.0) / 2.0
    if n_bar <= 0.0:
        probs = np.zeros(d)
        probs[0] = 1.0
        weight = 0.0
    else:
        mu = n_bar / (n_bar + 1.0)
        probs = (1.0 - mu) * mu ** np.arange(d)
        weight = float(mu**d)
        if weight > _TRUNCATION_BUDGET:
            raise ValueError(f"thermal tail {weight:.3e} exceeds the budget; raise the cutoff")
        probs = probs / probs.sum()
    rho = np.diag(probs).astype(complex)
    u = _rotation_unitary(d, theta) @ _squeeze_unitary(d, float(zeta))
    rho = u @ rho @ u.conj().T
    return _from_matrix(rho, 1, cutoff, weight)
