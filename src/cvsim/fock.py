"""Truncated Fock-space oracle.

Everything here is brute force on purpose: the module exists to verify the
covariance-matrix machinery against an independent representation, so it
shares no formulas with the Gaussian modules beyond the quadrature
conventions (x = (a + a^dag)/sqrt(2), gamma = twice the symmetrised
covariance, vacuum gamma = 1) and the conversion of a natural logarithm
to the requested log base.

The squeezer is exp of a real antisymmetric generator, one d x d
Hermitian eigen-solve of 1j * gen, which keeps the module on numpy alone.
Loss needs none: a beamsplitter with a vacuum ancilla drops each photon
on its own with probability 1 - tau (Campos, Saleh and Teich, PRA 40,
1371 (1989)), so each Kraus operator has one binomial entry per column;
the tests check the maps against the dense two-mode exponential.  Loss
keeps the ket-minus-bra photon number of its mode, so it acts on each
diagonal of the mode's (ket, bra) plane by itself, never through a
d^2 x d^2 superoperator.  E_N is the log of the trace norm of the partial
transpose (Vidal and Werner, PRA 65, 032314 (2002)).

Sector layout.  A state that commutes with n1 - n2 (a TMSV, with or
without loss on either arm) has rho[n1, n2, m1, m2] = 0 unless
n1 - m1 = n2 - m2 = s, which leaves 11 726 of the 456 976 entries at
cutoff 25.  build_tmsv_fock returns it, and apply_loss_fock keeps it, as
its sectors only: with d = cutoff + 1, sector s (|s| <= cutoff) is the
(d - |s|)^2 matrix Y_s[j1, j2] = rho[j1 + s, j2 + s, j1, j2] for s >= 0
and rho[j1, j2, j1 - s, j2 - s] for s < 0, all of them in one flat
array (see _sector_layout).  Loss on mode 0 is Y_s <- L_|s| Y_s and on
mode 1 Y_s <- Y_s L_|s|^T.  The partial transpose of such a state is zero
between different total photon numbers n1 + m2, so E_N solves its
2 * cutoff + 1 blocks of size at most d, 51 of size at most 26 at cutoff
25.  The reduced matrices come from Y_0 and the cross moments from Y_+-1.
No d^4 tensor is made on that path; ``tensor`` is built on its first read.
Every other state (number states, gaussian_fock, any FockState built from
a tensor) keeps the dense kernels, which are also the sector kernels'
reference in the tests: both give the same bits for the tensor, the
partial traces and the homodyne density.  A dense two-mode E_N is one
eigen-solve of the d^2 x d^2 partial transpose, so it differs from the
sector E_N, which solves the same spectrum block by block, only in
rounding.  A real tensor stays real (TMSV, number states, loss, partial
traces), which halves the 7.3 MB cutoff-25 tensor and the flops.
``import cvsim`` does not load this module; ``cvsim.fock`` loads it.

Loss with thermal occupation is out of scope; all oracle checks run at
n_th = 0.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .entanglement import _check_base, _to_base
from .symplectic import _check_finite, _check_matrix, _check_mode_count, _check_vector, _mode_index, _own

DEFAULT_CUTOFF = 25
DEFAULT_GRID = (-8.0, 8.0, 801)

# Probability the truncation may cost: the weight dropped by a state
# constructor (else ValueError) and the population at the cutoff level
# that log_negativity_fock tolerates (else a warning).
_TRUNCATION_BUDGET = 1e-6
_PURITY_TOL = 1e-6


@dataclass(frozen=True, eq=False, repr=False)
class FockState:
    """Density matrix over a truncated product Fock basis.

    ``tensor`` has shape (d, ..., d) with the ket indices first and the bra
    indices last (d = cutoff + 1); ``trunc_weight`` is the probability lost
    to the truncation when the state was built.  ``modes`` must be at least
    1, ``cutoff`` an integer >= 0 and every entry of ``tensor`` finite, else
    ValueError.  ``tensor`` is kept as float64 unless the input is complex,
    then as complex128; a real state stays real through loss and partial
    traces.  It may be a strided view (the dense apply_loss_fock returns
    one), so ``matrix`` may copy it.  build_tmsv_fock and apply_loss_fock
    return states held by their sectors (module docstring), whose
    ``tensor`` is built on its first read and kept read-only.  Neither
    ``repr`` nor ``==`` reads the tensor: ``repr`` shows the other fields
    under this class's name, for a sector state too, and two states are
    equal only if they are the same object.
    """

    modes: int
    cutoff: int
    tensor: np.ndarray
    trunc_weight: float = 0.0

    def __post_init__(self):
        _check_mode_count(self.modes)
        object.__setattr__(self, "cutoff", _check_cutoff(self.cutoff))
        expected = (self.cutoff + 1,) * (2 * self.modes)
        tensor = np.asarray(self.tensor, dtype=complex if np.iscomplexobj(self.tensor) else float)
        if tensor.shape != expected:
            raise ValueError(f"tensor shape {tensor.shape} != {expected}")
        object.__setattr__(self, "tensor", _check_finite(tensor, "tensor"))

    def __repr__(self) -> str:
        return f"FockState(modes={self.modes}, cutoff={self.cutoff}, trunc_weight={self.trunc_weight!r})"

    @property
    def dim(self) -> int:
        return (self.cutoff + 1) ** self.modes

    @property
    def matrix(self) -> np.ndarray:
        return self.tensor.reshape(self.dim, self.dim)

    def trace(self) -> float:
        # raveled, so the sum runs in the order of the matrix diagonal
        return float(_populations(self).ravel().sum().real)

    def purity(self) -> float:
        return _trace_product(self, self)


class _SectorState(FockState):
    """A two-mode state held by its sectors, the flat array laid out by
    _sector_layout(cutoff), which the state takes read-only.  Made only
    from checked inputs, so not checked again."""

    def __init__(self, cutoff: int, sectors: np.ndarray, trunc_weight: float):
        sectors.setflags(write=False)
        vars(self).update(modes=2, cutoff=cutoff, trunc_weight=trunc_weight, sectors=sectors)

    @cached_property
    def tensor(self) -> np.ndarray:
        tensor = np.zeros((self.cutoff + 1,) * 4)
        tensor.reshape(-1)[_sector_layout(self.cutoff).dense] = self.sectors
        tensor.setflags(write=False)
        return tensor


def _check_cutoff(cutoff, name: str = "cutoff") -> int:
    """The cutoff as an int; ValueError unless an integer >= 0."""
    if not (float(cutoff).is_integer() and cutoff >= 0):
        raise ValueError(f"{name} must be an integer >= 0, got {cutoff!r}")
    return int(cutoff)


class _SectorLayout(NamedTuple):
    """Where a sector state keeps each entry, for one cutoff c (d = c + 1).

    The flat array holds, for t = 0..c, the sectors +t and -t as one
    (p, d - t, d - t) array, p = 1 for t = 0 and 2 after (Y_t, then Y_-t);
    ``chunks`` gives each as (start, stop, shape); the entry rho[m, n] of
    rho[n, m] in sector +t sits at the same (j1, j2) in sector -t.  For
    every entry in that order: ``dense`` is its index in the raveled d^4
    tensor, ``gather`` orders the entries as the blocks of the partial
    transpose, N = n1 + m2 ascending, each (k, k) with rows n1 and columns
    m1 ascending, ``blocks`` gives each N as (start, stop, k) in that
    order, and ``pure`` picks the entries rho[n, n, m, m] a TMSV fills,
    ``pure_levels`` their (n, m)."""

    chunks: tuple
    dense: np.ndarray
    gather: np.ndarray
    blocks: tuple
    pure: np.ndarray
    pure_levels: tuple


@lru_cache(maxsize=8)
def _sector_layout(cutoff: int) -> _SectorLayout:
    """The sector layout at this cutoff, built once; read-only, because cached."""
    d = cutoff + 1
    chunks, levels, start = [], [], 0
    for t in range(d):
        j1, j2 = np.divmod(np.arange((d - t) ** 2), d - t)
        pair = [(j1 + t, j2 + t, j1, j2)] + ([(j1, j2, j1 + t, j2 + t)] if t else [])
        chunks.append((start, start + len(pair) * j1.size, (len(pair), d - t, d - t)))
        start = chunks[-1][1]
        levels += pair
    n1, n2, m1, m2 = (np.concatenate(axis) for axis in zip(*levels))
    dense = ((n1 * d + n2) * d + m1) * d + m2
    gather = np.lexsort((m1, n1, n1 + m2))
    pure = np.flatnonzero((n1 == n2) & (m1 == m2))
    pure_levels = n1[pure], m1[pure]
    for a in (dense, gather, pure, *pure_levels):
        a.setflags(write=False)
    sizes = [min(n, cutoff) - max(0, n - cutoff) + 1 for n in range(2 * cutoff + 1)]
    stops = np.cumsum([k * k for k in sizes]).tolist()
    blocks = tuple((stop - k * k, stop, k) for stop, k in zip(stops, sizes))
    return _SectorLayout(tuple(chunks), dense, gather, blocks, pure, pure_levels)


def _sectors(state: FockState) -> np.ndarray | None:
    """The flat sector array of a sector state, None for a dense one."""
    return state.sectors if isinstance(state, _SectorState) else None


def _chunk(sectors: np.ndarray, chunk: tuple) -> np.ndarray:
    """The sectors +-t of the flat array as a (p, d - t, d - t) view."""
    start, stop, shape = chunk
    return sectors[start:stop].reshape(shape)


def _diagonal(tensor: np.ndarray, modes: int) -> np.ndarray:
    """The entries rho[n, n] indexed (n1, ..., nN), as np.diagonal views."""
    for ket in range(modes, 0, -1):  # pair each ket axis with its bra axis
        tensor = np.diagonal(tensor, 0, 0, ket)
    return tensor


def _populations(state: FockState) -> np.ndarray:
    """The diagonal rho[n, n] indexed (n1, ..., nN): Y_0 of a sector state."""
    sectors = _sectors(state)
    if sectors is None:
        return _diagonal(state.tensor, state.modes)
    return _chunk(sectors, _sector_layout(state.cutoff).chunks[0])[0]


def _trace_product(a: FockState, b: FockState) -> float:
    """Re Tr[a b] of two states as the sum of the elementwise product of a
    and b^T (b's ket and bra axes swapped), without forming a b.  Two sector
    states pair sector +t of a with sector -t of b: b^T is b with the two
    halves of each chunk swapped.  Otherwise the product of the tensors is
    laid out in C order, so the sum rounds alike on a strided and a
    contiguous tensor, and neither argument is copied."""
    sa, sb = _sectors(a), _sectors(b)
    if sa is not None and sb is not None:
        swapped = [_chunk(sb, chunk)[::-1].ravel() for chunk in _sector_layout(a.cutoff).chunks]
        return float(sa @ np.concatenate(swapped))
    b_t = b.tensor.transpose(*range(b.modes, 2 * b.modes), *range(b.modes))
    return float(np.multiply(a.tensor, b_t, order="C").sum().real)


def vacuum_fock(modes: int = 1, cutoff: int = DEFAULT_CUTOFF) -> FockState:
    """Vacuum |0, ..., 0> of ``modes`` modes, at least 1, else ValueError."""
    _check_mode_count(modes)
    return number_state_fock([0] * modes, cutoff)


def number_state_fock(ns, cutoff: int = DEFAULT_CUTOFF) -> FockState:
    """Product number state |n1, n2, ...><...|.

    ValueError unless ``cutoff`` is an integer >= 0 and ``ns`` is a vector
    of at least one occupation, each an integer in [0, cutoff]; 1.7 is not
    read as 1.
    """
    cutoff = _check_cutoff(cutoff)
    ns = np.atleast_1d(np.asarray(ns, dtype=float))
    if not np.all((ns >= 0) & (ns <= cutoff) & (ns == np.round(ns))):
        raise ValueError(f"occupations must be integers in [0, {cutoff}], got {ns.tolist()}")
    _check_vector(ns, "occupations")  # one per mode, not a stack
    tensor = np.zeros((cutoff + 1,) * (2 * len(ns)))
    tensor[tuple(ns.astype(int)) * 2] = 1.0
    return FockState(len(ns), cutoff, tensor)


def build_tmsv_fock(zeta: float, cutoff: int = DEFAULT_CUTOFF) -> FockState:
    """Two-mode squeezed vacuum sqrt(1-q^2) sum_n q^n |nn>, q = tanh(zeta).

    The expansion is truncated at the cutoff and renormalised; the dropped
    weight q^(2(cutoff+1)) is reported on the state and must not exceed
    the truncation budget 1e-6.  A non-finite zeta or a cutoff that is not
    an integer >= 0 raises ValueError.  The state is real and held by its
    sectors, where only the d^2 nonzero entries rho[n, n, m, m] are written.
    """
    q = np.tanh(_check_finite(zeta, "squeezing"))
    d = _check_cutoff(cutoff) + 1
    weight = float(q ** (2 * d))
    if weight > _TRUNCATION_BUDGET:
        raise ValueError(
            f"truncation weight {weight:.3e} exceeds the budget {_TRUNCATION_BUDGET:.1e}; raise the cutoff"
        )
    amps = np.sqrt(1.0 - q * q) * q ** np.arange(d)
    psi = np.zeros((d, d), dtype=complex)
    np.fill_diagonal(psi, amps)
    # the norm of the d^2 state vector rounds unlike that of the d amplitudes
    amps = (np.diagonal(psi) / np.linalg.norm(psi)).real
    layout = _sector_layout(d - 1)
    sectors = np.zeros(layout.dense.size)
    n, m = layout.pure_levels
    sectors[layout.pure] = amps[n] * amps[m]
    return _SectorState(d - 1, sectors, weight)


def _destroy(d: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, d, dtype=float)), k=1)


def _expm_antisymmetric(gen: np.ndarray) -> np.ndarray:
    """exp(gen) for a real antisymmetric gen: with 1j gen = V diag(w) V^dag
    Hermitian, exp(gen) = V diag(e^-iw) V^dag, which is real."""
    w, v = np.linalg.eigh(1j * gen)
    return ((v * np.exp(-1j * w)) @ v.conj().T).real


@lru_cache(maxsize=32)
def _loss_kraus(cutoff: int, transmittance: float) -> tuple[np.ndarray, ...]:
    """The Kraus sum of the loss channel on each diagonal a - b = +-s of the
    mode's (ket, bra) plane, s = 0..cutoff, one map per s.

    Of m photons, k are lost with probability p(m, k) = C(m, k) tau^(m-k)
    (1 - tau)^k, and E_k has the one entry E_k[m - k, m] = +-sqrt(p(m, k)),
    its sign set by k alone, so L_s[a, m] = sqrt(p(m + s, m - a) p(m, m - a))
    for a <= m and exactly 0 below.  p is filled by Pascal's rule, a sum of
    non-negative terms within the cutoff, so the truncation is exact.
    Read-only, because cached; perfbench's tracer reads the cache's misses.
    """
    d = cutoff + 1
    p = np.zeros((d, d))
    p[0, 0] = 1.0
    for n in range(1, d):  # p[n - 1, -1] = 0 rolls into k = 0
        p[n] = transmittance * p[n - 1] + (1.0 - transmittance) * np.roll(p[n - 1], 1)
    amps, levels = np.sqrt(p), np.arange(d)
    lost = levels - levels[:, None]  # k = m - a at (a, m); triu cuts k < 0
    maps = []
    for s in range(d):
        m, k = levels[: d - s], lost[: d - s, : d - s]
        maps.append(np.triu(amps[m + s, k] * amps[m, k]))
        maps[-1].setflags(write=False)
    return tuple(maps)


def apply_loss_fock(state: FockState, mode: int, transmittance: float) -> FockState:
    """Transmit one mode through a beamsplitter of the given power
    transmittance with a vacuum ancilla behind it, tracing out the ancilla.

    Every Kraus operator sits on one diagonal (E_k[a, m] = 0 unless
    a = m - k), so sum_k E_k x E_k^T keeps a - b on the mode's (ket, bra)
    plane: on the diagonal a - b = +-s it is one real matrix (see
    _loss_kraus) acting on the rows (j + s, j), or (j, j + s), of the
    real view of x, in place in one copy of the state with the mode's axes
    moved to the front.  The result's tensor is that copy seen in the
    state's axis order, so it may be a strided view.  A sector state stays
    one: the diagonal a - b = +-s of either mode holds the sectors +-s, and
    each pair takes one product with the same matrix.
    """
    if not 0.0 <= transmittance <= 1.0:
        raise ValueError("transmittance must lie in [0, 1]")
    mode = _mode_index(mode, state.modes)
    if transmittance == 1.0:
        return state
    maps = _loss_kraus(state.cutoff, float(transmittance))
    sectors = _sectors(state)
    if sectors is not None:
        out = np.empty_like(sectors)
        for chunk, block in zip(_sector_layout(state.cutoff).chunks, maps):
            y, new = _chunk(sectors, chunk), _chunk(out, chunk)
            if mode == 0:
                np.matmul(block, y, out=new)
            else:
                np.matmul(y, block.T, out=new)
        return _SectorState(state.cutoff, out, state.trunc_weight)
    d = state.cutoff + 1
    axes = (mode, state.modes + mode)
    # a copy, never the caller's array: for one mode moveaxis is the identity
    moved = np.moveaxis(state.tensor, axes, (0, 1)).copy()
    flat = moved.reshape(d * d, -1).view(float)
    for s, block in enumerate(maps):
        for start in {s * d, s}:  # the rows (j + s, j) and (j, j + s), strided views
            rows = flat[start :: d + 1][: d - s]
            rows[...] = block @ rows
    return FockState(state.modes, state.cutoff, np.moveaxis(moved, (0, 1), axes), state.trunc_weight)


def partial_trace(state: FockState, keep) -> FockState:
    """The reduced state of the modes in ``keep``, a vector of mode indices
    (else ValueError).  Levels are summed one by one, so the sum rounds
    alike on any strides; that of a sector state is the diagonal of Y_0
    summed the same way, a dense one-mode state."""
    _check_vector(keep, "keep")
    keep = sorted({_mode_index(m, state.modes) for m in keep})
    drop = [m for m in range(state.modes) if m not in keep]
    if _sectors(state) is not None and len(drop) < 2:  # keeping no mode fails below
        if not drop:
            return state
        # rho[n1, n, m1, n] is zero unless n1 = m1; cumsum adds level by level
        (m,) = drop
        sums = np.cumsum(_populations(state), axis=m).take(-1, axis=m)
        return FockState(1, state.cutoff, np.diag(sums), state.trunc_weight)
    tensor = state.tensor
    for m in sorted(drop, reverse=True):
        # level by level, so the sum rounds alike on a strided and a contiguous tensor
        diag = np.diagonal(tensor, 0, m, tensor.ndim // 2 + m)
        tensor = sum(diag[..., n] for n in range(state.cutoff + 1))
    return FockState(len(keep), state.cutoff, tensor, state.trunc_weight)


@lru_cache(maxsize=8)
def _quadrature_ops(cutoff: int) -> np.ndarray:
    """x, p and the symmetrised products xx + xx, xp + px, pp + pp at this
    cutoff, stacked (5, d, d) complex; read-only, because cached."""
    a = _destroy(cutoff + 1)
    x = (a + a.T) / np.sqrt(2.0)
    p = (a - a.T) / (1j * np.sqrt(2.0))
    ops = np.stack([x, p] + [u @ v + v @ u for u, v in ((x, x), (x, p), (p, p))]).astype(complex)
    ops.setflags(write=False)
    return ops


def covariance_from_fock(state: FockState) -> tuple[np.ndarray, np.ndarray]:
    """Extract (kappa, gamma) by taking first and second moments.

    Each moment contracts the ket/bra tensor with d x d quadratures: the
    means and a same-mode pair are Tr[R A] = sum_ij A[j, i] R[i, j] of the
    one-mode reduced matrix R, one product per mode; a cross-mode pair is
    2 Tr[rho (A (x) B)].  x and p vanish off k = i +- 1, so mode 0 is
    contracted against both on those two diagonals of its (ket, bra)
    plane, np.diagonal views of the tensor; in a sector state those
    diagonals are Y_1 and Y_-1.  One or two modes cover every oracle check.
    """
    if state.modes > 2:
        raise ValueError("moment extraction supports at most two modes")
    ops = _quadrature_ops(state.cutoff)
    flat = ops.reshape(len(ops), -1)
    moments = [(flat @ partial_trace(state, [m]).tensor.T.ravel()).real for m in range(state.modes)]
    kappa = np.concatenate([mom[:2] for mom in moments])
    sectors = _sectors(state)
    if sectors is not None:
        # sum_j rho[j + 1, l + 1, j, l] A[j, j + 1] B[l, l + 1] = u_A Y_1 u_B^T, and Y_-1 with A[j + 1, j]
        y_up, y_down = _chunk(sectors, _sector_layout(state.cutoff).chunks[1]) if state.cutoff else np.zeros((2, 0, 0))
        up, down = np.diagonal(ops[:2], 1, 1, 2), np.diagonal(ops[:2], -1, 1, 2)
        cross = 2.0 * (up @ y_up @ up.T + down @ y_down @ down.T).real
    elif state.modes == 2:
        # (j, l, a) = sum_ik rho[i, j, k, l] A_a[k, i] over k = i +- 1, then closed with B_b[l, j]
        half = sum(np.diagonal(state.tensor, s, 0, 2) @ np.diagonal(ops[:2], -s, 1, 2).T for s in (1, -1))
        cross = 2.0 * np.einsum("jla,blj->ab", half, ops[:2]).real
    dim = 2 * state.modes
    gamma = np.empty((dim, dim))
    for i in range(dim):
        for j in range(i, dim):
            # xx, xp or pp of one mode, else the cross-mode pair
            second = moments[i // 2][2 + i % 2 + j % 2] if i // 2 == j // 2 else cross[i % 2, j % 2]
            gamma[i, j] = gamma[j, i] = second - 2.0 * kappa[i] * kappa[j]
    return kappa, gamma


def _boundary_population(state: FockState) -> float:
    """Largest diagonal probability with any mode at the cutoff level."""
    probs = np.real(_populations(state))
    return max(0.0, *(float(np.take(probs, -1, axis=m).sum()) for m in range(state.modes)))


def log_negativity_fock(state: FockState, base="e") -> float:
    """Trace-norm logarithmic negativity of a two-mode density matrix.

    The partial transpose swaps the second mode's ket and bra indices; the
    result is log of the sum of its absolute eigenvalues, solved in one
    d^2 x d^2 eigen-solve, or for a sector state block by block over the
    2 * cutoff + 1 blocks of _sector_layout.
    """
    if state.modes != 2:
        raise ValueError("log negativity needs a bipartite state")
    _check_base(base)
    if _boundary_population(state) > _TRUNCATION_BUDGET:
        warnings.warn("cutoff boundary population exceeds budget; result may be truncation dominated")
    sectors = _sectors(state)
    if sectors is not None:
        layout = _sector_layout(state.cutoff)
        gathered = sectors[layout.gather]
        blocks = [gathered[start:stop].reshape(k, k) for start, stop, k in layout.blocks]
    else:
        d = state.cutoff + 1
        blocks = [state.tensor.transpose(0, 3, 2, 1).reshape(d * d, d * d)]
    trace_norm = sum(float(np.abs(np.linalg.eigvalsh(block)).sum()) for block in blocks)
    return float(_to_base(np.log(trace_norm), base))


def overlap_fock(state_a: FockState, state_b: FockState) -> float:
    """<psi_a| rho_b |psi_a> as Tr[rho_a rho_b]; state_a must be pure."""
    if state_a.modes != state_b.modes or state_a.cutoff != state_b.cutoff:
        raise ValueError("states must live on the same truncated space")
    if abs(state_a.purity() - 1.0) > _PURITY_TOL:
        raise ValueError("first argument must be a pure state")
    return _trace_product(state_a, state_b)


@dataclass(frozen=True)
class QuadratureWavefunctionTable:
    """Harmonic-oscillator eigenfunctions psi_n sampled on a grid.

    Built by the stable two-term recurrence
    psi_n = sqrt(2/n) X psi_(n-1) - sqrt((n-1)/n) psi_(n-2),
    which avoids the factorial overflow of the closed form.  Both arrays
    are read-only, and ``grid`` is the table's own copy of the caller's.
    """

    grid: np.ndarray
    values: np.ndarray  # shape (n_max + 1, len(grid))

    @classmethod
    def build(cls, grid, n_max: int) -> "QuadratureWavefunctionTable":
        """The table on ``grid``; ValueError unless ``grid`` is a vector of
        finite points and ``n_max`` an integer >= 0."""
        grid = _check_vector(grid, "grid")
        n_max = _check_cutoff(n_max, "n_max")
        values = np.empty((n_max + 1, grid.size))
        values[0] = np.pi**-0.25 * np.exp(-0.5 * grid**2)
        if n_max >= 1:
            values[1] = np.sqrt(2.0) * grid * values[0]
        for n in range(2, n_max + 1):
            values[n] = np.sqrt(2.0 / n) * grid * values[n - 1] - np.sqrt((n - 1.0) / n) * values[n - 2]
        table = cls(grid=grid, values=values)
        _own(table, grid=grid)
        values.setflags(write=False)
        return table


@lru_cache(maxsize=1)
def default_grid() -> np.ndarray:
    """The DEFAULT_GRID points, built once and shared, so read-only."""
    grid = np.linspace(*DEFAULT_GRID)
    grid.setflags(write=False)
    return grid


@lru_cache(maxsize=4)
def _default_table(cutoff: int) -> QuadratureWavefunctionTable:
    """The table on the default grid up to the cutoff level, built once and shared."""
    return QuadratureWavefunctionTable.build(default_grid(), cutoff)


@dataclass(frozen=True)
class HomodyneFockResult:
    grid: np.ndarray
    pdf: np.ndarray


def _quadrature_amplitudes(cutoff: int, phi: float, grid: np.ndarray) -> np.ndarray:
    """<n|X,phi> for every grid point X, shape (n_points, d); phi must be finite."""
    table = QuadratureWavefunctionTable.build(grid, cutoff)
    return np.exp(1j * _check_finite(phi, "phi") * np.arange(cutoff + 1))[None, :] * table.values.T


def homodyne_povm_fock(state: FockState, mode: int, phi: float = 0.0, grid=None) -> HomodyneFockResult:
    """Outcome density of projecting one mode onto quadrature eigenstates |X, phi>.

    phi = 0 is an x measurement and phi = pi/2 a p measurement.  The density
    p(X) = <X,phi| rho_mode |X,phi> needs only the mode's reduced matrix R:
    with <n|X,phi> = e^(i phi n) psi_n(X) it is the column sum of
    (W^T V) * V, V[n, X] = psi_n(X) the table and W = Re(R[m, n]
    e^(i phi (n - m))), all real.
    The result keeps a read-only copy of a caller's grid; the default grid
    and its table are shared.
    """
    reduced = partial_trace(state, [_mode_index(mode, state.modes)]).tensor
    levels = np.arange(state.cutoff + 1)
    weights = (reduced * np.exp(1j * _check_finite(phi, "phi") * (levels - levels[:, None]))).real
    if grid is None:
        grid, table = default_grid(), _default_table(state.cutoff)
    else:
        table = QuadratureWavefunctionTable.build(grid, state.cutoff)
        grid = table.grid
    terms = weights.T @ table.values
    terms *= table.values
    return HomodyneFockResult(grid=grid, pdf=terms.sum(axis=0))


def homodyne_conditional_fock(state: FockState, mode: int, x: float, phi: float = 0.0) -> FockState:
    """Renormalised state of the other modes after the quadrature of
    ``mode`` at angle phi reads x; ValueError if x has zero density."""
    if state.modes < 2:
        raise ValueError("conditioning needs a state of at least two modes")
    mode = _mode_index(mode, state.modes)
    _check_finite(x, "homodyne record")
    amp = _quadrature_amplitudes(state.cutoff, phi, np.array([float(x)]))[0]
    moved = np.moveaxis(state.tensor, (mode, state.modes + mode), (0, 1))
    # ket then bra, level by level, so the sum rounds alike on any strides
    half = sum(a * moved[m] for m, a in enumerate(amp.conj()))
    sigma = sum(a * half[n] for n, a in enumerate(amp))
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
    covariance that is not a finite 2x2 matrix, or a cutoff that is not an
    integer >= 0, raises ValueError.
    """
    gamma = _check_matrix(gamma, "covariance matrix", 2)
    d = _check_cutoff(cutoff) + 1
    nu = float(np.sqrt(max(np.linalg.det(gamma), 0.0)))
    if not nu >= 1.0 - 1e-9:  # a negative determinant gives 0, a NaN one fails
        raise ValueError("covariance matrix is unphysical")
    evals, evecs = np.linalg.eigh(0.5 * (gamma + gamma.T))
    zeta = 0.5 * np.log(evals[1] / nu)
    theta = float(np.arctan2(evecs[1, 1], evecs[0, 1]))

    n_bar = max(0.0, (nu - 1.0) / 2.0)  # a pure state gives mu = 0: e_0 and weight 0, as 0.0**0 == 1
    mu = n_bar / (n_bar + 1.0)
    probs = (1.0 - mu) * mu ** np.arange(d)
    weight = float(mu**d)
    if weight > _TRUNCATION_BUDGET:
        raise ValueError(f"thermal tail {weight:.3e} exceeds the budget; raise the cutoff")
    probs = probs / probs.sum()
    rho = np.diag(probs).astype(complex)
    u = _rotation_unitary(d, theta) @ _squeeze_unitary(d, float(zeta))
    rho = u @ rho @ u.conj().T
    return FockState(1, cutoff, rho, weight)
