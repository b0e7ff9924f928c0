"""Truncated Fock-space oracle.

Everything here is brute force on purpose: the module exists to verify the
covariance-matrix machinery against an independent representation, so it
shares no formulas with the Gaussian modules beyond the quadrature
conventions (x = (a + a^dag)/sqrt(2), gamma = twice the symmetrised
covariance, vacuum gamma = 1) and the conversion of a natural logarithm
to the requested log base.

A one-mode Gaussian state is a thermal mixture over the eigenvectors of
its own quadratic Hamiltonian (Williamson, Am. J. Math. 58, 141 (1936)),
so gaussian_fock takes one d x d Hermitian eigen-solve, no squeezer and no
matrix exponential, which keeps the module on numpy alone.  Loss needs no
eigen-solve: a beamsplitter with a vacuum ancilla drops each photon
on its own with probability 1 - tau (Campos, Saleh and Teich, PRA 40,
1371 (1989)), so each Kraus operator has one binomial entry per column;
the tests check the maps against the dense two-mode exponential.  Loss
keeps the ket-minus-bra photon number of its mode, so it acts on each
diagonal of the mode's (ket, bra) plane by itself, never through a
d^2 x d^2 superoperator.  E_N is the log of the trace norm of the partial
transpose (Vidal and Werner, PRA 65, 032314 (2002)).  psi_n(X) comes from
one recurrence, cached per cutoff on the default grid.

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
2 * cutoff + 1 blocks of size at most d.  The reduced matrices come from
Y_0, the cross moments from Y_+-1, and conditioning one mode on a homodyne
record contracts each Y_+-t in O(d^3).  No d^4 tensor is made on that
path; ``tensor`` is built on its first read.
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

import math
import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .entanglement import _check_base, _to_base
from .symplectic import _check_finite, _check_matrix, _check_mode_count, _check_vector, _is_integer, _is_real
from .symplectic import _made, _mode_index, _real_array

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
    to the truncation when the state was built.  ``modes`` must be an integer
    >= 1, ``cutoff`` an integer >= 0, ``trunc_weight`` a real number in
    [0, 1] (a string is not one) and every entry of ``tensor`` a finite
    bool, int, float or complex number, else ValueError.  ``tensor`` is
    kept as float64 unless the input is complex, then as complex128; a real
    state stays real through loss and partial traces.  It may be a strided
    view (the dense apply_loss_fock returns one), so ``matrix`` may copy
    it.  The states the module's functions return hold read-only tensors;
    build_tmsv_fock and apply_loss_fock return states held by their
    sectors (module docstring), whose ``tensor`` is built on its first
    read.  Neither ``repr`` nor ``==`` reads the tensor: ``repr`` shows the
    other fields under this class's name, for a sector state too, and two
    states are equal only if they are the same object.
    """

    modes: int
    cutoff: int
    tensor: np.ndarray
    trunc_weight: float = 0.0

    def __post_init__(self):
        modes, cutoff = _check_mode_count(self.modes), _check_cutoff(self.cutoff)
        if not (_is_real(self.trunc_weight) and 0.0 <= self.trunc_weight <= 1.0):  # NaN fails too
            raise ValueError(f"trunc_weight must lie in [0, 1], got {self.trunc_weight!r}")
        expected = (cutoff + 1,) * (2 * modes)
        tensor = np.asarray(self.tensor)  # complex stays complex; else the rule of every real array
        tensor = tensor.astype(complex, copy=False) if tensor.dtype.kind == "c" else _real_array(tensor, "tensor")
        if tensor.shape != expected:
            raise ValueError(f"tensor shape {tensor.shape} != {expected}")
        vars(self).update(modes=modes, cutoff=cutoff, tensor=_check_finite(tensor, "tensor"),
                          trunc_weight=float(self.trunc_weight))

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
    from checked inputs by symplectic._made, with the fields modes = 2,
    cutoff, trunc_weight and sectors, so not checked again."""

    @cached_property
    def tensor(self) -> np.ndarray:
        d = self.cutoff + 1
        tensor = np.zeros((d,) * 4)
        for t, chunk in enumerate(_sector_layout(self.cutoff).chunks):
            # Y_t is the diagonal of rho[t:, t:, :d - t, :d - t], Y_-t that of rho[:d - t, :d - t, t:, t:]
            views = (tensor[t:, t:, : d - t, : d - t], tensor[: d - t, : d - t, t:, t:])
            for y, view in zip(_chunk(self.sectors, chunk), views):
                _diagonal(view, 2)[...] = y
        tensor.setflags(write=False)
        return tensor


def _check_cutoff(cutoff) -> int:
    """The cutoff as an int; ValueError unless an integer >= 0."""
    if not _is_integer(cutoff, 0):
        raise ValueError(f"cutoff must be an integer >= 0, got {cutoff!r}")
    return int(cutoff)


class _SectorLayout(NamedTuple):
    """Where a sector state keeps each entry, for one cutoff c (d = c + 1).

    The flat array holds, for t = 0..c, the sectors +t and -t as one
    (p, d - t, d - t) array, p = 1 for t = 0 and 2 after (Y_t, then Y_-t);
    ``chunks`` gives each as (start, stop, shape); the entry rho[m, n] of
    rho[n, m] in sector +t sits at the same (j1, j2) in sector -t.
    ``gather`` orders the entries as the blocks of the partial transpose,
    N = n1 + m2 ascending, each (k, k) with rows n1 and columns m1
    ascending, ``blocks`` gives each N as (start, stop, k) in that order,
    and ``pure`` picks the entries rho[n, n, m, m] a TMSV fills,
    ``pure_levels`` their (n, m)."""

    chunks: tuple
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
        pair = [(j1 + t, j1, j2)] + ([(j1, j1 + t, j2 + t)] if t else [])  # (n1, m1, m2) of Y_t, Y_-t
        chunks.append((start, start + len(pair) * j1.size, (len(pair), d - t, d - t)))
        start = chunks[-1][1]
        levels += pair
    n1, m1, m2 = (np.concatenate(axis) for axis in zip(*levels))
    gather = np.lexsort((m1, n1, n1 + m2))
    pure = np.flatnonzero(m1 == m2)  # n1 - m1 = n2 - m2, so n1 = n2 too
    pure_levels = n1[pure], m1[pure]
    for a in (gather, pure, *pure_levels):
        a.setflags(write=False)
    sizes = [min(n, cutoff) - max(0, n - cutoff) + 1 for n in range(2 * cutoff + 1)]
    stops = np.cumsum([k * k for k in sizes]).tolist()
    blocks = tuple((stop - k * k, stop, k) for stop, k in zip(stops, sizes))
    return _SectorLayout(tuple(chunks), gather, blocks, pure, pure_levels)


def _sectors(state: FockState) -> np.ndarray | None:
    """The flat sector array of a sector state, None for a dense one."""
    return state.sectors if isinstance(state, _SectorState) else None


def _chunk(sectors: np.ndarray, chunk: tuple) -> np.ndarray:
    """The sectors +-t of the flat array as a (p, d - t, d - t) view."""
    start, stop, shape = chunk
    return sectors[start:stop].reshape(shape)


def _diagonal(tensor: np.ndarray, modes: int) -> np.ndarray:
    """The entries rho[n, n] indexed (n1, ..., nN), as one view, writeable if the tensor is."""
    return np.einsum(tensor, [*range(modes)] * 2, [*range(modes)])


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
    """Vacuum |0, ..., 0> of ``modes`` modes, an integer >= 1, else ValueError."""
    return number_state_fock([0] * _check_mode_count(modes), cutoff)


def number_state_fock(ns, cutoff: int = DEFAULT_CUTOFF) -> FockState:
    """Product number state |n1, n2, ...><...|.

    ValueError unless ``cutoff`` is an integer >= 0 and ``ns`` is a vector
    of at least one occupation, each an integer in [0, cutoff]; 1.7 is not
    read as 1.
    """
    cutoff = _check_cutoff(cutoff)
    ns = np.atleast_1d(_real_array(ns, "occupations"))
    if not np.all((ns >= 0) & (ns <= cutoff) & (ns == np.round(ns))):
        raise ValueError(f"occupations must be integers in [0, {cutoff}], got {ns.tolist()}")
    _check_vector(ns, "occupations")  # one per mode, not a stack
    modes = _check_mode_count(len(ns))
    tensor = np.zeros((cutoff + 1,) * (2 * modes))
    tensor[tuple(ns.astype(int)) * 2] = 1.0
    return _made(FockState, modes=modes, cutoff=cutoff, tensor=tensor, trunc_weight=0.0)


def _check_weight(weight: float) -> float:
    """The truncation budget: ``weight`` if at most 1e-6, else ValueError."""
    if weight > _TRUNCATION_BUDGET:
        raise ValueError(
            f"truncation weight {weight:.3e} exceeds the budget {_TRUNCATION_BUDGET:.1e}; raise the cutoff"
        )
    return weight


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
    weight = _check_weight(float(q ** (2 * d)))
    amps = np.sqrt(1.0 - q * q) * q ** np.arange(d)
    psi = np.zeros((d, d), dtype=complex)
    np.fill_diagonal(psi, amps)
    # the norm of the d^2 state vector rounds unlike that of the d amplitudes
    amps = (np.diagonal(psi) / np.linalg.norm(psi)).real
    layout = _sector_layout(d - 1)
    sectors = np.zeros(layout.gather.size)
    n, m = layout.pure_levels
    sectors[layout.pure] = amps[n] * amps[m]
    return _made(_SectorState, modes=2, cutoff=d - 1, trunc_weight=weight, sectors=sectors)


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
    if not (_is_real(transmittance) and 0.0 <= transmittance <= 1.0):
        raise ValueError("transmittance must lie in [0, 1]")
    transmittance = float(transmittance)
    mode = _mode_index(mode, state.modes)
    if transmittance == 1.0:
        return state
    maps = _loss_kraus(state.cutoff, transmittance)
    sectors = _sectors(state)
    if sectors is not None:
        out = np.empty_like(sectors)
        for chunk, block in zip(_sector_layout(state.cutoff).chunks, maps):
            y, new = _chunk(sectors, chunk), _chunk(out, chunk)
            if mode == 0:
                np.matmul(block, y, out=new)
            else:
                np.matmul(y, block.T, out=new)
        return _made(_SectorState, modes=2, cutoff=state.cutoff, trunc_weight=state.trunc_weight, sectors=out)
    d = state.cutoff + 1
    axes = (mode, state.modes + mode)
    # a copy, never the caller's array: for one mode moveaxis is the identity
    moved = np.moveaxis(state.tensor, axes, (0, 1)).copy()
    flat = moved.reshape(d * d, -1).view(float)
    for s, block in enumerate(maps):
        for start in {s * d, s}:  # the rows (j + s, j) and (j, j + s), strided views
            rows = flat[start :: d + 1][: d - s]
            rows[...] = block @ rows
    return _derived(state, state.modes, np.moveaxis(moved, (0, 1), axes))


def _derived(state: FockState, modes: int, tensor: np.ndarray) -> FockState:
    """The state of ``modes`` modes that a dense kernel computed from
    ``state``, at its cutoff and truncation weight.  Of the constructor's
    rules only finiteness is checked: the kernel's sums of a caller's tensor
    can overflow, and so can its division by a trace near 0."""
    tensor = _check_finite(tensor, "tensor")
    return _made(FockState, modes=modes, cutoff=state.cutoff, tensor=tensor, trunc_weight=state.trunc_weight)


def partial_trace(state: FockState, keep) -> FockState:
    """The reduced state of the modes in ``keep``, a vector of mode indices
    (else ValueError).  Levels are summed one by one, so the sum rounds
    alike on any strides; that of a sector state is the diagonal of Y_0
    summed the same way, a dense one-mode state.  Keeping every mode returns
    ``state`` itself."""
    if not _check_vector(keep, "keep").size:
        raise ValueError("keep must name at least one mode")
    keep = sorted({_mode_index(m, state.modes) for m in keep})
    drop = [m for m in range(state.modes) if m not in keep]
    if not drop:
        return state
    if _sectors(state) is not None and len(drop) == 1:
        # rho[n1, n, m1, n] is zero unless n1 = m1; cumsum adds level by level
        (m,) = drop
        sums = np.cumsum(_populations(state), axis=m).take(-1, axis=m)
        return _made(FockState, modes=1, cutoff=state.cutoff, tensor=np.diag(sums), trunc_weight=state.trunc_weight)
    tensor = state.tensor
    for m in sorted(drop, reverse=True):
        # level by level, so the sum rounds alike on a strided and a contiguous tensor
        diag = np.diagonal(tensor, 0, m, tensor.ndim // 2 + m)
        tensor = sum(diag[..., n] for n in range(state.cutoff + 1))
    return _derived(state, len(keep), tensor)


@lru_cache(maxsize=8)
def _quadrature_ops(cutoff: int) -> np.ndarray:
    """x, p and the symmetrised products xx + xx, xp + px, pp + pp at this
    cutoff, stacked (5, d, d) complex; read-only, because cached."""
    a = np.diag(np.sqrt(np.arange(1.0, cutoff + 1)), k=1)
    x = (a + a.T) / np.sqrt(2.0)
    p = (a - a.T) / (1j * np.sqrt(2.0))
    ops = np.stack([x, p] + [u @ v + v @ u for u, v in ((x, x), (x, p), (p, p))]).astype(complex)
    ops.setflags(write=False)
    return ops


_SECOND_MOMENTS = np.array([[2, 3], [3, 4]])  # xx, xp and pp in _quadrature_ops, as one mode's 2 x 2 block


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
    second = [mom[_SECOND_MOMENTS] for mom in moments]  # [[xx, xp], [xp, pp]] of each mode
    rows = [[second[0], cross], [cross.T, second[1]]] if state.modes == 2 else [second]
    return kappa, np.concatenate([np.concatenate(row, 1) for row in rows]) - 2.0 * np.outer(kappa, kappa)


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


def _wavefunctions(grid: np.ndarray, cutoff: int) -> np.ndarray:
    """psi_n(X) of the levels n = 0..cutoff at the points X of ``grid``, shape
    (cutoff + 1, len(grid)), by the stable two-term recurrence
    psi_n = sqrt(2/n) X psi_(n-1) - sqrt((n-1)/n) psi_(n-2), which avoids the
    factorial overflow of the closed form."""
    values = np.zeros((cutoff + 1, grid.size))
    values[0] = np.pi**-0.25 * np.exp(-0.5 * grid**2)
    for n in range(1, cutoff + 1):  # psi_(-1) = 0: at n = 1, values[-1] is a row not yet filled
        values[n] = np.sqrt(2.0 / n) * grid * values[n - 1] - np.sqrt((n - 1.0) / n) * values[n - 2]
    return values


_DEFAULT_POINTS = np.linspace(*DEFAULT_GRID)
_DEFAULT_POINTS.setflags(write=False)


@lru_cache(maxsize=4)
def _default_wavefunctions(cutoff: int) -> np.ndarray:
    """_wavefunctions on the DEFAULT_GRID points, built once per cutoff; read-only, because cached."""
    values = _wavefunctions(_DEFAULT_POINTS, cutoff)
    values.setflags(write=False)
    return values


@dataclass(frozen=True, eq=False)
class HomodyneFockResult:
    grid: np.ndarray
    pdf: np.ndarray


def homodyne_povm_fock(state: FockState, mode: int, phi: float = 0.0, grid=None) -> HomodyneFockResult:
    """Outcome density of projecting one mode onto quadrature eigenstates |X, phi>.

    phi = 0 is an x measurement and phi = pi/2 a p measurement.  The density
    p(X) = <X,phi| rho_mode |X,phi> needs only the mode's reduced matrix R:
    with <n|X,phi> = e^(i phi n) psi_n(X) it is the column sum of
    (W^T V) * V, V[n, X] = psi_n(X) and W = Re(R[m, n] e^(i phi (n - m))),
    all real.  ``grid`` must be a vector of finite points, else ValueError;
    the result keeps a read-only copy of it.  The default grid, DEFAULT_GRID
    as (start, stop, points), and its psi_n are shared.
    """
    reduced = partial_trace(state, [_mode_index(mode, state.modes)]).tensor
    levels = np.arange(state.cutoff + 1)
    weights = (reduced * np.exp(1j * _check_finite(phi, "phi") * (levels - levels[:, None]))).real
    if grid is None:
        grid, values = _DEFAULT_POINTS, _default_wavefunctions(state.cutoff)
    else:
        grid = _check_vector(grid, "grid").copy()
        grid.setflags(write=False)
        values = _wavefunctions(grid, state.cutoff)
    terms = weights.T @ values
    terms *= values
    return HomodyneFockResult(grid=grid, pdf=terms.sum(axis=0))


def homodyne_conditional_fock(state: FockState, mode: int, x: float, phi: float = 0.0) -> FockState:
    """Renormalised state of the other modes after the quadrature of
    ``mode`` at angle phi reads x; ValueError if x has zero density.

    With a_n = <n|x,phi>, the unnormalised state is sum_nm conj(a_n) a_m
    rho[n, ., m, .].  A sector state gives it sector by sector, in O(d^3):
    Y_t and Y_-t contract with the products conj(a_(j+t)) a_j and their
    conjugates over the measured mode's index, onto the +t and -t diagonals
    of the one-mode result.  A dense state sums level by level, ket then
    bra, so the sum rounds alike on any strides.  The result is complex.
    """
    if state.modes < 2:
        raise ValueError("conditioning needs a state of at least two modes")
    mode = _mode_index(mode, state.modes)
    record = np.array([_check_finite(x, "homodyne record")])
    d = state.cutoff + 1
    amp = np.exp(1j * _check_finite(phi, "phi") * np.arange(d)) * _wavefunctions(record, d - 1)[:, 0]
    sectors = _sectors(state)
    if sectors is not None:
        sigma = np.zeros((d, d), dtype=complex)
        subscripts = ("kj,kjl->kl", "kj,klj->kl")[mode]  # Y_+-t has mode 0 on its rows, mode 1 on its columns
        for t, chunk in enumerate(_sector_layout(state.cutoff).chunks):
            y = _chunk(sectors, chunk)
            pairs = amp[t:].conj() * amp[: d - t]  # conj(a_(j+t)) a_j for Y_t, conjugated for Y_-t
            lines = np.einsum(subscripts, np.stack([pairs, pairs.conj()])[: len(y)], y)
            for line, view in zip(lines, (sigma[t:, : d - t], sigma[: d - t, t:])):
                _diagonal(view, 1)[...] = line
    else:
        moved = np.moveaxis(state.tensor, (mode, state.modes + mode), (0, 1))
        half = sum(a * moved[m] for m, a in enumerate(amp.conj()))
        sigma = sum(a * half[n] for n, a in enumerate(amp))
    prob = np.trace(sigma.reshape(d ** (state.modes - 1), -1)).real
    if not prob > 0.0:
        raise ValueError(f"homodyne record {x!r} has zero density")
    return _derived(state, state.modes - 1, sigma / prob)


def _photon_tail(gamma: np.ndarray, d: int) -> float:
    """Population past level d - 1 of the zero-mean one-mode Gaussian state gamma.

    Its photon-number law is sum_n p_n z^n = 2 Q(z)^(-1/2), Q(z) =
    det(gamma + 1 + z (1 - gamma)) = q0 + q1 z + q2 z^2 (Ferraro, Olivares
    and Paris, quant-ph/0503237), so 2 Q f' + Q' f = 0 gives p_0 = 2/sqrt(q0)
    and 2 q0 (n + 1) p_(n+1) = -(2n + 1) q1 p_n - 2n q2 p_(n-1).
    """
    q0, q2 = np.linalg.det([np.eye(2) + gamma, np.eye(2) - gamma]).tolist()
    q1 = 4.0 - q0 - q2  # Q(1) = det(2 * 1)
    p = [0.0, 2.0 / math.sqrt(q0)]  # p_-1, p_0
    for n in range(d - 1):
        p.append(-((2 * n + 1) * q1 * p[-1] + 2 * n * q2 * p[-2]) / (2.0 * q0 * (n + 1)))
    return max(0.0, 1.0 - math.fsum(p))


def gaussian_fock(gamma, cutoff: int = DEFAULT_CUTOFF) -> FockState:
    """Single-mode Gaussian state (zero mean) as a Fock density matrix.

    By Williamson's theorem the state is the thermal mixture, with
    p_n = (1 - mu) mu^n, mu = (nu - 1)/(nu + 1) and nu = sqrt(det gamma),
    of the eigenvectors of H = r^T g r / 2, g = nu gamma^-1, whose spectrum
    is n + 1/2.  H is compressed exactly onto the d = cutoff + 1 lowest
    levels (its quadrature products are taken at d + 1 and cropped, as a
    product of two truncated quadratures lacks a a^dag at the top level);
    by min-max its k-th eigenvalue is then at least k + 1/2, so the sorted
    eigenvectors take p_0, ..., p_c, renormalised.  The reported weight is
    the exact population past the cutoff (_photon_tail) and must not
    exceed the budget 1e-6.  A covariance that is not a finite, symmetric
    2x2 matrix, one that is not positive definite with det >= 1, or a
    cutoff that is not an integer >= 0, raises ValueError.
    """
    gamma = _check_matrix(gamma, "covariance matrix", 2, symmetric=True)
    d = _check_cutoff(cutoff) + 1
    nu = float(np.sqrt(max(np.linalg.det(gamma), 0.0)))
    if not (nu >= 1.0 - 1e-9 and gamma[0, 0] > 0.0):  # det < 0 gives nu = 0; det > 0 and gamma_00 > 0 is definite
        raise ValueError("covariance matrix is unphysical")
    weight = _check_weight(_photon_tail(gamma, d))

    mu = max(0.0, (nu - 1.0) / (nu + 1.0))  # a pure state gives mu = 0: e_0, as 0.0**0 == 1
    probs = (1.0 - mu) * mu ** np.arange(d)
    g = nu * np.linalg.inv(gamma)
    xx, xp, pp = _quadrature_ops(d)[2:, :d, :d]
    _, v = np.linalg.eigh(g[0, 0] * xx + 2.0 * g[0, 1] * xp + g[1, 1] * pp)
    rho = (v * (probs / probs.sum())) @ v.conj().T
    return _made(FockState, modes=1, cutoff=d - 1, tensor=rho, trunc_weight=weight)
