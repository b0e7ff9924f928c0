import math
import tracemalloc
import warnings
from functools import lru_cache

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import expm

import cvsim as cv
from cvsim import fock
from conftest import count_solves, random_single_mode_physical


def _random_density(rng, modes, cutoff, real=False):
    """Random full-rank density matrix: non-Gaussian, nonzero means, no phase
    symmetry unless ``real``."""
    n = (cutoff + 1) ** modes
    g = rng.normal(size=(n, n)) if real else rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = g @ g.conj().T
    return fock.FockState(modes, cutoff, (rho / np.trace(rho)).reshape((cutoff + 1,) * (2 * modes)))


@lru_cache(maxsize=8)
def _expm_squeezed_vacuum(zeta, cutoff=300):
    """exp(-zeta/2 (a^2 - a^dag^2)) |0> from the dense exponential; read-only, because cached."""
    a = np.diag(np.sqrt(np.arange(1.0, cutoff + 1)), k=1)
    psi = expm((-zeta / 2.0) * (a @ a - a.T @ a.T))[:, 0]
    psi.setflags(write=False)
    return psi


@lru_cache(maxsize=16)
def _dense_loss_kraus(cutoff, tau):
    """E_k = <k|U|0> from the dense exponential of the two-mode generator,
    stacked kraus[k] = E_k; read-only, because cached."""
    d = cutoff + 1
    a = np.diag(np.sqrt(np.arange(1, d, dtype=float)), k=1)
    theta = np.arccos(np.sqrt(tau))
    u = expm(theta * (np.kron(a.T, a) - np.kron(a, a.T))).reshape(d, d, d, d)
    kraus = np.stack([u[:, k, :, 0] for k in range(d)])
    kraus.setflags(write=False)
    return kraus


def _reference_loss(state, mode, tau):
    """The Kraus sum term by term: E_k rho E_k^dag on one mode's ket and bra axes."""
    out = np.zeros_like(state.tensor)
    for e in _dense_loss_kraus(state.cutoff, tau):
        t = np.moveaxis(np.tensordot(e, state.tensor, axes=([1], [mode])), 0, mode)
        t = np.tensordot(e.conj(), t, axes=([1], [state.modes + mode]))
        out += np.moveaxis(t, 0, state.modes + mode)
    return out


def _dense_loss(state, mode, tau):
    """The loss superoperator as one dense d^2 x d^2 product on the mode's (ket, bra) axes."""
    d = state.cutoff + 1
    kraus = _dense_loss_kraus(state.cutoff, tau)
    sup = np.einsum("kam,kbn->abmn", kraus, kraus).reshape(d * d, d * d)
    axes = (mode, state.modes + mode)
    moved = np.moveaxis(state.tensor, axes, (0, 1))
    return np.moveaxis((sup @ moved.reshape(d * d, -1)).reshape(moved.shape), (0, 1), axes)


def _dense_log_negativity(state):
    """log of the trace norm of the partial transpose from one dense eigvalsh."""
    d = state.cutoff + 1
    pt = state.tensor.transpose(0, 3, 2, 1).reshape(d * d, d * d)
    return float(np.log(np.sum(np.abs(np.linalg.eigvalsh(pt)))))


def _einsum_pdf(state, mode, phi):
    """Homodyne density as the three-operand einsum <X,phi| rho_mode |X,phi>."""
    reduced = fock.partial_trace(state, [mode]).tensor
    amps = fock._default_wavefunctions(state.cutoff).T * np.exp(1j * phi * np.arange(state.cutoff + 1))
    return np.einsum("gm,mn,gn->g", amps.conj(), reduced, amps).real


def _lossy_tmsv(zeta=0.4, cutoff=25, taus=(0.7, 0.8)):
    st = fock.build_tmsv_fock(zeta, cutoff)
    return fock.apply_loss_fock(fock.apply_loss_fock(st, 0, taus[0]), 1, taus[1])


def _dense_lossy_tmsv(zeta=0.4, cutoff=25, taus=(0.7, 0.8)):
    """The same state through the dense kernels: the TMSV's tensor as a
    dense FockState, then loss on each arm (a strided view)."""
    st = fock.FockState(2, cutoff, fock.build_tmsv_fock(zeta, cutoff).tensor)
    return fock.apply_loss_fock(fock.apply_loss_fock(st, 0, taus[0]), 1, taus[1])


def _reference_moments(state):
    """Means and gamma from dense quadratures on the full space, Tr[rho Q]."""
    d = state.cutoff + 1
    a = np.diag(np.sqrt(np.arange(1, d, dtype=float)), k=1)
    ops = ((a + a.T) / np.sqrt(2.0), (a - a.T) / (1j * np.sqrt(2.0)))
    quads = []
    for m in range(state.modes):
        for op in ops:
            factors = [np.eye(d)] * state.modes
            factors[m] = op
            full = factors[0]
            for f in factors[1:]:
                full = np.kron(full, f)
            quads.append(full)
    rho = state.matrix
    kappa = np.array([np.trace(rho @ q).real for q in quads])
    gamma = np.array(
        [[np.trace(rho @ (qi @ qj + qj @ qi)).real - 2.0 * ki * kj for qj, kj in zip(quads, kappa)]
         for qi, ki in zip(quads, kappa)]
    )
    return kappa, gamma


class TestAgainstReferenceImplementations:
    @pytest.mark.parametrize(
        "modes, cutoff", [(1, 0), (2, 0), (1, 1), (3, 1), (1, 4), (1, 8), (2, 5), (2, 8), (3, 4), (3, 6)]
    )
    @pytest.mark.parametrize("tau", [0.0, 0.3, 0.99])
    def test_loss_matches_kraus_sum(self, rng, modes, cutoff, tau):
        st = _random_density(rng, modes, cutoff)
        for mode in range(modes):
            out = fock.apply_loss_fock(st, mode, tau)
            assert out.tensor.shape == st.tensor.shape
            assert np.max(np.abs(out.tensor - _reference_loss(st, mode, tau))) <= 1e-12

    @pytest.mark.parametrize("modes", [1, 2])
    @pytest.mark.parametrize("cutoff", [0, 1, 4, 6, 8])
    def test_moments_match_dense_quadratures(self, rng, modes, cutoff):
        # at cutoff 0 the quadratures vanish and their off-diagonals are empty
        st = _random_density(rng, modes, cutoff)
        kappa, gamma = fock.covariance_from_fock(st)
        ref_kappa, ref_gamma = _reference_moments(st)
        assert cutoff == 0 or np.min(np.abs(ref_kappa)) > 1e-3  # the mean terms are exercised
        assert np.max(np.abs(kappa - ref_kappa)) <= 1e-12
        assert np.max(np.abs(gamma - ref_gamma)) <= 1e-12

    @pytest.mark.parametrize("modes", [1, 2])
    @pytest.mark.parametrize("cutoff", [4, 5, 6, 7, 8])
    def test_homodyne_pdf_matches_einsum(self, rng, modes, cutoff):
        st = _random_density(rng, modes, cutoff)
        for mode in range(modes):
            for phi in (0.0, 0.7, np.pi / 2):
                ref = _einsum_pdf(st, mode, phi)
                assert np.max(np.abs(fock.homodyne_povm_fock(st, mode, phi).pdf - ref)) <= 1e-12 * np.max(ref)

    @pytest.mark.parametrize("zeta, cutoff", [(0.0, 0), (0.0, 4), (-0.3, 6), (0.4, 25), (1.0, 25), (0.9, 40)])
    def test_tmsv_matches_outer_product(self, zeta, cutoff):
        st = fock.build_tmsv_fock(zeta, cutoff)
        d = cutoff + 1
        q = np.tanh(zeta)
        psi = np.zeros((d, d), dtype=complex)
        np.fill_diagonal(psi, np.sqrt(1.0 - q * q) * q ** np.arange(d))
        psi = psi.reshape(-1) / np.linalg.norm(psi)
        assert np.array_equal(st.matrix, np.outer(psi, psi.conj()))

    @pytest.mark.parametrize("ns, cutoff", [([0], 0), ([2], 5), ([3, 0], 4), ([1, 4, 2], 4)])
    def test_number_state_matches_outer_product(self, ns, cutoff):
        vec = np.zeros((cutoff + 1,) * len(ns), dtype=complex)
        vec[tuple(ns)] = 1.0
        vec = vec.reshape(-1)
        assert np.array_equal(fock.number_state_fock(ns, cutoff).matrix, np.outer(vec, vec.conj()))

    def test_moments_reject_three_modes(self, rng):
        with pytest.raises(ValueError, match="at most two modes"):
            fock.covariance_from_fock(_random_density(rng, 3, 4))

    @pytest.mark.parametrize("modes, cutoff", [(1, 6), (2, 5), (3, 3)])
    @pytest.mark.parametrize("tau", [0.0, 0.3, 0.99])
    def test_loss_matches_dense_superoperator(self, rng, modes, cutoff, tau):
        st = _random_density(rng, modes, cutoff)
        for mode in range(modes):
            ref = _dense_loss(st, mode, tau)
            assert np.max(np.abs(fock.apply_loss_fock(st, mode, tau).tensor - ref)) <= 1e-12

    def test_loss_searches_no_blocks_and_gathers_nothing(self, rng, monkeypatch):
        def forbidden(*_args):
            raise AssertionError("loss must run on the diagonals it keeps")

        st = _random_density(rng, 2, 6)
        refs = [_reference_loss(st, mode, 0.3) for mode in range(2)]
        monkeypatch.setattr(fock.np, "ix_", forbidden)
        for mode, ref in enumerate(refs):
            assert np.max(np.abs(fock.apply_loss_fock(st, mode, 0.3).tensor - ref)) <= 1e-12

    @pytest.mark.parametrize("taus", [(0.7, 0.8), (0.0, 0.5), (0.99, 0.3)])
    def test_loss_of_lossy_tmsv_matches_dense_superoperator(self, taus):
        st = _lossy_tmsv(0.5, 12, taus)
        for mode in range(2):
            ref = _dense_loss(st, mode, 0.6)
            assert np.max(np.abs(fock.apply_loss_fock(st, mode, 0.6).tensor - ref)) <= 1e-12

    # random states fill the cutoff level, which the oracle warns about
    @pytest.mark.filterwarnings("ignore:cutoff boundary population")
    @pytest.mark.parametrize("cutoff", [3, 6, 9])
    def test_log_negativity_matches_dense_eigvalsh(self, rng, cutoff):
        st = _random_density(rng, 2, cutoff)
        assert abs(fock.log_negativity_fock(st) - _dense_log_negativity(st)) <= 1e-12

    @pytest.mark.parametrize("build, solves, largest", [
        pytest.param(_lossy_tmsv, 51, 26, id="lossy-tmsv"),  # total photon numbers 0..50 of the partial transpose
        pytest.param(lambda: fock.build_tmsv_fock(0.3, 8), 17, 9, id="pure-tmsv"),  # 0..16 at cutoff 8
        pytest.param(lambda: fock.FockState(2, 8, _lossy_tmsv(cutoff=8).tensor), 1, 81, id="dense"),
    ])
    def test_log_negativity_solve_count(self, monkeypatch, build, solves, largest):
        st = build()
        ref = _dense_log_negativity(st)
        shapes = []
        eigvalsh = np.linalg.eigvalsh

        def recording(matrix):
            shapes.append(matrix.shape)
            return eigvalsh(matrix)

        monkeypatch.setattr(fock.np.linalg, "eigvalsh", recording)
        assert abs(fock.log_negativity_fock(st) - ref) <= 1e-12
        assert len(shapes) == solves
        assert max(shapes) == (largest, largest)

    def test_trace_products_match_matrix_products(self, rng):
        mixed = _random_density(rng, 2, 6)
        pure = fock.gaussian_fock(cv.squeezed_state(0.3, 0.2).gamma, cutoff=30)
        thermal = fock.gaussian_fock(cv.thermal_state(0.2).gamma, cutoff=30)
        ref_purity = np.trace(mixed.matrix @ mixed.matrix).real
        assert abs(mixed.purity() - ref_purity) <= 1e-12 * ref_purity
        assert abs(fock.overlap_fock(pure, thermal) - np.trace(pure.matrix @ thermal.matrix).real) <= 1e-12


def _random_pure(rng, modes, cutoff, real=False):
    d = cutoff + 1
    psi = rng.normal(size=d**modes) if real else rng.normal(size=d**modes) + 1j * rng.normal(size=d**modes)
    psi /= np.linalg.norm(psi)
    return fock.FockState(modes, cutoff, np.outer(psi, psi.conj()).reshape((d,) * (2 * modes)))


class TestInputsStayUnwritten:
    """No public function may write into the state it is given: with the
    tensor read-only, any in-place write raises."""

    @pytest.mark.parametrize("modes", [1, 2, 3])
    def test_read_only_inputs(self, rng, modes):
        st = _random_pure(rng, modes, 3)
        st.tensor.setflags(write=False)
        before = st.tensor.copy()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # random states fill the cutoff level
            for mode in range(modes):
                fock.apply_loss_fock(st, mode, 0.6)
                fock.partial_trace(st, [mode])
                fock.homodyne_povm_fock(st, mode, 0.7)
                if modes > 1:
                    fock.homodyne_conditional_fock(st, mode, 0.2, 0.7)
            if modes <= 2:
                fock.covariance_from_fock(st)
            if modes == 2:
                fock.log_negativity_fock(st)
            fock.overlap_fock(st, st)
        assert np.array_equal(st.tensor, before)


def _peak_bytes(fn):
    """Peak memory that fn() allocates, in bytes, as tracemalloc sees it."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()


def _peak_tensors(fn):
    """Peak memory that fn() allocates, in units of one cutoff-25 two-mode
    complex tensor (26^4 entries)."""
    return _peak_bytes(fn) / (26**4 * np.dtype(complex).itemsize)


class TestMemory:
    """The oracle's kernels allocate no more of the d^4 tensor than their
    results need (lossy TMSV at cutoff 25).  The dense kernels are measured
    on the lossy TMSV built through them, a strided dense state."""

    def test_warm_loss_holds_its_copy_and_its_result(self):
        # the result is the moved copy itself, seen in the state's axis order;
        # a real state is half a complex tensor
        st = _dense_lossy_tmsv()
        assert _peak_tensors(lambda: fock.apply_loss_fock(st, 1, 0.8)) <= 0.6

    def test_diagonal_readers_copy_no_tensor(self):
        st = _dense_lossy_tmsv()  # a strided view, whose .matrix would be a copy
        assert _peak_tensors(lambda: (fock._boundary_population(st), st.trace())) <= 0.05

    def test_trace_products_copy_no_tensor(self):
        # the one elementwise product; .matrix of this view would copy it first
        st = _dense_lossy_tmsv()
        pure = fock.FockState(2, 25, fock.build_tmsv_fock(0.4).tensor)
        assert _peak_tensors(lambda: (st.purity(), fock.overlap_fock(pure, st))) <= 0.6

    def test_moments_copy_no_tensor(self):
        st = _dense_lossy_tmsv()
        assert _peak_tensors(lambda: fock.covariance_from_fock(st)) <= 0.25

    def test_oracle_chain(self):
        def chain():
            st = fock.build_tmsv_fock(0.4)
            st = fock.apply_loss_fock(st, 0, 0.7)
            st = fock.apply_loss_fock(st, 1, 0.8)
            fock.log_negativity_fock(st)
            fock.covariance_from_fock(st)
            fock.homodyne_povm_fock(st, 0)

        assert _peak_tensors(chain) <= 1.2

    def test_log_negativity_holds_one_partial_transpose(self):
        st = _dense_lossy_tmsv()
        assert _peak_tensors(lambda: fock.log_negativity_fock(st)) <= 0.65

    def test_sector_oracle_chain_builds_no_tensor(self):
        built = []

        def chain():
            st = fock.build_tmsv_fock(0.4)
            for mode, tau in ((0, 0.7), (1, 0.8)):
                lossy = fock.apply_loss_fock(st, mode, tau)
                built.append("tensor" in vars(st))
                st = lossy
            fock.log_negativity_fock(st)
            fock.covariance_from_fock(st)
            fock.homodyne_povm_fock(st, 0)
            built.append("tensor" in vars(st))

        chain()  # the per-cutoff layout, loss maps and default-grid wavefunctions are cached
        assert _peak_tensors(chain) <= 0.05
        assert built == [False] * 6


def _dense_boundary_population(state):
    """The cutoff-level population read off the diagonal of the dense matrix."""
    d = state.cutoff + 1
    probs = np.real(np.diagonal(state.matrix)).reshape((d,) * state.modes)
    return max(0.0, *(float(np.take(probs, -1, axis=m).sum()) for m in range(state.modes)))


def _readings(state, pure):
    """What every public fock function reads off a state, as arrays."""
    modes = state.modes
    out = [state.matrix, state.trace(), state.purity(), fock._boundary_population(state)]
    out.append(fock.overlap_fock(pure, state))
    for mode in range(modes):
        out.append(fock.apply_loss_fock(state, mode, 0.3).tensor)
        out.append(fock.partial_trace(state, [mode]).tensor)
        out.append(fock.homodyne_povm_fock(state, mode, 0.7).pdf)
        if modes > 1:
            out.append(fock.partial_trace(state, [m for m in range(modes) if m != mode]).tensor)
            out.append(fock.homodyne_conditional_fock(state, mode, 0.2, 0.7).tensor)
    if modes <= 2:
        out.extend(fock.covariance_from_fock(state))
    if modes == 2:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # random states fill the cutoff level
            out.append(fock.log_negativity_fock(state))
    return out


class TestStridedLossResults:
    """apply_loss_fock returns its moved copy as a strided view; every public
    function reads it bit for bit as it reads a contiguous copy."""

    @pytest.mark.parametrize("modes, cutoff", [(1, 0), (1, 9), (2, 1), (2, 8), (3, 3)])
    def test_view_reads_as_contiguous_copy(self, rng, modes, cutoff):
        st = _random_density(rng, modes, cutoff)
        pure = _random_pure(rng, modes, cutoff)
        for mode in range(modes):
            view = fock.apply_loss_fock(st, mode, 0.6)
            assert view.tensor.flags.c_contiguous == (modes == 1)
            dense = fock.FockState(modes, cutoff, np.ascontiguousarray(view.tensor))
            for got, want in zip(_readings(view, pure), _readings(dense, pure), strict=True):
                assert np.array_equal(got, want)

    def test_lossy_tmsv_reads_as_contiguous_copy(self):
        view = _dense_lossy_tmsv()
        dense = fock.FockState(2, 25, np.ascontiguousarray(view.tensor))
        assert not view.tensor.flags.c_contiguous
        assert fock.log_negativity_fock(view) == fock.log_negativity_fock(dense)
        assert view.purity() == dense.purity()
        pure = fock.FockState(2, 25, fock.build_tmsv_fock(0.4).tensor)
        assert fock.overlap_fock(pure, view) == fock.overlap_fock(pure, dense)
        for got, want in zip(fock.covariance_from_fock(view), fock.covariance_from_fock(dense)):
            assert np.array_equal(got, want)
        assert np.array_equal(fock.homodyne_povm_fock(view, 0).pdf, fock.homodyne_povm_fock(dense, 0).pdf)


def _dense_tmsv(zeta, cutoff):
    """The TMSV as a dense state: the outer product of its d^2 state vector."""
    d = cutoff + 1
    q = np.tanh(zeta)
    psi = np.zeros((d, d), dtype=complex)
    np.fill_diagonal(psi, np.sqrt(1.0 - q * q) * q ** np.arange(d))
    psi = psi.reshape(-1) / np.linalg.norm(psi)
    return fock.FockState(2, cutoff, np.outer(psi, psi.conj()).real.reshape((d,) * 4), float(q ** (2 * d)))


# squeezings across the oracle's range at every cutoff whose truncation
# budget holds them; zeta = 0.001 is the only one that fits cutoffs 0 and 1
_SECTOR_CASES = [
    (zeta, cutoff)
    for cutoff in (0, 1, 5, 25)
    for zeta in (0.001, 0.05, 0.4, 1.0)
    if np.tanh(zeta) ** (2 * (cutoff + 1)) <= fock._TRUNCATION_BUDGET
]
_TAUS = (0.0, 0.3, 0.7, 1.0)
# the sector and the dense E_N solve the same spectrum, block by block and
# in one d^2 x d^2 solve; only the eigen-solves' rounding and the order of
# the sums differ
_E_N_TOL = 1e-14


def _e_n_and_warnings(state):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        e_n = fock.log_negativity_fock(state)
    return e_n, [str(w.message) for w in caught]


class TestSectorLayout:
    """build_tmsv_fock and apply_loss_fock hold a lossy TMSV by its sectors;
    every reader gives what the dense kernels give on the dense state."""

    def test_cases_cover_every_cutoff(self):
        assert sorted({cutoff for _, cutoff in _SECTOR_CASES}) == [0, 1, 5, 25]
        assert {zeta for zeta, cutoff in _SECTOR_CASES if cutoff == 25} == {0.001, 0.05, 0.4, 1.0}

    @pytest.mark.parametrize("zeta, cutoff", _SECTOR_CASES)
    @pytest.mark.parametrize("tau0", _TAUS)
    def test_readers_match_the_dense_kernels(self, zeta, cutoff, tau0):
        built, dense_built = fock.build_tmsv_fock(zeta, cutoff), _dense_tmsv(zeta, cutoff)
        assert built.trunc_weight == dense_built.trunc_weight
        for tau1 in _TAUS:
            st = fock.apply_loss_fock(fock.apply_loss_fock(built, 0, tau0), 1, tau1)
            ref = fock.apply_loss_fock(fock.apply_loss_fock(dense_built, 0, tau0), 1, tau1)
            assert fock._sectors(st) is not None and fock._sectors(ref) is None
            (e_n, warned), (ref_e_n, ref_warned) = _e_n_and_warnings(st), _e_n_and_warnings(ref)
            assert abs(e_n - ref_e_n) <= _E_N_TOL and warned == ref_warned
            for mode in range(2):
                assert np.array_equal(fock.partial_trace(st, [mode]).tensor, fock.partial_trace(ref, [mode]).tensor)
                for phi in (0.0, 0.7):
                    pdf = fock.homodyne_povm_fock(st, mode, phi).pdf
                    assert np.array_equal(pdf, fock.homodyne_povm_fock(ref, mode, phi).pdf)
                    # the sector sums run in another order than the dense level-by-level sums
                    cond = fock.homodyne_conditional_fock(st, mode, 0.3, phi).tensor
                    assert np.max(np.abs(cond - fock.homodyne_conditional_fock(ref, mode, 0.3, phi).tensor)) <= 1e-15
            for got, want in zip(fock.covariance_from_fock(st), fock.covariance_from_fock(ref), strict=True):
                assert np.max(np.abs(got - want)) <= 1e-14 * max(1.0, np.max(np.abs(want)))
            assert st.trace() == ref.trace()
            assert fock._boundary_population(st) == fock._boundary_population(ref)
            assert abs(st.purity() - ref.purity()) <= 1e-15
            assert abs(fock.overlap_fock(built, st) - fock.overlap_fock(dense_built, ref)) <= 1e-15
            assert "tensor" not in vars(st)
            assert np.array_equal(st.tensor, ref.tensor) and not st.tensor.flags.writeable
            assert st.tensor is st.tensor  # built once

    def test_repr_and_eq_build_no_tensor(self):
        # both read the 3.6 MB tensor of a cutoff-25 sector state and kept it;
        # == of two dense states raised numpy's "truth value ... is ambiguous"
        st = _lossy_tmsv()
        assert repr(st).startswith("FockState(modes=2, cutoff=25, trunc_weight=")
        assert "tensor=" not in repr(st) and st == st
        assert "tensor" not in vars(st)
        a, b = fock.vacuum_fock(2, 3), fock.vacuum_fock(2, 3)
        assert (a == b) is False and (a == a) is True

    @pytest.mark.parametrize("zeta", [0.34, 0.365, 0.39])
    def test_pure_tmsv_sums_its_split_blocks_in_the_dense_order(self, zeta):
        # each N-block of a pure TMSV falls apart into pairs {n1, N - n1}; the
        # sector E_N solves the 17 blocks whole, the dense E_N one 81 x 81 matrix
        st = fock.build_tmsv_fock(zeta, 8)
        assert abs(fock.log_negativity_fock(st) - fock.log_negativity_fock(fock.FockState(2, 8, st.tensor))) <= _E_N_TOL

    @pytest.mark.parametrize("cutoff", [0, 1, 5, 25])
    def test_layout_holds_each_entry_of_the_sectors_once(self, cutoff):
        # a sector state of the distinct values 1..size shows where .tensor puts each entry
        d = cutoff + 1
        layout = fock._sector_layout(cutoff)
        size = layout.gather.size
        values = np.arange(1.0, size + 1)
        tensor = fock._SectorState(cutoff, values, 0.0).tensor
        n1, n2, m1, m2 = np.indices(tensor.shape)
        # each value once, and every entry with n1 - m1 = n2 - m2 holds one
        assert np.array_equal(np.sort(tensor[tensor != 0]), values)
        assert np.array_equal(tensor != 0, n1 - m1 == n2 - m2)
        assert size == layout.blocks[-1][1] == sum((d - abs(s)) ** 2 for s in range(-cutoff, cutoff + 1))
        assert [k for _, _, k in layout.blocks] == [min(n, cutoff) - max(0, n - cutoff) + 1 for n in range(2 * d - 1)]
        assert cutoff != 25 or size == 11726
        # rho[m, n] of each entry rho[n, m] is at the same (j1, j2) in the other half of its chunk
        swapped = np.concatenate([fock._chunk(values, chunk)[::-1].ravel() for chunk in layout.chunks])
        assert np.array_equal(fock._SectorState(cutoff, swapped, 0.0).tensor, tensor.transpose(2, 3, 0, 1))
        # the gathered entries, cut by blocks, are the N = n1 + m2 blocks of the partial transpose
        gathered, pt = values[layout.gather], tensor.transpose(0, 3, 2, 1)
        for total, (start, stop, k) in enumerate(layout.blocks):
            levels = np.arange(max(0, total - cutoff), max(0, total - cutoff) + k)
            rows, cols = levels[:, None], levels[None, :]
            assert np.array_equal(gathered[start:stop].reshape(k, k), pt[rows, total - rows, cols, total - cols])


# every public kernel that reads a state
_STATE_KERNELS = {
    "FockState.trace": lambda st: st.trace(),
    "FockState.purity": lambda st: st.purity(),
    "apply_loss_fock": lambda st: fock.apply_loss_fock(st, 0, 0.7),
    "partial_trace": lambda st: fock.partial_trace(st, [0]),
    "covariance_from_fock": fock.covariance_from_fock,
    "log_negativity_fock": fock.log_negativity_fock,
    "overlap_fock": lambda st: fock.overlap_fock(st, st),
    "homodyne_povm_fock": lambda st: fock.homodyne_povm_fock(st, 0),
    "homodyne_conditional_fock": lambda st: fock.homodyne_conditional_fock(st, 0, 0.1),
}


@pytest.mark.parametrize("kernel", sorted(_STATE_KERNELS))
def test_kernels_leave_a_sector_state_unbuilt(kernel):
    st = fock.build_tmsv_fock(0.4, 8)
    _STATE_KERNELS[kernel](st)
    assert fock._sectors(st) is not None and "tensor" not in vars(st)


class TestNonFiniteTensor:
    """FockState refuses a tensor with a NaN or inf entry, so no kernel
    reads one (log_negativity_fock returned nan and inf)."""

    @pytest.mark.parametrize("kernel", sorted(_STATE_KERNELS))
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_one_bad_entry_reaches_no_kernel(self, kernel, bad):
        tensor = _lossy_tmsv(0.3, cutoff=8).tensor.copy()
        tensor[0, 0, 0, 0] = bad
        with pytest.raises(ValueError, match="^tensor has non-finite entries$"):
            _STATE_KERNELS[kernel](fock.FockState(2, 8, tensor))

    @pytest.mark.parametrize("bad", [complex(0.0, float("nan")), complex(float("inf"), 0.0), -float("inf")])
    def test_any_entry_of_any_dtype(self, bad):
        with pytest.raises(ValueError, match="^tensor has non-finite entries$"):
            fock.FockState(1, 3, np.full((4, 4), float("nan")))
        tensor = np.eye(4, dtype=type(bad))
        tensor[3, 1] = bad
        with pytest.raises(ValueError, match="^tensor has non-finite entries$"):
            fock.FockState(1, 3, tensor)


@pytest.fixture
def drop_cutoff_190_caches():
    """The cutoff-190 sector layout holds 36 MiB and its loss maps 18 MiB
    per transmittance; the caches are emptied after the test rather than
    kept for the session."""
    yield
    fock._sector_layout.cache_clear()
    fock._loss_kraus.cache_clear()


def _conditioning_bound(zeta, cutoff, variance, gamma):
    """A bound on the error of each entry of ``gamma``, the covariance the
    oracle gives for one arm of the TMSV at cutoff c, with pure loss on both
    arms, once a quadrature of the other arm reads 0; ``variance`` is the
    exact gamma entry of the quadrature read.

    The oracle conditions L(P), not L(Phi): Phi = sum_nm a_n a_m |nn><mm|,
    a_n = sqrt(1 - lam) q^n, lam = q^2 = tanh^2 zeta, and P its part with
    n, m <= c (its renormalisation cancels in the conditioning).  At record 0
    both means vanish (psi_n(0) = 0 for odd n; the Gaussian mean is linear
    in the record), so gamma = <A> = Tr[S A] / Tr[S], A = 2x^2, xp + px or
    2p^2 of the other mode and S = <0| L(.) |0>.  The loss factorises over
    the arms for each pair (n, m).  The read arm gives sum_k e_nk e_mk
    psi_(n-k)(0) psi_(m-k)(0), e_nk the binomial amplitudes of loss, at most
    pi^-1/2 (Cramer's bound |psi_n| <= pi^-1/4, then Cauchy-Schwarz).  The
    other arm gives at most n + m + 1, as |A[i, j]| <= i + j + 1 and A[i, j]
    = 0 unless i - j is 0 or +-2, which loss keeps and which is n - m.  So
    D = Phi - P has |Tr[S_D A]| <= pi^-1/2 T, T the sum of a_n a_m (n + m + 1)
    over n - m in {0, +-2} with max(n, m) > c, and Tr[S_D] <= pi^-1/2 w,
    w = lam^d.  <A>_Phi - <A>_P = (Tr[S_D A] - <A>_P Tr[S_D]) / Tr[S_Phi],
    and Tr[S_Phi] = 1 / sqrt(pi variance), the exact density at 0."""
    lam, d = np.tanh(zeta) ** 2, cutoff + 1
    tail = lam**d * (2 * d + 1 + 2 * lam / (1 - lam)) + 2 * lam ** (d - 1) * (2 * d - 1 + 2 * lam / (1 - lam))
    return np.sqrt(variance) * (tail + lam**d * np.max(np.abs(gamma)))


class TestLossDiagonals:
    """_loss_kraus builds the map of each diagonal from the binomial law of
    photon loss; the Kraus operators of the dense two-mode exponential are
    the reference."""

    @pytest.mark.parametrize("cutoff", [0, 4, 12, 25])
    @pytest.mark.parametrize("tau", [0.0, 0.3, 0.7, 0.99])
    def test_cached_maps_are_the_kraus_sums(self, cutoff, tau):
        d = cutoff + 1
        kraus = _dense_loss_kraus(cutoff, tau)
        maps = fock._loss_kraus(cutoff, tau)
        assert len(maps) == d
        for s, block in enumerate(maps):
            assert not block.flags.writeable
            # measured at most 2.4e-15 on this grid
            assert np.max(np.abs(block - np.sum(kraus[:, s:, s:] * kraus[:, : d - s, : d - s], axis=0))) <= 1e-14
        assert fock._loss_kraus(cutoff, tau) is maps

    def test_cold_build_solves_nothing(self, monkeypatch):
        solves = count_solves(monkeypatch, ("eig", "eigh", "eigvals", "eigvalsh", "svd"))
        misses = fock._loss_kraus.cache_info().misses
        fock._loss_kraus(30, 0.5772156649)  # a transmittance no other test uses
        assert fock._loss_kraus.cache_info().misses == misses + 1
        assert solves == []

    @pytest.mark.parametrize("tau", [0.0, 0.3, 0.99])
    def test_entries_are_non_negative_and_zero_below_the_diagonal(self, tau):
        for block in fock._loss_kraus(25, tau):
            assert np.all(block >= 0.0)
            assert not np.any(np.tril(block, -1))

    def test_total_loss_keeps_no_coherence(self):
        # at tau = 0 only the vacuum survives: every map with s > 0 is exactly zero
        maps = fock._loss_kraus(25, 0.0)
        assert not any(np.any(block) for block in maps[1:])
        assert np.array_equal(maps[0], np.pad(np.ones((1, 26)), ((0, 25), (0, 0))))

    @pytest.mark.parametrize("tau", [0.3, 0.7])
    def test_map_0_preserves_the_trace(self, tau, drop_cutoff_190_caches):
        # column m sums the d non-negative terms p(m, k) = 1, each correct to
        # a few eps: 1.1e-14 measured at tau = 0.3, 6.7e-16 at tau = 0.7
        d = 191
        columns = fock._loss_kraus(d - 1, tau)[0].sum(axis=0)
        assert np.max(np.abs(columns - 1.0)) <= d * np.finfo(float).eps


class TestBoundaryPopulation:
    @pytest.mark.parametrize("modes, cutoff", [(1, 0), (1, 6), (2, 0), (2, 5), (3, 3)])
    def test_matches_dense_diagonal(self, rng, modes, cutoff):
        st = _random_density(rng, modes, cutoff)
        for state in [st] + [fock.apply_loss_fock(st, m, 0.4) for m in range(modes)]:
            assert fock._boundary_population(state) == _dense_boundary_population(state)

    @pytest.mark.parametrize(
        "zeta, cutoff, taus",
        [(0.5, 8, (1.0, 1.0)), (0.5, 8, (0.9, 0.95)), (0.5, 8, (1.0, 0.9)), (0.5, 8, (0.7, 0.8)),
         (0.5, 8, (0.3, 0.2)), (0.3, 8, (0.9, 1.0)), (0.4, 25, (0.7, 0.8)), (0.5, 12, (0.9, 0.9))],
    )
    def test_cutoff_warning_fires_for_the_same_states(self, zeta, cutoff, taus):
        st = _lossy_tmsv(zeta, cutoff, taus)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fock.log_negativity_fock(st)
        warned = any("cutoff boundary population" in str(w.message) for w in caught)
        assert warned == (_dense_boundary_population(st) > fock._TRUNCATION_BUDGET)


class TestUnitariesAgainstScipy:
    @pytest.mark.parametrize("cutoff", [4, 12, 25])
    @pytest.mark.parametrize("tau", [0.0, 0.3, 0.7, 0.99])
    def test_blockwise_loss_kraus_matches_dense_expm(self, cutoff, tau):
        # the law _loss_kraus rests on, block n1 + n2 = m by block: the dense
        # exponential's E_k[m - k, m] is +-sqrt(C(m, k) tau^(m-k) (1-tau)^k),
        # its sign set by k alone, and every other entry is 0
        kraus = _dense_loss_kraus(cutoff, tau)
        levels = np.arange(cutoff + 1)
        for k, e in enumerate(kraus):
            m = levels[k:]
            law = np.sqrt([math.comb(n, k) * tau ** (n - k) * (1.0 - tau) ** k for n in m])
            column = e[m - k, m]
            sign = np.sign(column[np.argmax(np.abs(column))])
            assert np.max(np.abs(column - sign * law)) <= 1e-12
            rest = e.copy()
            rest[m - k, m] = 0.0
            assert np.max(np.abs(rest)) <= 1e-12

    @pytest.mark.parametrize("zeta, cutoff", [
        pytest.param(-0.8, 60, id="-0.8"),
        pytest.param(0.1, 25, id="0.1"),
        pytest.param(0.8, 60, id="0.8"),
        pytest.param(1.5, 120, id="1.5"),
    ])
    def test_squeezed_state_matches_expm(self, zeta, cutoff):
        # an error in the amplitudes is of the order of the dropped amplitude
        # sqrt(w): measured 5e-7, 4e-15, 5e-7 and 2.4e-4 against 1.1e-6, 0,
        # 1.1e-6 and 9.3e-4
        psi = _expm_squeezed_vacuum(zeta)[: cutoff + 1]
        st = fock.gaussian_fock(cv.squeezed_state(zeta).gamma, cutoff)
        assert np.max(np.abs(st.matrix - np.outer(psi, psi))) <= np.sqrt(st.trunc_weight) + 1e-12

    def test_repeated_loss_call_hits_the_cache(self):
        fock._loss_kraus(7, 0.4321)
        hits = fock._loss_kraus.cache_info().hits
        again = fock._loss_kraus(7, 0.4321)
        assert fock._loss_kraus.cache_info().hits == hits + 1
        assert len(again) == 8 and not any(block.flags.writeable for block in again)


class TestTmsvConstruction:
    def test_zero_squeezing_is_double_vacuum(self):
        st = fock.build_tmsv_fock(0.0, cutoff=10)
        assert_allclose(st.matrix, fock.vacuum_fock(2, 10).matrix)

    def test_photon_number_distribution(self):
        zeta, cutoff = 0.5, 20
        st = fock.build_tmsv_fock(zeta, cutoff)
        q = np.tanh(zeta)
        diag = np.real(np.diagonal(st.matrix)).reshape(cutoff + 1, cutoff + 1)
        expected = (1.0 - q * q) * q ** (2 * np.arange(cutoff + 1))
        assert_allclose(np.diagonal(diag), expected, atol=1e-12)
        assert_allclose(diag - np.diag(np.diagonal(diag)), 0.0, atol=1e-12)

    def test_covariance_matches_closed_form(self):
        st = fock.build_tmsv_fock(0.5, cutoff=25)
        kappa, gamma = fock.covariance_from_fock(st)
        assert_allclose(kappa, 0.0, atol=1e-12)
        assert np.max(np.abs(gamma - cv.tmsv_state(0.5).gamma)) <= 1e-6

    def test_truncation_budget_enforced(self):
        with pytest.raises(ValueError):
            fock.build_tmsv_fock(2.0, cutoff=5)

    def test_rejects_non_finite_squeezing(self):
        with pytest.raises(ValueError, match="squeezing must be finite, got nan"):
            fock.build_tmsv_fock(float("nan"))

    def test_reported_weight(self):
        st = fock.build_tmsv_fock(0.4, cutoff=15)
        q = np.tanh(0.4)
        assert_allclose(st.trunc_weight, q ** 32, atol=1e-15)


class TestLossChannel:
    def test_full_transmission_is_identity(self):
        st = fock.build_tmsv_fock(0.3, cutoff=12)
        out = fock.apply_loss_fock(st, 0, 1.0)
        assert_allclose(out.matrix, st.matrix)

    def test_full_loss_resets_to_vacuum(self):
        st = fock.number_state_fock([1], cutoff=8)
        out = fock.apply_loss_fock(st, 0, 0.0)
        assert_allclose(out.matrix, fock.vacuum_fock(1, 8).matrix, atol=1e-12)

    def test_trace_preserved(self):
        st = fock.build_tmsv_fock(0.4, cutoff=20)
        out = fock.apply_loss_fock(st, 0, 0.75)
        assert abs(out.trace() - st.trace()) <= 1e-10

    def test_matches_explicit_ancilla_construction(self):
        # same channel, done the slow way: attach a vacuum ancilla, apply
        # the two-mode beamsplitter unitary, trace the ancilla out
        cutoff, tau = 12, 0.7
        d = cutoff + 1
        st = fock.gaussian_fock(cv.squeezed_state(0.35, 0.4).gamma, cutoff=cutoff)
        a = np.diag(np.sqrt(np.arange(1, d, dtype=float)), k=1)
        theta = np.arccos(np.sqrt(tau))
        u = expm(theta * (np.kron(a.T, a) - np.kron(a, a.T)))
        anc = np.zeros((d, d), dtype=complex)
        anc[0, 0] = 1.0
        joint = np.kron(st.matrix, anc)
        joint = u @ joint @ u.conj().T
        joint = joint.reshape(d, d, d, d).trace(axis1=1, axis2=3)
        out = fock.apply_loss_fock(st, 0, tau)
        assert np.max(np.abs(out.matrix - joint)) <= 1e-12

    def test_degraded_tmsv_covariance(self):
        zeta, tau = 0.3, 0.8
        st = fock.build_tmsv_fock(zeta, cutoff=25)
        st = fock.apply_loss_fock(st, 0, tau)
        st = fock.apply_loss_fock(st, 1, tau)
        _, gamma = fock.covariance_from_fock(st)
        expected = tau * cv.tmsv_state(zeta).gamma + (1.0 - tau) * np.eye(4)
        assert np.max(np.abs(gamma - expected)) <= 1e-5

    def test_transmittance_range(self):
        with pytest.raises(ValueError):
            fock.apply_loss_fock(fock.vacuum_fock(1, 5), 0, 1.5)


class TestLogNegativityFock:
    def test_product_state_zero(self):
        assert abs(fock.log_negativity_fock(fock.vacuum_fock(2, 10))) <= 1e-12

    def test_tmsv_matches_2zeta(self):
        st = fock.build_tmsv_fock(0.3, cutoff=25)
        assert abs(fock.log_negativity_fock(st) - 0.6) <= 1e-4

    def test_degraded_matches_closed_form(self):
        zeta, tau = 0.3, 0.8
        st = fock.build_tmsv_fock(zeta, cutoff=25)
        st = fock.apply_loss_fock(st, 0, tau)
        st = fock.apply_loss_fock(st, 1, tau)
        closed = cv.transmitted_log_negativity(zeta, np.sqrt(tau))
        assert abs(fock.log_negativity_fock(st) - closed) <= 1e-3

    def test_lossy_tmsv_at_the_papers_largest_zeta(self, drop_cutoff_190_caches):
        # zeta = 2 ends the fiber sweeps of demos 02 and 03; cutoff 190 drops
        # 8.4e-7 of the weight, and E_N is off by 1.6e-6 (1e-5 is the E_N
        # tolerance of the benchmark's oracle check)
        fock._sector_layout.cache_clear()
        fock._loss_kraus.cache_clear()
        chain = []

        def cold_chain():
            st = _lossy_tmsv(2.0, 190, (0.7, 0.7))
            chain.extend((st, *_e_n_and_warnings(st)))
            # x (phi = 0), then p (phi = pi/2), of mode 0 reads 0; the d^4 tensor would take 10.6 GB
            chain.extend(fock.homodyne_conditional_fock(st, 0, 0.0, phi) for phi in (0.0, np.pi / 2))

        # 267 MiB measured; caching each entry's index in the d^4 tensor took it to 355 MiB
        assert _peak_bytes(cold_chain) <= 300 * 2**20
        st, e_n, warned, *conditionals = chain
        assert st.trunc_weight <= fock._TRUNCATION_BUDGET and warned == [] and "tensor" not in vars(st)
        assert abs(e_n - cv.transmitted_log_negativity(2.0, np.sqrt(0.7))) <= 1e-5
        # reading x of mode 0 is homodyne_project's index 1 (it names the conjugate
        # quadrature), reading p its index 0; measured 7.1e-5 against a bound of 4.8e-3
        fiber = cv.FiberParams(t_mag=np.sqrt(0.7))
        gamma = cv.degraded_tmsv(2.0, fiber, fiber)
        for cond, index in zip(conditionals, (1, 0), strict=True):
            got = fock.covariance_from_fock(cond)[1]
            want = cv.homodyne_project(gamma, [index]).gamma_out
            assert np.max(np.abs(got - want)) <= _conditioning_bound(2.0, 190, gamma[1 - index, 1 - index], got)

    def test_base_two(self):
        st = fock.build_tmsv_fock(0.3, cutoff=25)
        assert abs(fock.log_negativity_fock(st, base="2") - 0.6 / np.log(2.0)) <= 1e-4

    @pytest.mark.parametrize("base", ["e", "2"])
    def test_base_spellings_match_closed_form(self, base):
        st = fock.build_tmsv_fock(0.3, cutoff=25)
        closed = cv.log_negativity(cv.tmsv_state(0.3).gamma, base=base).e_n
        assert abs(fock.log_negativity_fock(st, base=base) - closed) <= 1e-4

    def test_rejects_unknown_base(self):
        st = fock.build_tmsv_fock(0.3, cutoff=25)
        with pytest.raises(ValueError):
            fock.log_negativity_fock(st, base="10")
        with pytest.raises(ValueError):
            cv.log_negativity(cv.tmsv_state(0.3).gamma, base="10")

    @pytest.mark.parametrize("base", ["natural", math.e, "two", 2, 2.0])
    def test_rejects_retired_spellings(self, base):
        st = fock.build_tmsv_fock(0.3, cutoff=25)
        with pytest.raises(ValueError, match="log base"):
            fock.log_negativity_fock(st, base=base)

    def test_rejects_unknown_base_before_the_eigen_solve(self, monkeypatch):
        st = fock.build_tmsv_fock(0.3, cutoff=25)

        def no_solve(matrix):
            raise AssertionError("eigen-solve ran before the base was checked")

        monkeypatch.setattr(fock.np.linalg, "eigvalsh", no_solve)
        with pytest.raises(ValueError, match="10"):
            fock.log_negativity_fock(st, base="10")

    def test_truncation_warning(self):
        # truncation weight 9.2e-7 is within the 1e-6 budget, the boundary
        # population 3.4e-6 is not
        st = fock.build_tmsv_fock(0.5, cutoff=8)
        with pytest.warns(UserWarning):
            fock.log_negativity_fock(st)


class TestWavefunctions:
    def test_orthonormality(self):
        # the default grid clips the n = 25 tail at the 1e-4 level, so the
        # 1e-6 check runs on a grid wide enough for every tabulated state
        grid = np.linspace(-10.0, 10.0, 1201)
        values = fock._wavefunctions(grid, 25)
        overlaps = np.trapezoid(values[:, None, :] * values[None, :, :], grid, axis=-1)
        assert np.max(np.abs(overlaps - np.eye(26))) <= 1e-6
        norms = np.trapezoid(fock._default_wavefunctions(25) ** 2, np.linspace(-8.0, 8.0, 801), axis=-1)
        assert np.max(np.abs(norms - 1.0)) <= 1e-3

    def test_ground_state(self):
        grid = np.linspace(-3, 3, 7)
        assert_allclose(fock._wavefunctions(grid, 0)[0], np.pi**-0.25 * np.exp(-0.5 * grid**2))


class TestHomodynePovm:
    def test_vacuum_density(self):
        res = fock.homodyne_povm_fock(fock.vacuum_fock(1, 25), 0)
        assert np.max(np.abs(res.pdf - np.exp(-res.grid**2) / np.sqrt(np.pi))) <= 1e-12
        assert abs(np.trapezoid(res.pdf, res.grid) - 1.0) <= 1e-4

    def test_vacuum_is_phase_invariant(self):
        st = fock.vacuum_fock(1, 20)
        a = fock.homodyne_povm_fock(st, 0, phi=0.0)
        b = fock.homodyne_povm_fock(st, 0, phi=np.pi / 2)
        assert np.max(np.abs(a.pdf - b.pdf)) <= 1e-12

    def test_single_photon_density(self):
        res = fock.homodyne_povm_fock(fock.number_state_fock([1], 20), 0)
        expected = 2.0 * res.grid**2 * np.exp(-res.grid**2) / np.sqrt(np.pi)
        assert np.max(np.abs(res.pdf - expected)) <= 1e-12

    def test_squeezed_marginal_matches_gamma(self):
        gamma = cv.squeezed_state(0.4).gamma
        st = fock.gaussian_fock(gamma, cutoff=30)
        res = fock.homodyne_povm_fock(st, 0, phi=0.0)
        var = gamma[0, 0] / 2.0
        expected = np.exp(-res.grid**2 / (2 * var)) / np.sqrt(2 * np.pi * var)
        assert np.max(np.abs(res.pdf - expected)) <= 1e-6

    def test_tmsv_arm_variance(self):
        zeta = 0.4
        st = fock.build_tmsv_fock(zeta, cutoff=25)
        res = fock.homodyne_povm_fock(st, 0)
        second = np.trapezoid(res.grid**2 * res.pdf, res.grid)
        assert abs(second - np.cosh(2 * zeta) / 2.0) <= 1e-6

    def test_default_grid_is_shared_and_read_only(self):
        grids = [fock.homodyne_povm_fock(fock.vacuum_fock(1, cutoff), 0).grid for cutoff in (4, 4, 9)]
        assert grids[0] is grids[1] is grids[2] and not grids[0].flags.writeable
        assert np.array_equal(grids[0], np.linspace(-8.0, 8.0, 801))

    def test_default_grid_table_is_built_once_per_cutoff(self):
        values = fock._default_wavefunctions(4)
        assert values is fock._default_wavefunctions(4) and not values.flags.writeable
        assert np.array_equal(values, fock._wavefunctions(np.linspace(-8.0, 8.0, 801), 4))

    def test_conditional_state_matches_gaussian_machinery(self):
        # measuring x on one arm in Fock space reproduces the covariance the
        # Gaussian side assigns to conditioning on that mode (which, in the
        # conjugate-projector naming, is homodyne_project of the p index)
        zeta = 0.4
        st = fock.build_tmsv_fock(zeta, cutoff=25)
        grid = np.linspace(-8.0, 8.0, 801)
        x = grid[int(np.argmin(np.abs(grid - 0.7)))]
        cond = fock.homodyne_conditional_fock(st, 0, x, phi=0.0)
        assert cond.modes == 1 and abs(cond.trace() - 1.0) <= 1e-12
        kappa, gamma_cond = fock.covariance_from_fock(cond)
        expected = cv.homodyne_project(cv.tmsv_state(zeta).gamma, measured={1}).gamma_out
        assert np.max(np.abs(gamma_cond - expected)) <= 1e-6
        # the conditional mean lands where the arm correlations say it should
        assert kappa[0] != 0.0

    def test_conditional_density_is_the_measured_pdf(self, rng):
        # the unnormalised conditional traces to the outcome density, so the
        # two functions agree on a random non-Gaussian two-mode state
        st = _random_density(rng, 2, 6)
        grid = np.linspace(-2.0, 2.0, 5)
        pdf = fock.homodyne_povm_fock(st, 1, phi=0.3, grid=grid).pdf
        table = fock._wavefunctions(grid, 6).T * np.exp(0.3j * np.arange(7))
        for x, p, amp in zip(grid, pdf, table):
            cond = fock.homodyne_conditional_fock(st, 1, x, phi=0.3)
            sigma = np.einsum("m,ambn,n->ab", amp.conj(), st.tensor, amp)
            assert abs(np.trace(sigma).real - p) <= 1e-12
            assert np.max(np.abs(cond.matrix - sigma / p)) <= 1e-12

    def test_conditional_rejects_bad_requests(self):
        st = fock.build_tmsv_fock(0.3, cutoff=10)
        with pytest.raises(ValueError, match="two modes"):
            fock.homodyne_conditional_fock(fock.vacuum_fock(1, 10), 0, 0.0)
        with pytest.raises(ValueError, match="mode index"):
            fock.homodyne_conditional_fock(st, 2, 0.0)
        with pytest.raises(ValueError, match="finite"):
            fock.homodyne_conditional_fock(st, 0, float("nan"))
        with pytest.raises(ValueError, match="zero density"):
            fock.homodyne_conditional_fock(st, 0, 40.0)


_MODE_ENTRY_POINTS = {
    "apply_loss_fock": lambda st, mode: fock.apply_loss_fock(st, mode, 0.7),
    "homodyne_povm_fock": fock.homodyne_povm_fock,
    "homodyne_conditional_fock": lambda st, mode: fock.homodyne_conditional_fock(st, mode, 0.1),
    "partial_trace": lambda st, mode: fock.partial_trace(st, [mode]),
}


class TestModeIndex:
    @pytest.mark.parametrize("entry", sorted(_MODE_ENTRY_POINTS))
    @pytest.mark.parametrize("mode", [0.5, -1, 2, 7, float("nan"), float("inf")])
    def test_rejects_bad_index(self, entry, mode):
        st = fock.build_tmsv_fock(0.3, cutoff=6)
        message = r"mode index must be an integer in \[0, 2\)"
        if entry == "partial_trace" and not math.isfinite(mode):
            message = "^keep has non-finite entries$"  # the vector rule reads keep before its entries
        with pytest.raises(ValueError, match=message):
            _MODE_ENTRY_POINTS[entry](st, mode)

    @pytest.mark.parametrize("entry", sorted(_MODE_ENTRY_POINTS))
    def test_integral_float_is_that_mode(self, entry):
        st = fock.apply_loss_fock(fock.build_tmsv_fock(0.3, cutoff=6), 0, 0.6)
        as_float, as_int = (_MODE_ENTRY_POINTS[entry](st, mode) for mode in (1.0, 1))
        field = "pdf" if entry == "homodyne_povm_fock" else "tensor"
        assert np.array_equal(getattr(as_float, field), getattr(as_int, field))


class TestPartialTrace:
    def test_tmsv_arm_reduces_to_thermal(self):
        zeta = 0.5
        st = fock.build_tmsv_fock(zeta, cutoff=25)
        arm = fock.partial_trace(st, keep=[0])
        assert abs(arm.trace() - 1.0) <= 1e-10
        _, gamma = fock.covariance_from_fock(arm)
        n_bar = np.sinh(zeta) ** 2
        assert np.max(np.abs(gamma - (2 * n_bar + 1) * np.eye(2))) <= 1e-6

    def test_keep_order_and_shape(self):
        st = fock.build_tmsv_fock(0.3, cutoff=10)
        arm = fock.partial_trace(st, keep=[1])
        assert arm.modes == 1 and arm.matrix.shape == (11, 11)


class TestOverlap:
    def test_identical_pure_states(self):
        st = fock.gaussian_fock(cv.squeezed_signal(0.5).gamma, cutoff=25)
        assert abs(fock.overlap_fock(st, st) - 1.0) <= 1e-10

    def test_orthogonal_number_states(self):
        a = fock.number_state_fock([0], 10)
        b = fock.number_state_fock([1], 10)
        assert abs(fock.overlap_fock(a, b)) <= 1e-12

    def test_rejects_mixed_first_argument(self):
        mixed = fock.gaussian_fock(cv.thermal_state(0.5).gamma, cutoff=25)
        pure = fock.vacuum_fock(1, 25)
        with pytest.raises(ValueError):
            fock.overlap_fock(mixed, pure)

    def test_purity_tolerance_is_not_a_parameter(self):
        st = fock.vacuum_fock(1, 5)
        with pytest.raises(TypeError):
            fock.overlap_fock(st, st, purity_tol=1.0)

    def test_matches_gaussian_fidelity(self):
        eta = 0.4
        gamma_in = cv.squeezed_signal(eta).gamma
        gamma_rec = cv.teleport(cv.TeleportSetup(gamma_in, 0.5)).gamma_rec
        sig = fock.gaussian_fock(gamma_in, cutoff=30)
        rec = fock.gaussian_fock(gamma_rec, cutoff=30)
        f_gauss = cv.fidelity(gamma_in, gamma_rec)
        assert abs(fock.overlap_fock(sig, rec) - f_gauss) <= 1e-4


class TestGaussianFock:
    def test_roundtrip_random_states(self, rng):
        # moderate states: heavy squeezed-thermal tails converge slowly in
        # the cutoff, which is an oracle capability limit, not a bug
        for _ in range(10):
            gamma = random_single_mode_physical(rng, max_squeeze=0.25, max_n=0.5)
            st = fock.gaussian_fock(gamma, cutoff=40)
            _, out = fock.covariance_from_fock(st)
            assert np.max(np.abs(out - gamma)) <= 1e-8

    def test_positive_unit_trace(self):
        st = fock.gaussian_fock(cv.thermal_state(0.7).gamma, cutoff=30)
        evals = np.linalg.eigvalsh(st.matrix)
        assert evals[0] >= -1e-10
        assert abs(st.trace() - 1.0) <= 1e-10

    def test_thermal_tail_budget(self):
        with pytest.raises(ValueError):
            fock.gaussian_fock(cv.thermal_state(5.0).gamma, cutoff=10)

    @pytest.mark.parametrize("state", [
        pytest.param(cv.squeezed_state(0.8), id="squeezed-0.8"),
        pytest.param(cv.squeezed_state(1.5), id="squeezed-1.5"),
        pytest.param(cv.squeezed_signal(2.0), id="signal-2.0"),
    ])
    def test_squeezed_tail_over_budget_is_refused(self, state):
        # the weight was mu^d, the thermal tail alone, so a pure state reported 0.0;
        # these drop 4.8e-6, 2.4e-2 and 1.9e-4 at cutoff 25
        with pytest.raises(ValueError, match=r"^truncation weight \S+ exceeds the budget 1\.0e-06; raise the cutoff$"):
            fock.gaussian_fock(state.gamma, cutoff=25)

    def test_weight_is_the_population_past_the_cutoff(self):
        st = fock.gaussian_fock(cv.squeezed_state(0.8).gamma, cutoff=40)
        assert abs(st.trunc_weight - np.sum(_expm_squeezed_vacuum(0.8)[41:] ** 2)) <= 1e-12  # 5.48e-9

    def test_tail_matches_a_high_cutoff_diagonal(self, rng):
        # mixed, squeezed and rotated; at cutoff 150 the dropped weight is below 1e-30
        for _ in range(6):
            gamma = random_single_mode_physical(rng, max_squeeze=0.4, max_n=0.5)
            probs = np.diagonal(fock.gaussian_fock(gamma, cutoff=150).matrix).real
            for d in (6, 11, 21):
                assert abs(fock._photon_tail(gamma, d) - probs[d:].sum()) <= 1e-14

    def test_thermal_tail_is_mu_to_the_d(self):
        mu = 0.7 / 1.7
        st = fock.gaussian_fock(cv.thermal_state(0.7).gamma, cutoff=30)
        assert abs(st.trunc_weight - mu**31) <= 1e-15

    def test_one_eigen_solve(self, monkeypatch):
        # the squeezer's decomposition took a 2 x 2 eigen-solve before the d x d one
        solves = count_solves(monkeypatch, ("eig", "eigh", "eigvals", "eigvalsh", "svd"))
        fock.gaussian_fock(cv.squeezed_state(0.35, 0.4).gamma, cutoff=25)
        assert solves == [(26, 26)]

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite_covariance(self, bad):
        with pytest.raises(ValueError, match="^covariance matrix has non-finite entries$"):
            fock.gaussian_fock([[1.0, 0.0], [0.0, bad]])

    def test_rejects_a_negative_determinant(self):
        # the gate compared a NaN nu False and built a NaN squeezer
        with pytest.raises(ValueError, match="^covariance matrix is unphysical$"):
            fock.gaussian_fock(np.diag([-1.0, 2.0]))

    def test_rejects_a_negative_definite_covariance(self):
        # det(-1) = 1 passed the gate, and the log of a negative ratio warned
        with pytest.raises(ValueError, match="^covariance matrix is unphysical$"):
            fock.gaussian_fock(-np.eye(2))


class TestConstructorInputs:
    @pytest.mark.parametrize("build, count", [
        pytest.param(lambda: fock.vacuum_fock(0), 0, id="vacuum-0"),
        pytest.param(lambda: fock.vacuum_fock(-1), -1, id="vacuum-minus-1"),
        pytest.param(lambda: fock.number_state_fock([]), 0, id="number-state-empty"),
        pytest.param(lambda: fock.FockState(0, 3, np.ones(())), 0, id="FockState-0"),
    ])
    def test_rejects_fewer_than_one_mode(self, build, count):
        with pytest.raises(ValueError, match=f"mode count must be positive, got {count}$"):
            build()

    @pytest.mark.parametrize("weight", [float("nan"), -0.5, 2.0, float("inf")])
    def test_rejects_a_truncation_weight_that_is_not_a_probability(self, weight):
        with pytest.raises(ValueError, match=r"^trunc_weight must lie in \[0, 1\], got"):
            fock.FockState(1, 3, np.eye(4) / 4, trunc_weight=weight)

    @pytest.mark.parametrize("ns", [[1.7], [0, 0.5], [-1], [9], [float("nan")]])
    def test_rejects_occupations_that_are_not_levels(self, ns):
        with pytest.raises(ValueError, match=r"occupations must be integers in \[0, 8\], got"):
            fock.number_state_fock(ns, cutoff=8)


def _assert_same_readings(got, want):
    """Arrays bit for bit; scalars, which sum or eigen-solve in real rather
    than complex arithmetic, within 1e-15."""
    for g, w in zip(got, want, strict=True):
        if np.ndim(g) == 0:
            assert abs(g - w) <= 1e-15
        else:
            assert np.array_equal(g, w)


class TestRealArithmetic:
    """A real state is stored and evolved as float64 and reads like the same
    state stored as complex."""

    def test_real_builders_and_maps_give_float64(self):
        tmsv = fock.build_tmsv_fock(0.3, cutoff=6)
        states = [tmsv, fock.number_state_fock([1, 2], 6), fock.vacuum_fock(2, 6)]
        states += [fock.apply_loss_fock(tmsv, 1, 0.7), fock.partial_trace(tmsv, [0])]
        assert [st.tensor.dtype for st in states] == [np.float64] * 5

    def test_input_dtype_rule(self):
        d = np.arange(4).reshape(2, 2)
        assert fock.FockState(1, 1, d).tensor.dtype == np.float64
        assert fock.FockState(1, 1, d.astype(bool)).tensor.dtype == np.float64
        assert fock.FockState(1, 1, d.astype(np.float32)).tensor.dtype == np.float64
        assert fock.FockState(1, 1, d + 0j).tensor.dtype == np.complex128
        assert fock.FockState(1, 1, (d + 0j).astype(np.complex64)).tensor.dtype == np.complex128
        assert fock.homodyne_conditional_fock(fock.build_tmsv_fock(0.3, 6), 0, 0.2).tensor.dtype == np.complex128

    def test_real_state_is_not_copied(self):
        t = np.eye(3)
        assert fock.FockState(1, 2, t).tensor is t

    def test_lossy_tmsv_reads_as_its_complex_cast(self):
        real = _lossy_tmsv(cutoff=8)
        cast = fock.FockState(2, 8, real.tensor.astype(complex))
        assert real.tensor.dtype == np.float64
        pure = fock.build_tmsv_fock(0.4, 8)
        got, want = _readings(real, pure), _readings(cast, pure)
        # reading 16, gamma: the sector cross moments against the dense
        # contraction, another order of sums, within the sector-vs-dense bound
        gamma, ref_gamma = got.pop(16), want.pop(16)
        assert np.max(np.abs(gamma - ref_gamma)) <= 1e-14 * max(1.0, np.max(np.abs(ref_gamma)))
        # readings 14 and 9, the conditional states: sector against dense sums, likewise
        for reading in (14, 9):
            assert np.max(np.abs(got.pop(reading) - want.pop(reading))) <= 1e-15
        _assert_same_readings(got, want)

    @pytest.mark.parametrize("modes, cutoff", [(1, 0), (1, 9), (2, 1), (2, 6), (3, 3)])
    def test_random_real_state_reads_as_its_complex_cast(self, rng, modes, cutoff):
        real = _random_density(rng, modes, cutoff, real=True)
        cast = fock.FockState(modes, cutoff, real.tensor.astype(complex))
        assert real.tensor.dtype == np.float64
        pure = _random_pure(rng, modes, cutoff, real=True)
        got, want = _readings(real, pure), _readings(cast, pure)
        if modes == 1:
            # reading 5, the loss result: its products have one real column,
            # which numpy hands to a matrix-vector kernel, and the complex
            # cast's two real columns to a matrix-matrix one, which sums in
            # another order
            assert np.max(np.abs(got.pop(5) - want.pop(5))) <= 1e-15
        _assert_same_readings(got, want)


_CUTOFF_ENTRY_POINTS = {
    "FockState": lambda c: fock.FockState(1, c, np.zeros((1, 1))),
    "vacuum_fock": lambda c: fock.vacuum_fock(1, c),
    "number_state_fock": lambda c: fock.number_state_fock([0], c),
    "build_tmsv_fock": lambda c: fock.build_tmsv_fock(0.001, c),
    "gaussian_fock": lambda c: fock.gaussian_fock(np.eye(2), c),
}


class TestCutoffRule:
    @pytest.mark.parametrize("entry", sorted(_CUTOFF_ENTRY_POINTS))
    @pytest.mark.parametrize("cutoff", [-1, 2.5, float("nan"), float("inf")])
    def test_rejects_bad_cutoff(self, entry, cutoff):
        with pytest.raises(ValueError, match=rf"^cutoff must be an integer >= 0, got {cutoff!r}$"):
            _CUTOFF_ENTRY_POINTS[entry](cutoff)

    def test_empty_tensor_with_negative_cutoff_is_refused(self):
        with pytest.raises(ValueError, match="^cutoff must be"):
            fock.FockState(2, -1, np.zeros((0,) * 4))

    def test_integral_float_cutoff_is_that_int(self):
        st = fock.FockState(2, 8.0, fock.build_tmsv_fock(0.3, 8).tensor)
        assert type(st.cutoff) is int and st.matrix.shape == (81, 81)
        assert abs(fock.log_negativity_fock(st) - fock.log_negativity_fock(fock.build_tmsv_fock(0.3, 8))) <= _E_N_TOL
        assert fock.build_tmsv_fock(0.001, 2.0).cutoff == 2
