import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import expm

import cvsim as cv
from cvsim import fock
from conftest import random_single_mode_physical


def _random_density(rng, modes, cutoff):
    """Random full-rank density matrix: non-Gaussian, nonzero means, no phase symmetry."""
    n = (cutoff + 1) ** modes
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = g @ g.conj().T
    return fock.FockState(modes, cutoff, (rho / np.trace(rho)).reshape((cutoff + 1,) * (2 * modes)))


def _reference_loss(state, mode, tau):
    """The Kraus sum term by term: E_k rho E_k^dag on one mode's ket and bra axes."""
    out = np.zeros_like(state.tensor)
    for e in fock._loss_kraus(state.cutoff, float(tau)):
        t = np.moveaxis(np.tensordot(e, state.tensor, axes=([1], [mode])), 0, mode)
        t = np.tensordot(e.conj(), t, axes=([1], [state.modes + mode]))
        out += np.moveaxis(t, 0, state.modes + mode)
    return out


def _dense_loss(state, mode, tau):
    """The loss superoperator as one dense d^2 x d^2 product on the mode's (ket, bra) axes."""
    d = state.cutoff + 1
    kraus = fock._loss_kraus(state.cutoff, float(tau))
    sup = np.einsum("kam,kbn->abmn", kraus, kraus).reshape(d * d, d * d)
    axes = (mode, state.modes + mode)
    moved = np.moveaxis(state.tensor, axes, (0, 1))
    return np.moveaxis((sup @ moved.reshape(d * d, -1)).reshape(moved.shape), (0, 1), axes)


def _dense_log_negativity(state):
    """log of the trace norm of the partial transpose from one dense eigvalsh."""
    d = state.cutoff + 1
    pt = state.tensor.transpose(0, 3, 2, 1).reshape(d * d, d * d)
    return float(np.log(np.sum(np.abs(np.linalg.eigvalsh(pt)))))


def _random_block_matrix(rng, n, n_blocks):
    """Random Hermitian n x n matrix, zero between n_blocks randomly
    interleaved index sets."""
    labels = rng.permutation(np.arange(n) % n_blocks)
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (g + g.conj().T) * (labels[:, None] == labels[None, :])


def _lossy_tmsv(zeta=0.4, cutoff=25, taus=(0.7, 0.8)):
    st = fock.build_tmsv_fock(zeta, cutoff)
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
    @pytest.mark.parametrize("modes, cutoff", [(1, 4), (1, 8), (2, 5), (2, 8), (3, 4), (3, 6)])
    @pytest.mark.parametrize("tau", [0.0, 0.3, 0.99])
    def test_loss_matches_kraus_sum(self, rng, modes, cutoff, tau):
        st = _random_density(rng, modes, cutoff)
        for mode in range(modes):
            out = fock.apply_loss_fock(st, mode, tau)
            assert out.tensor.shape == st.tensor.shape
            assert np.max(np.abs(out.tensor - _reference_loss(st, mode, tau))) <= 1e-12

    @pytest.mark.parametrize("modes", [1, 2])
    @pytest.mark.parametrize("cutoff", [4, 6, 8])
    def test_moments_match_dense_quadratures(self, rng, modes, cutoff):
        st = _random_density(rng, modes, cutoff)
        kappa, gamma = fock.covariance_from_fock(st)
        ref_kappa, ref_gamma = _reference_moments(st)
        assert np.min(np.abs(ref_kappa)) > 1e-3  # the mean terms are exercised
        assert np.max(np.abs(kappa - ref_kappa)) <= 1e-12
        assert np.max(np.abs(gamma - ref_gamma)) <= 1e-12

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
        dense = _random_density(rng, 2, cutoff)  # its partial transpose is one block
        n = (cutoff + 1) ** 2
        pt = _random_block_matrix(rng, n, 4)
        structured = fock.FockState(2, cutoff, pt.reshape((cutoff + 1,) * 4).transpose(0, 3, 2, 1))
        blocks = fock._blocks(pt)
        assert len(blocks) == 4 and all(np.any(np.diff(idx) > 1) for idx in blocks)  # interleaved
        for st in (dense, structured):
            assert abs(fock.log_negativity_fock(st) - _dense_log_negativity(st)) <= 1e-12

    @pytest.mark.parametrize("n, n_blocks", [(1, 1), (9, 1), (40, 3), (60, 7)])
    def test_blocks_partition_the_indices(self, rng, n, n_blocks):
        m = _random_block_matrix(rng, n, n_blocks)
        blocks = fock._blocks(m)
        assert len(blocks) == n_blocks
        assert np.array_equal(np.sort(np.concatenate(blocks)), np.arange(n))
        owner = np.empty(n, dtype=int)
        for b, idx in enumerate(blocks):
            assert np.all(np.diff(idx) > 0)
            owner[idx] = b
        rows, cols = np.nonzero(m)
        assert np.array_equal(owner[rows], owner[cols])  # no nonzero entry joins two blocks

    def test_blocks_follow_one_sided_chains(self, rng):
        # each set is a directed path of tiny entries: one triangle only, and
        # many search steps from end to end
        perm = rng.permutation(30)
        chains = (perm[:17], perm[17:])
        m = np.zeros((30, 30))
        for chain in chains:
            m[chain[:-1], chain[1:]] = 1e-300
        blocks = sorted(idx.tolist() for idx in fock._blocks(m))
        assert blocks == sorted(sorted(chain.tolist()) for chain in chains)

    def test_lossy_tmsv_is_solved_in_51_blocks(self, monkeypatch):
        st = _lossy_tmsv()
        ref = _dense_log_negativity(st)
        shapes = []
        eigvalsh = np.linalg.eigvalsh

        def recording(matrix):
            shapes.append(matrix.shape)
            return eigvalsh(matrix)

        monkeypatch.setattr(fock.np.linalg, "eigvalsh", recording)
        assert abs(fock.log_negativity_fock(st) - ref) <= 1e-12
        assert len(shapes) == 51  # total photon numbers 0..50 of the partial transpose
        assert max(shapes) == (26, 26)

    def test_trace_products_match_matrix_products(self, rng):
        mixed = _random_density(rng, 2, 6)
        pure = fock.gaussian_fock(cv.squeezed_state(0.3, 0.2).gamma, cutoff=30)
        thermal = fock.gaussian_fock(cv.thermal_state(0.2).gamma, cutoff=30)
        ref_purity = np.trace(mixed.matrix @ mixed.matrix).real
        assert abs(mixed.purity() - ref_purity) <= 1e-12 * ref_purity
        assert abs(fock.overlap_fock(pure, thermal) - np.trace(pure.matrix @ thermal.matrix).real) <= 1e-12


def _dense_loss_kraus(cutoff, tau):
    """E_k = <k|U|0> from the dense exponential of the two-mode generator."""
    d = cutoff + 1
    a = np.diag(np.sqrt(np.arange(1, d, dtype=float)), k=1)
    theta = np.arccos(np.sqrt(tau))
    u = expm(theta * (np.kron(a.T, a) - np.kron(a, a.T))).reshape(d, d, d, d)
    return np.stack([u[:, k, :, 0] for k in range(d)])


class TestUnitariesAgainstScipy:
    @pytest.mark.parametrize("cutoff", [4, 12, 25])
    @pytest.mark.parametrize("tau", [0.0, 0.3, 0.7, 0.99])
    def test_blockwise_loss_kraus_matches_dense_expm(self, cutoff, tau):
        kraus = fock._loss_kraus(cutoff, tau)
        assert kraus.shape == (cutoff + 1,) * 3
        assert np.max(np.abs(kraus - _dense_loss_kraus(cutoff, tau))) <= 1e-12

    @pytest.mark.parametrize("zeta", [-0.8, 0.1, 0.8, 1.5])
    def test_squeeze_unitary_matches_expm(self, zeta):
        d = 26
        a = np.diag(np.sqrt(np.arange(1, d, dtype=float)), k=1)
        ref = expm((-zeta / 2.0) * (a @ a - a.T @ a.T))
        assert np.max(np.abs(fock._squeeze_unitary(d, zeta) - ref)) <= 1e-12

    def test_repeated_loss_call_hits_the_cache(self):
        fock._loss_kraus(7, 0.4321)
        hits = fock._loss_kraus.cache_info().hits
        again = fock._loss_kraus(7, 0.4321)
        assert fock._loss_kraus.cache_info().hits == hits + 1
        assert not again.flags.writeable


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
        table = fock.QuadratureWavefunctionTable.build(grid, 25)
        overlaps = np.trapezoid(table.values[:, None, :] * table.values[None, :, :], grid, axis=-1)
        assert np.max(np.abs(overlaps - np.eye(26))) <= 1e-6
        table_default = fock.QuadratureWavefunctionTable.build(fock.default_grid(), 25)
        norms = np.trapezoid(table_default.values**2, table_default.grid, axis=-1)
        assert np.max(np.abs(norms - 1.0)) <= 1e-3

    def test_ground_state(self):
        grid = np.linspace(-3, 3, 7)
        table = fock.QuadratureWavefunctionTable.build(grid, 0)
        assert_allclose(table.values[0], np.pi**-0.25 * np.exp(-0.5 * grid**2))


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

    def test_conditional_state_matches_gaussian_machinery(self):
        # measuring x on one arm in Fock space reproduces the covariance the
        # Gaussian side assigns to conditioning on that mode (which, in the
        # conjugate-projector naming, is homodyne_project of the p index)
        zeta = 0.4
        st = fock.build_tmsv_fock(zeta, cutoff=25)
        grid = fock.default_grid()
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
        table = fock.QuadratureWavefunctionTable.build(grid, 6).values.T * np.exp(0.3j * np.arange(7))
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

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite_covariance(self, bad):
        with pytest.raises(ValueError, match=f"covariance matrix must be finite, got .*{bad}"):
            fock.gaussian_fock([[1.0, 0.0], [0.0, bad]])


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

    @pytest.mark.parametrize("ns", [[1.7], [0, 0.5], [-1], [9], [float("nan")]])
    def test_rejects_occupations_that_are_not_levels(self, ns):
        with pytest.raises(ValueError, match=r"occupations must be integers in \[0, 8\], got"):
            fock.number_state_fock(ns, cutoff=8)
