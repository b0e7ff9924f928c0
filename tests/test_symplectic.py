import numpy as np
import pytest
from numpy.testing import assert_allclose

import cvsim as cv
from cvsim.symplectic import Gate, _block_diag
from conftest import random_single_mode_physical, random_symplectic, random_two_mode_physical

SIGMA2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


def bs_printed():
    # symmetric beamsplitter in block form, written out longhand
    eye = np.eye(2)
    return np.block([[eye, eye], [-eye, eye]]) / np.sqrt(2.0)


class TestSymplecticForm:
    def test_blocks(self):
        sigma = cv.symplectic_form(2)
        assert_allclose(sigma[:2, :2], SIGMA2)
        assert_allclose(sigma[2:, 2:], SIGMA2)
        assert_allclose(sigma[:2, 2:], 0.0)

    def test_invariants(self):
        for n in (1, 2, 3):
            sigma = cv.symplectic_form(n)
            assert_allclose(sigma.T, -sigma)
            assert_allclose(sigma @ sigma, -np.eye(2 * n))
            assert_allclose(np.linalg.det(sigma), 1.0)

    def test_rejects_zero_modes(self):
        with pytest.raises(ValueError):
            cv.symplectic_form(0)

    def test_shared_array_is_read_only(self):
        sigma = cv.symplectic_form(2)
        assert cv.symplectic_form(2) is sigma
        assert not sigma.flags.writeable
        with pytest.raises(ValueError):
            sigma[0, 1] = 5.0


class TestBlockDiag:
    @pytest.mark.parametrize(
        "shapes",
        [[(3, 3)], [(2, 2), (4, 4)], [(1, 1), (4, 4), (2, 2)]],
    )
    def test_matches_scipy(self, rng, shapes):
        from scipy.linalg import block_diag

        mats = [rng.normal(size=shape) for shape in shapes]
        out = _block_diag(*mats)
        ref = block_diag(*mats)
        assert out.shape == ref.shape and out.dtype == ref.dtype
        assert np.array_equal(out, ref)


# every entry point that takes a covariance or symplectic matrix through
# the shared shape check; none may reach an eigen-solve with NaN or inf
_MATRIX_ENTRY_POINTS = {
    "validate_covariance": cv.validate_covariance,
    "symplectic_eigenvalues": cv.symplectic_eigenvalues,
    "check_symplectic": cv.check_symplectic,
    "classicality_test": cv.classicality_test,
    "GaussianState": lambda gamma: cv.GaussianState(np.zeros(len(gamma)), gamma),
    "log_negativity": cv.log_negativity,
    "is_separable": cv.is_separable,
    "partial_transpose": cv.partial_transpose,
    "euler_decompose": cv.euler_decompose,
    "gaussian_project": lambda gamma: cv.gaussian_project(gamma, [0], np.eye(2)),
    "homodyne_project": lambda gamma: cv.homodyne_project(gamma, [0]),
}


class TestNonFiniteMatrix:
    @pytest.mark.parametrize("entry", sorted(_MATRIX_ENTRY_POINTS))
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejected_before_any_eigen_solve(self, entry, bad):
        gamma = cv.tmsv_state(0.5).gamma.copy()
        gamma[1, 2] = gamma[2, 1] = bad
        with pytest.raises(ValueError, match="has non-finite entries"):
            _MATRIX_ENTRY_POINTS[entry](gamma)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_single_mode_is_not_a_silent_verdict(self, bad):
        # a 2x2 NaN covariance used to return physical=False, min_eigenvalue=nan
        with pytest.raises(ValueError, match="covariance matrix has non-finite entries"):
            cv.validate_covariance(np.array([[1.0, 0.0], [0.0, bad]]))


class TestZeroModes:
    @pytest.mark.parametrize("entry", sorted(_MATRIX_ENTRY_POINTS))
    def test_zero_by_zero_is_refused_alike(self, entry):
        # symplectic_eigenvalues used to raise IndexError
        with pytest.raises(ValueError, match="^mode count must be positive, got 0$"):
            _MATRIX_ENTRY_POINTS[entry](np.zeros((0, 0)))


class TestValidateCovariance:
    def test_vacuum_saturates(self):
        report = cv.validate_covariance(np.eye(2))
        assert report.physical
        assert abs(report.min_eigenvalue) < 1e-12

    def test_tmsv_is_pure_boundary(self):
        gamma = cv.tmsv_state(0.5).gamma
        # oracle: eigendecompose gamma + i Sigma directly
        oracle = np.linalg.eigvalsh(gamma + 1j * cv.symplectic_form(2))[0]
        report = cv.validate_covariance(gamma)
        assert report.physical
        assert_allclose(report.min_eigenvalue, oracle, atol=1e-12)
        assert abs(oracle) < 1e-10

    def test_squeezed_below_vacuum_unphysical(self):
        report = cv.validate_covariance(np.diag([0.5, 0.5]))
        assert not report.physical
        assert_allclose(report.min_eigenvalue, -0.5, atol=1e-12)

    def test_dimension_errors(self):
        with pytest.raises(ValueError):
            cv.validate_covariance(np.eye(3))
        with pytest.raises(ValueError):
            cv.validate_covariance(np.ones((2, 4)))


class TestCheckSymplectic:
    def test_identity(self):
        assert cv.check_symplectic(np.eye(4))

    def test_printed_beamsplitter(self):
        assert cv.check_symplectic(bs_printed())

    def test_scaling_fails(self):
        assert not cv.check_symplectic(np.diag([2.0, 2.0]))


class TestBuildSymplectic:
    def test_squeeze_matrix(self):
        s = cv.build_symplectic([cv.squeeze(0, 0.7)], 1)
        assert_allclose(s, np.diag([np.exp(0.7), np.exp(-0.7)]))

    def test_beamsplitter_matches_printed_form(self):
        b, o, one = np.eye(2) / np.sqrt(2.0), np.zeros((2, 2)), np.eye(2)
        printed = {
            ((0, 1), 2): bs_printed(),
            ((1, 0), 2): np.block([[b, -b], [b, b]]),
            ((0, 2), 3): np.block([[b, o, b], [o, one, o], [-b, o, b]]),
            ((2, 0), 3): np.block([[b, o, -b], [o, one, o], [b, o, b]]),
        }
        for (modes, n_modes), longhand in printed.items():
            assert_allclose(cv.build_symplectic([cv.beamsplitter(*modes)], n_modes), longhand)

    def test_empty_is_identity(self):
        assert_allclose(cv.build_symplectic([], 3), np.eye(6))

    def test_mode_named_twice_keeps_the_last_pair_written(self):
        # the mode pairs are written in row-major order, so the (1, 1) sub-block is the one kept
        block = np.arange(1.0, 17.0).reshape(4, 4)
        assert np.array_equal(cv.build_symplectic([Gate((0, 0), block)], 1), block[2:, 2:])

    def test_leftmost_gate_applied_last(self):
        gates = [cv.beamsplitter(0, 1), cv.squeeze(0, -0.3)]
        s = cv.build_symplectic(gates, 2)
        oracle = cv.build_symplectic([gates[0]], 2) @ cv.build_symplectic([gates[1]], 2)
        assert_allclose(s, oracle)

    def test_mode_out_of_range(self):
        with pytest.raises(ValueError):
            cv.build_symplectic([cv.squeeze(2, 0.1)], 2)

    @pytest.mark.parametrize("gate", [
        pytest.param(lambda: cv.squeeze(0.5, 0.1), id="squeeze-0.5"),
        pytest.param(lambda: cv.beamsplitter(0, 1.5), id="beamsplitter-1.5"),
        pytest.param(lambda: cv.rotation(float("nan"), 0.3), id="rotation-nan"),
    ])
    def test_rejects_mode_that_is_not_an_index(self, gate):
        with pytest.raises(ValueError, match=r"mode index must be an integer in \[0, 2\)"):
            cv.build_symplectic([gate()], 2)

    def test_integral_float_is_that_mode(self):
        for as_float, as_int in [
            (cv.squeeze(1.0, 0.3), cv.squeeze(1, 0.3)),
            (cv.beamsplitter(1.0, 0), cv.beamsplitter(1, 0)),
        ]:
            assert np.array_equal(cv.build_symplectic([as_float], 2), cv.build_symplectic([as_int], 2))

    def test_products_stay_symplectic(self, rng):
        for _ in range(200):
            s = random_symplectic(rng, 2)
            sigma = cv.symplectic_form(2)
            assert np.max(np.abs(s @ sigma @ s.T - sigma)) <= 1e-10


class TestApplySymplectic:
    def test_squeezed_vacuum(self):
        s = cv.build_symplectic([cv.squeeze(0, 0.5)], 1)
        out = cv.apply_symplectic(cv.vacuum_state(1), s)
        assert_allclose(out.gamma, np.diag([np.e, 1.0 / np.e]), atol=1e-14)

    def test_beamsplitter_leaves_vacua_invariant(self):
        s = cv.build_symplectic([cv.beamsplitter(0, 1)], 2)
        out = cv.apply_symplectic(cv.vacuum_state(2), s)
        assert_allclose(out.gamma, np.eye(4), atol=1e-14)

    def test_two_squeezers_and_beamsplitter_give_tmsv(self):
        zeta = 0.4
        gates = [cv.beamsplitter(0, 1), cv.squeeze(0, -zeta), cv.squeeze(1, zeta)]
        s = cv.build_symplectic(gates, 2)
        out = cv.apply_symplectic(cv.vacuum_state(2), s)
        # oracle: explicit matrix product on the vacuum
        oracle = s @ np.eye(4) @ s.T
        assert_allclose(out.gamma, oracle, atol=1e-14)
        assert_allclose(out.gamma, cv.tmsv_state(zeta).gamma, atol=1e-12)

    def test_rejects_non_symplectic(self):
        with pytest.raises(ValueError):
            cv.apply_symplectic(cv.vacuum_state(1), np.diag([2.0, 2.0]))

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            cv.apply_symplectic(cv.vacuum_state(2), np.eye(2))

    def test_preserves_physicality(self, rng):
        for _ in range(100):
            gamma = random_two_mode_physical(rng)
            s = random_symplectic(rng, 2)
            out = s @ gamma @ s.T
            assert cv.validate_covariance(out).min_eigenvalue >= -1e-8


class TestEulerDecompose:
    def test_pure_squeeze(self):
        s = np.diag([np.e, 1.0 / np.e])
        o1, d, o2 = cv.euler_decompose(s)
        assert_allclose(d, np.diag([np.e, 1.0 / np.e]), atol=1e-12)
        assert_allclose(o1 @ o2, np.eye(2), atol=1e-12)

    def test_pure_rotation(self):
        s = cv.build_symplectic([cv.rotation(0, 0.9)], 1)
        o1, d, o2 = cv.euler_decompose(s)
        assert_allclose(d, np.eye(2), atol=1e-10)
        assert_allclose(o1 @ d @ o2, s, atol=1e-12)

    def test_random_two_mode_recomposition(self, rng):
        for _ in range(50):
            s = random_symplectic(rng, 2)
            o1, d, o2 = cv.euler_decompose(s)
            assert np.max(np.abs(o1 @ d @ o2 - s)) <= 1e-10
            sigma = cv.symplectic_form(2)
            for o in (o1, o2):
                assert np.max(np.abs(o @ o.T - np.eye(4))) <= 1e-10
                assert np.max(np.abs(o @ sigma @ o.T - sigma)) <= 1e-10
            ks = np.diagonal(d)
            assert np.all(np.abs(ks[::2] * ks[1::2] - 1.0) <= 1e-10)
            assert np.all(np.diff(ks[::2]) <= 1e-10)  # descending
            assert np.all(ks[::2] >= 1.0 - 1e-10)

    def test_rejects_non_symplectic(self):
        with pytest.raises(ValueError):
            cv.euler_decompose(np.diag([2.0, 2.0]))


class TestSymplecticEigenvalues:
    def test_vacuum(self):
        assert_allclose(cv.symplectic_eigenvalues(np.eye(2)), [1.0])

    def test_tmsv_is_pure(self):
        for zeta in (0.2, 0.9, 1.5):
            nus = cv.symplectic_eigenvalues(cv.tmsv_state(zeta).gamma)
            assert_allclose(nus, [1.0, 1.0], atol=1e-10)

    def test_partial_transposed_tmsv_against_brute_force(self):
        gamma_pt = cv.partial_transpose(cv.tmsv_state(0.5).gamma)
        # brute force: eigenvalues of i Sigma gamma, moduli, deduplicated
        raw = np.linalg.eigvals(1j * cv.symplectic_form(2) @ gamma_pt)
        oracle = np.sort(np.abs(raw))[::2]
        assert_allclose(cv.symplectic_eigenvalues(gamma_pt), oracle, atol=1e-10)
        assert_allclose(oracle, [np.exp(-1.0), np.exp(1.0)], atol=1e-10)

    def test_congruence_invariance(self, rng):
        pairs = [(random_two_mode_physical(rng), random_symplectic(rng, 2)) for _ in range(100)]
        before = cv.symplectic_eigenvalues(np.array([gamma for gamma, _ in pairs]))
        after = cv.symplectic_eigenvalues(np.array([s @ gamma @ s.T for gamma, s in pairs]))
        assert np.max(np.abs(before - after)) <= 1e-9

    def test_single_mode_purity_bound(self, rng):
        for _ in range(200):
            gamma = random_single_mode_physical(rng)
            assert np.linalg.det(gamma) >= 1.0 - 1e-9
