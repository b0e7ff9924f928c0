import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import block_diag

import cvsim as cv
from cvsim.measurement import _conjugate_quadrature, _pseudo_determinant
from conftest import random_symplectic, random_two_mode_physical


def teleport_mixed_gamma(zeta, gamma_in):
    """Signal + TMSV mixed on the symmetric beamsplitter (ideal fibers)."""
    s = cv.build_symplectic([cv.beamsplitter(0, 1)], 3)
    return s @ block_diag(gamma_in, cv.tmsv_state(zeta).gamma) @ s.T


class TestMpInverse:
    def test_singular_diagonal(self):
        assert_allclose(cv.mp_inverse(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]))

    def test_invertible_matches_inverse(self, rng):
        for _ in range(50):
            m = rng.normal(size=(4, 4))
            m = m + m.T + 8.0 * np.eye(4)
            assert np.max(np.abs(cv.mp_inverse(m) - np.linalg.inv(m))) <= 1e-10

    def test_block_embedded_inverse(self):
        block = np.array([[2.0, 0.3], [0.3, 1.5]])
        mat = np.zeros((4, 4))
        mat[1:3, 1:3] = block
        out = cv.mp_inverse(mat)
        expected = np.zeros((4, 4))
        expected[1:3, 1:3] = np.linalg.inv(block)
        assert_allclose(out, expected, atol=1e-12)

    def test_penrose_identities_on_rank_deficient(self, rng):
        for _ in range(200):
            basis = rng.normal(size=(4, 2))
            m = basis @ np.diag(rng.uniform(0.5, 3.0, size=2)) @ basis.T  # rank 2
            plus = cv.mp_inverse(m)
            assert np.max(np.abs(m @ plus @ m - m)) <= 1e-9
            assert np.max(np.abs(plus @ m @ plus - plus)) <= 1e-9
            assert np.max(np.abs((m @ plus).T - m @ plus)) <= 1e-9
            assert np.max(np.abs((plus @ m).T - plus @ m)) <= 1e-9

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            cv.mp_inverse(np.array([[1.0, 2.0], [0.0, 1.0]]))


class TestPseudoDeterminant:
    def test_skips_zero_eigenvalue(self):
        assert _pseudo_determinant(np.diag([2.0, 0.0, 3.0])) == pytest.approx(6.0, rel=1e-15)

    def test_shares_the_rank_cut_of_mp_inverse(self):
        mat = np.diag([1.0, 1e-13])
        assert _pseudo_determinant(mat) == 1.0
        assert_allclose(cv.mp_inverse(mat), np.diag([1.0, 0.0]), atol=0.0)

    def test_empty_matrix(self):
        empty = np.zeros((0, 0))
        assert _pseudo_determinant(empty) == 1.0
        assert cv.mp_inverse(empty).shape == (0, 0)


class TestGaussianProject:
    def test_product_state_untouched(self, rng):
        c1 = random_two_mode_physical(rng)[:2, :2]
        blocks = cv.BlockedCovariance(c1, np.eye(2), np.zeros((2, 2)))
        res = cv.gaussian_project(blocks, np.eye(2))
        assert_allclose(res.gamma_out, c1)
        assert_allclose(res.prob_factor, np.linalg.det(2.0 * np.eye(2)) ** -0.5)
        assert_allclose(res.prob_factor, 0.5)

    def test_tmsv_vacuum_projection_yields_vacuum(self):
        blocks = cv.BlockedCovariance.from_gamma(cv.tmsv_state(0.5).gamma, measured_modes=[1])
        res = cv.gaussian_project(blocks, np.eye(2))
        assert_allclose(res.gamma_out, np.eye(2), atol=1e-12)

    def test_empty_measured_block(self):
        c1 = np.diag([2.0, 2.0])
        blocks = cv.BlockedCovariance(c1, np.empty((0, 0)), np.empty((2, 0)))
        res = cv.gaussian_project(blocks, np.empty((0, 0)))
        assert_allclose(res.gamma_out, c1)
        assert res.prob_factor == 1.0

    def test_rejects_unphysical_assembly(self):
        blocks = cv.BlockedCovariance(0.5 * np.eye(2), np.eye(2), np.zeros((2, 2)))
        with pytest.raises(ValueError):
            cv.gaussian_project(blocks, np.eye(2))

    def test_rejects_bad_d(self):
        blocks = cv.BlockedCovariance.from_gamma(np.eye(4), [1])
        with pytest.raises(ValueError):
            cv.gaussian_project(blocks, np.array([[1.0, 0.2], [0.2, 1.0]]))


class TestHomodyneProject:
    def test_vacuum_full_measurement(self):
        res = cv.homodyne_project(np.eye(2), measured={0})
        assert res.gamma_out.shape == (0, 0)
        xs = np.array([0.0, 0.5, 1.3])
        assert_allclose(res.density.pdf(xs[:, None]), np.exp(-(xs**2)) / np.sqrt(np.pi), atol=1e-14)

    def test_uncorrelated_state_unchanged(self, rng):
        c1 = random_two_mode_physical(rng)[:2, :2]
        gamma = block_diag(c1, np.diag([1.8, 0.9]))
        res = cv.homodyne_project(gamma, measured={2})
        assert_allclose(res.gamma_out, c1)
        assert_allclose(res.mean_map, 0.0, atol=1e-14)

    def test_teleport_block_mean_map(self):
        zeta = 0.5
        gamma = teleport_mixed_gamma(zeta, np.eye(2))
        res = cv.homodyne_project(gamma, measured=(0, 3))
        sigma1 = np.array([[0.0, 1.0], [-1.0, 0.0]])
        assert_allclose(res.mean_map, np.tanh(zeta) * sigma1, atol=1e-12)
        assert_allclose(res.gamma_out, np.eye(2), atol=1e-12)

    def test_tmsv_arm_conditionals(self):
        # measuring one arm leaves the other arm pure and squeezed
        zeta = 0.4
        c = np.cosh(2 * zeta)
        gamma = cv.tmsv_state(zeta).gamma
        res_p = cv.homodyne_project(gamma, measured={1})
        assert_allclose(res_p.gamma_out, np.diag([1.0 / c, c]), atol=1e-12)
        res_x = cv.homodyne_project(gamma, measured={0})
        assert_allclose(res_x.gamma_out, np.diag([c, 1.0 / c]), atol=1e-12)

    def test_homodyne_is_the_limit_of_gaussian_projection(self, rng):
        d = 1e-6
        for _ in range(50):
            gamma = random_two_mode_physical(rng)
            hom = cv.homodyne_project(gamma, measured={2})  # x of mode 1
            blocks = cv.BlockedCovariance.from_gamma(gamma, measured_modes=[1])
            proj = cv.gaussian_project(blocks, np.diag([1.0 / d, d]))
            assert np.max(np.abs(hom.gamma_out - proj.gamma_out)) <= 1e-4

            # p of mode 0 and x of mode 2, with the kept mode 1 between them
            n = rng.uniform(0.0, 1.0, size=3)
            s = random_symplectic(rng, 3)
            gamma3 = s @ np.diag(np.repeat(2.0 * n + 1.0, 2)) @ s.T
            hom = cv.homodyne_project(gamma3, measured={1, 4})
            blocks = cv.BlockedCovariance.from_gamma(gamma3, measured_modes=[0, 2])
            proj = cv.gaussian_project(blocks, np.diag([d, 1.0 / d, 1.0 / d, d]))
            assert np.max(np.abs(hom.gamma_out - proj.gamma_out)) <= 1e-4

    def test_density_normalises(self, rng):
        xs = np.linspace(-14.0, 14.0, 561)
        for _ in range(10):
            gamma = random_two_mode_physical(rng)
            res = cv.homodyne_project(gamma, measured={0, 3}, kappa=rng.normal(size=4))
            xg, yg = np.meshgrid(xs, xs, indexing="ij")
            pdf = res.density.pdf(np.column_stack([xg.ravel(), yg.ravel()])).reshape(xg.shape)
            integral = np.trapezoid(np.trapezoid(pdf, xs, axis=1), xs)
            assert abs(integral - 1.0) <= 1e-6

    def test_sampling_matches_density_moments(self, rng):
        gamma = cv.tmsv_state(0.3).gamma
        res = cv.homodyne_project(gamma, measured={0, 3}, kappa=np.array([0.5, -0.2, 0.1, 0.0]))
        samples = res.density.sample(np.random.default_rng(11), 200_000)
        sign_adjusted = samples * res.density.signs
        assert_allclose(sign_adjusted.mean(axis=0), res.density.mean, atol=2e-2)
        assert_allclose(np.cov(sign_adjusted.T), 0.5 * res.density.block, atol=2e-2)

    def test_rejects_both_quadratures_of_one_mode(self):
        with pytest.raises(ValueError):
            cv.homodyne_project(np.eye(4), measured={0, 1})

    def test_rejects_unphysical(self):
        with pytest.raises(ValueError):
            cv.homodyne_project(0.4 * np.eye(4), measured={0})

    def test_conjugate_indexing(self):
        assert _conjugate_quadrature(0) == 1
        assert _conjugate_quadrature(1) == 0
        assert _conjugate_quadrature(4) == 5
        assert _conjugate_quadrature(5) == 4
