import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import block_diag

import cvsim as cv
from cvsim.measurement import _conjugate_quadrature
from conftest import count_solves, random_symplectic, random_two_mode_physical


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
    """The normalisation of the outcome density and the projection
    probability use the product of the eigenvalues kept by the rank cut."""

    def test_skips_zero_eigenvalue(self):
        density = cv.OutcomeDensity(np.diag([2.0, 0.0, 3.0]), np.zeros(3), np.ones(3))
        expected = 1.0 / (np.pi**1.5 * np.sqrt(6.0))
        assert density.pdf(np.zeros(3)) == pytest.approx(expected, rel=1e-15)

    def test_shares_the_rank_cut_of_mp_inverse(self):
        mat = np.diag([1.0, 1e-13])
        # the cut direction enters neither the quadratic form nor the norm
        density = cv.OutcomeDensity(mat, np.zeros(2), np.ones(2))
        assert density.pdf(np.array([0.0, 1.0])) == pytest.approx(1.0 / np.pi, rel=1e-15)
        assert_allclose(cv.mp_inverse(mat), np.diag([1.0, 0.0]), atol=0.0)

    def test_empty_matrix(self):
        empty = np.zeros((0, 0))
        assert cv.OutcomeDensity(empty, np.zeros(0), np.zeros(0)).pdf(np.zeros(0)) == 1.0
        assert cv.gaussian_project(np.eye(2), [], empty).prob_factor == 1.0
        assert cv.mp_inverse(empty).shape == (0, 0)

    def test_pdf_solves_the_block_once(self, monkeypatch):
        # homodyne_project hands its solve to the density; a caller's density solves on first use
        density = cv.homodyne_project(cv.tmsv_state(0.3).gamma, measured={0, 3}).density
        calls = count_solves(monkeypatch)
        density.pdf(np.array([[0.1, -0.2], [0.3, 0.0]]))
        density.sample(np.random.default_rng(0), 5)
        assert calls == []
        own = cv.OutcomeDensity(density.block, density.mean, density.signs)
        own.pdf(np.array([[0.1, -0.2], [0.3, 0.0]]))
        own.sample(np.random.default_rng(0), 5)
        assert calls == [(2, 2)]

    def test_writing_the_callers_arrays_changes_nothing(self):
        block, mean, signs = np.array([[2.0, 0.3], [0.3, 1.5]]), np.array([0.2, -0.1]), np.array([1.0, -1.0])
        density = cv.OutcomeDensity(block, mean, signs)
        before = density.pdf(np.array([0.4, 0.1]))
        block[0, 0], mean[0], signs[0] = 9.0, 5.0, -1.0
        assert density.pdf(np.array([0.4, 0.1])) == before
        for name in ("block", "mean", "signs"):
            assert not getattr(density, name).flags.writeable

    @pytest.mark.parametrize(
        "block, message", [([[1.0, 0.3], [0.0, 1.0]], "^block must be symmetric$"), ([[np.nan, 0.0], [0.0, 1.0]], "^block has non-finite entries$")]
    )
    def test_a_failed_check_caches_nothing(self, block, message):
        # the density is checked when built: a bad block builds none, and each build checks afresh
        for _ in range(2):
            with pytest.raises(ValueError, match=message):
                cv.OutcomeDensity(np.array(block), np.zeros(2), np.ones(2))


    @pytest.mark.filterwarnings("error")
    def test_product_past_the_float_range(self):
        # the product of 2e200 and 3e200 overflowed to inf: pdf and prob_factor read 0
        block = np.array([[2.5e200, 0.5e200], [0.5e200, 2.5e200]])  # eigenvalues 2e200 and 3e200
        peak = cv.OutcomeDensity(block, np.zeros(2), np.ones(2)).pdf(np.zeros(2))
        assert peak > 0.0 and peak == pytest.approx(1.0 / (np.pi * np.sqrt(6.0) * 1e200), rel=1e-14)
        gamma = block_diag(np.eye(2), block)  # a vacuum and a hot thermal-like mode, physical
        factor = cv.gaussian_project(gamma, [1], np.eye(2)).prob_factor
        assert factor > 0.0 and factor == pytest.approx(1.0 / (np.sqrt(6.0) * 1e200), rel=1e-14)

    def test_finite_products_keep_their_rounding(self):
        # the root and the inverse root are taken of the product, as before
        block = np.array([[2.0, 0.3], [0.3, 1.5]])
        evals = np.linalg.eigvalsh(block)
        density = cv.OutcomeDensity(block, np.zeros(2), np.ones(2))
        assert density.pdf(np.zeros(2)) == 1.0 / (np.pi * np.sqrt(float(np.prod(evals))))
        gamma = cv.tmsv_state(0.4).gamma
        core = gamma[2:, 2:] + np.eye(2)
        want = float(np.prod(np.linalg.eigh(0.5 * (core + core.T))[0])) ** -0.5
        assert cv.gaussian_project(gamma, [1], np.eye(2)).prob_factor == want


class TestGaussianProject:
    def test_product_state_untouched(self, rng):
        c1 = random_two_mode_physical(rng)[:2, :2]
        res = cv.gaussian_project(block_diag(c1, np.eye(2)), [1], np.eye(2))
        assert_allclose(res.gamma_out, c1)
        assert_allclose(res.prob_factor, np.linalg.det(2.0 * np.eye(2)) ** -0.5)
        assert_allclose(res.prob_factor, 0.5)

    def test_tmsv_vacuum_projection_yields_vacuum(self):
        res = cv.gaussian_project(cv.tmsv_state(0.5).gamma, [1], np.eye(2))
        assert_allclose(res.gamma_out, np.eye(2), atol=1e-12)

    def test_empty_measured_block(self):
        c1 = np.diag([2.0, 2.0])
        res = cv.gaussian_project(c1, [], np.empty((0, 0)))
        assert_allclose(res.gamma_out, c1)
        assert res.prob_factor == 1.0
        assert res.mean_map.shape == (2, 0)

    def test_rejects_unphysical_assembly(self):
        with pytest.raises(ValueError, match="unphysical"):
            cv.gaussian_project(block_diag(0.5 * np.eye(2), np.eye(2)), [1], np.eye(2))

    def test_rejects_bad_d(self):
        with pytest.raises(ValueError):
            cv.gaussian_project(np.eye(4), [1], np.array([[1.0, 0.2], [0.2, 1.0]]))

    def test_rejects_non_finite_d(self):
        with pytest.raises(ValueError, match="D has non-finite"):
            cv.gaussian_project(np.eye(4), [1], np.diag([np.inf, 1.0]))

    def test_solves_the_core_once(self, monkeypatch):
        gamma = cv.tmsv_state(0.5).gamma
        calls = count_solves(monkeypatch, ["eigh"])
        cv.gaussian_project(gamma, [1], np.diag([2.0, 0.5]))
        assert calls == [(2, 2)]


class TestProjectionInput:
    """Both projections reject the same malformed covariances and indices."""

    @staticmethod
    def _project(kind, gamma, index):
        if kind == "gaussian":
            return cv.gaussian_project(gamma, [index], np.eye(2))
        return cv.homodyne_project(gamma, [index])

    @pytest.mark.parametrize("kind", ["gaussian", "homodyne"])
    def test_rejects_asymmetric(self, kind):
        gamma = np.eye(4)
        gamma[0, 2] = 0.3
        with pytest.raises(ValueError, match="symmetric"):
            self._project(kind, gamma, 1)

    @pytest.mark.parametrize("kind", ["gaussian", "homodyne"])
    def test_rejects_a_block_asymmetric_at_its_own_scale(self, kind):
        # symmetric enough at max|gamma| = 1e6, not at the scale of the solved block;
        # homodyne_project's block is checked by the outcome density built from it
        gamma = np.diag([1.0, 1.0, 1.0, 1.0, 1e6, 1e6])
        gamma[0, 2] = 1e-5
        with pytest.raises(ValueError, match=f"^{'block' if kind == 'homodyne' else 'matrix'} must be symmetric$"):
            if kind == "homodyne":
                cv.homodyne_project(gamma, [1, 3])
            else:
                cv.gaussian_project(gamma, [0, 1], np.eye(4))

    @pytest.mark.parametrize("kind", ["gaussian", "homodyne"])
    def test_rejects_unphysical(self, kind):
        with pytest.raises(ValueError, match="unphysical"):
            self._project(kind, 0.4 * np.eye(4), 1)

    @pytest.mark.parametrize("kind", ["gaussian", "homodyne"])
    @pytest.mark.parametrize("index", [0.7, 1.5, -1, 4, np.nan])
    def test_rejects_bad_index(self, kind, index):
        with pytest.raises(ValueError, match="integers"):
            self._project(kind, np.eye(4), index)

    @pytest.mark.parametrize("kind", ["gaussian", "homodyne"])
    def test_accepts_integral_float_index(self, kind):
        assert self._project(kind, cv.tmsv_state(0.5).gamma, 1.0).gamma_out.shape == (2, 2)

    @pytest.mark.parametrize("kind", ["gaussian", "homodyne"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_covariance(self, kind, bad):
        gamma = np.eye(4)
        gamma[1, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            self._project(kind, gamma, 1)


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
            proj = cv.gaussian_project(gamma, [1], np.diag([1.0 / d, d]))
            assert np.max(np.abs(hom.gamma_out - proj.gamma_out)) <= 1e-4

            # p of mode 0 and x of mode 2, with the kept mode 1 between them
            n = rng.uniform(0.0, 1.0, size=3)
            s = random_symplectic(rng, 3)
            gamma3 = s @ np.diag(np.repeat(2.0 * n + 1.0, 2)) @ s.T
            hom = cv.homodyne_project(gamma3, measured={1, 4})
            proj = cv.gaussian_project(gamma3, [0, 2], np.diag([d, 1.0 / d, 1.0 / d, d]))
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

    def test_sample_folds_the_signs_exactly(self, rng):
        # the draw the signs used to be applied to afterwards, for every sign pattern
        for dim in (1, 2, 3):
            a = rng.normal(size=(dim, dim))
            block, mean = a @ a.T, rng.normal(size=dim)
            evals, evecs = np.linalg.eigh(0.5 * (block + block.T))
            root = evecs * np.sqrt(np.clip(0.5 * evals, 0.0, None))
            for signs in itertools.product([1.0, -1.0], repeat=dim):
                signs = np.array(signs)
                drawn = cv.OutcomeDensity(block, mean, signs).sample(np.random.default_rng(5), 1000)
                old = (mean + np.random.default_rng(5).standard_normal((1000, dim)) @ root.T) * signs
                assert np.array_equal(drawn, old)

    def test_rejects_both_quadratures_of_one_mode(self):
        with pytest.raises(ValueError):
            cv.homodyne_project(np.eye(4), measured={0, 1})

    def test_rejects_unphysical(self):
        with pytest.raises(ValueError):
            cv.homodyne_project(0.4 * np.eye(4), measured={0})

    @pytest.mark.parametrize("size", [2, 7])
    def test_rejects_kappa_of_wrong_length(self, size):
        with pytest.raises(ValueError, match="kappa"):
            cv.homodyne_project(np.eye(4), measured={0}, kappa=np.zeros(size))

    def test_rejects_non_finite_kappa(self):
        with pytest.raises(ValueError, match="kappa"):
            cv.homodyne_project(np.eye(4), measured={0}, kappa=[0.0, np.nan, 0.0, 0.0])

    def test_conjugate_indexing(self):
        assert _conjugate_quadrature(0) == 1
        assert _conjugate_quadrature(1) == 0
        assert _conjugate_quadrature(4) == 5
        assert _conjugate_quadrature(5) == 4
