import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import block_diag

import cvsim as cv
from cvsim import teleportation
from cvsim.measurement import _quadratic_columns
from cvsim.teleportation import _ZETA_MAX, _gamma_rec_explicit, _overlap_prefactor
from conftest import count_solves, random_fiber, random_single_mode_physical, random_symplectic

SIGMA1 = np.array([[0.0, 1.0], [-1.0, 0.0]])


def random_pure_signal(rng):
    eta = rng.uniform(0.0, 1.2)
    theta = rng.uniform(0.0, np.pi)
    r = cv.rotation_matrix(theta)
    return r @ cv.squeezed_signal(eta).gamma @ r.T


class TestTeleport:
    def test_infinite_squeezing_identity(self, rng):
        for _ in range(20):
            gamma_in = random_pure_signal(rng)
            res = cv.teleport(cv.TeleportSetup(gamma_in, zeta=20.0))
            assert np.max(np.abs(res.gamma_rec - gamma_in)) <= 1e-8
            assert abs(res.fidelity_zero_mean - 1.0) <= 1e-8

    def test_zero_squeezing_vacuum_input(self):
        res = cv.teleport(cv.TeleportSetup(np.eye(2), zeta=0.0))
        assert_allclose(res.gamma_rec, np.eye(2), atol=1e-12)
        assert_allclose(res.gain, np.zeros((2, 2)), atol=1e-12)

    def test_vacuum_input_any_squeezing(self):
        for zeta in (0.2, 0.5, 1.3):
            res = cv.teleport(cv.TeleportSetup(np.eye(2), zeta=zeta))
            assert_allclose(res.gamma_rec, np.eye(2), atol=1e-12)
            assert_allclose(res.gain, np.tanh(zeta) * SIGMA1, atol=1e-12)

    def test_rejects_unphysical_signal(self):
        with pytest.raises(ValueError):
            cv.TeleportSetup(0.5 * np.eye(2), zeta=0.5)

    @pytest.mark.parametrize("kappa_in", [[np.nan, 0.0], [0.0, np.inf], [0.0, 0.0, 0.0]])
    def test_rejects_bad_signal_mean(self, kappa_in):
        with pytest.raises(ValueError, match="^signal mean (must be a vector of length 2|has non-finite entries)"):
            cv.TeleportSetup(np.eye(2), zeta=0.5, kappa_in=kappa_in)

    def test_explicit_equals_generic_schur(self, rng):
        for _ in range(50):
            gamma_in = random_pure_signal(rng)
            zeta = rng.uniform(0.0, 1.5)
            f1, f2 = random_fiber(rng), random_fiber(rng)
            explicit = _gamma_rec_explicit(gamma_in, zeta, f1, f2)
            s = cv.build_symplectic([cv.beamsplitter(0, 1)], 3)
            gamma_012 = s @ block_diag(gamma_in, cv.degraded_tmsv(zeta, f1, f2)) @ s.T
            generic = cv.homodyne_project(gamma_012, measured=(0, 3)).gamma_out
            assert np.max(np.abs(explicit - generic)) <= 1e-10

    def test_receiver_state_is_physical(self, rng):
        for _ in range(50):
            setup = cv.TeleportSetup(
                random_single_mode_physical(rng),
                rng.uniform(0.0, 1.5),
                random_fiber(rng),
                random_fiber(rng),
            )
            res = cv.teleport(setup)
            assert cv.validate_covariance(res.gamma_rec).physical

    def test_eigen_solves_per_call(self, monkeypatch):
        # homodyne_project's physicality gate on the 6x6 mixed matrix and its
        # solve of the 2x2 conjugate block, which sample reuses
        fiber = cv.FiberParams(0.9, phase=0.4, r_mag=0.2, n_th=0.3)
        setup = cv.TeleportSetup(cv.squeezed_signal(0.4).gamma, 0.8, fiber, fiber, kappa_in=[0.5, -1.0])
        calls = count_solves(monkeypatch)
        cv.teleport(setup)
        assert calls == [(6, 6), (2, 2)]
        del calls[:]
        cv.teleport_monte_carlo(setup, 100, seed=0)
        assert calls == [(6, 6), (2, 2)]

    def test_nan_receiver_fails_the_cross_check(self, monkeypatch):
        # NaN compared False against the tolerance and reached fidelity's finiteness rule
        monkeypatch.setattr(teleportation, "_gamma_rec_explicit", lambda *args: np.full((2, 2), np.nan))
        with pytest.raises(RuntimeError, match="^closed-form and Schur-complement receiver covariances disagree$"):
            cv.teleport(cv.TeleportSetup(np.eye(2), zeta=0.5))

    @pytest.mark.parametrize("fiber", [cv.IDEAL_FIBER, cv.FiberParams(0.8), cv.FiberParams(0.8, phase=0.4, r_mag=0.3, n_th=0.3)])
    def test_just_inside_the_squeezing_range(self, fiber):
        # cosh(2 zeta)^2 reaches 0.96 of float max; the receiver has saturated at its zeta = 20 value
        setup = cv.TeleportSetup(np.eye(2), _ZETA_MAX - 0.01, fiber, fiber, kappa_in=[0.4, -0.2])
        saturated = cv.TeleportSetup(np.eye(2), 20.0, fiber, fiber, kappa_in=[0.4, -0.2])
        res, limit = cv.teleport(setup), cv.teleport(saturated)  # both passed the Schur cross-check
        assert np.all(np.isfinite(res.gamma_rec)) and np.all(np.isfinite(res.gain))
        assert_allclose(res.gamma_rec, limit.gamma_rec, rtol=1e-12, atol=1e-15)
        assert res.fidelity_zero_mean == pytest.approx(limit.fidelity_zero_mean, rel=1e-12)
        estimate = cv.teleport_monte_carlo(setup, 10, seed=0)
        assert estimate == pytest.approx(cv.teleport_monte_carlo(saturated, 10, seed=0), rel=1e-12)

    def test_just_inside_the_squeezing_range_matches_the_closed_form(self):
        res = cv.teleport(cv.TeleportSetup(np.eye(2), _ZETA_MAX - 1e-9))
        assert_allclose(res.gamma_rec, np.eye(2), atol=1e-15)
        assert res.fidelity_zero_mean == cv.pure_squeezed_fidelity(0.0, _ZETA_MAX - 1e-9) == 1.0

    @pytest.mark.parametrize("zeta", [_ZETA_MAX + 1e-9, 178.0, -180.0, 355.0, 400.0])
    def test_past_the_squeezing_range_raises(self, zeta):
        # (s beta)**2 raised OverflowError from zeta = 178 on; the setup refuses zeta when built,
        # so neither teleport nor teleport_monte_carlo is reached
        message = rf"^\|zeta\| = {abs(zeta)!r} is past 177.79, where cosh\(2 zeta\)\^2 overflows$"
        with pytest.raises(ValueError, match=message):
            cv.TeleportSetup(np.eye(2), zeta)

    @pytest.mark.parametrize(
        "signal, zeta, fiber",
        [
            (cv.squeezed_signal(0.3).gamma, _ZETA_MAX - 0.01, cv.IDEAL_FIBER),
            (cv.squeezed_signal(1.0).gamma, _ZETA_MAX - 0.01, cv.IDEAL_FIBER),
            (np.eye(2), 0.5, cv.FiberParams(0.5, n_th=1e154)),  # delta, about the noise squared, overflows
        ],
        ids=["eta=0.3", "eta=1.0", "noise"],
    )
    def test_closed_form_overflow_raises(self, signal, zeta, fiber):
        # warned "overflow encountered in scalar multiply", then failed the cross-check with RuntimeError
        setup = cv.TeleportSetup(signal, zeta, fiber, fiber)
        message = rf"^the closed-form receiver covariance overflows at zeta = {zeta!r}$"
        with pytest.raises(ValueError, match=message):
            cv.teleport(setup)
        with pytest.raises(ValueError, match=message):
            cv.teleport_monte_carlo(setup, 10, seed=0)


class TestFidelity:
    def test_perfect_match_of_pure_state(self, rng):
        gamma = random_pure_signal(rng)
        assert_allclose(cv.fidelity(gamma, gamma), 1.0, atol=1e-12)

    def test_classical_limit_value(self):
        eta = 1.0
        res = cv.teleport(cv.TeleportSetup(cv.squeezed_signal(eta).gamma, zeta=0.0))
        expected = np.sqrt(2.0 / (1.0 + np.cosh(eta)))
        assert_allclose(res.fidelity_zero_mean, expected, atol=1e-12)
        assert_allclose(expected, 0.8868188839700739, atol=1e-12)

    def test_vacuum_versus_thermal(self):
        assert_allclose(cv.fidelity(np.eye(2), cv.thermal_state(1.0).gamma), 0.5)

    def test_dimension_check(self):
        with pytest.raises(ValueError):
            cv.fidelity(np.eye(4), np.eye(4))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_raises(self, bad):
        # NaN used to come back as nan after an "invalid value encountered in det" warning
        with pytest.raises(ValueError, match="finite"):
            cv.fidelity(np.full((2, 2), bad), np.eye(2))
        with pytest.raises(ValueError, match="finite"):
            cv.fidelity(np.eye(2), np.full((2, 2), bad))

    def test_matches_characteristic_function_integral(self):
        # brute-force lambda integral, and the lambda -> -lambda symmetry
        gamma_in = cv.squeezed_signal(0.6).gamma
        res = cv.teleport(cv.TeleportSetup(gamma_in, zeta=0.4))
        st_in = cv.GaussianState(np.zeros(2), gamma_in)
        st_rec = cv.GaussianState(np.zeros(2), res.gamma_rec)
        lam = np.linspace(-12.0, 12.0, 301)
        lx, lp = np.meshgrid(lam, lam, indexing="ij")
        vecs = np.stack([lx, lp], axis=-1)  # vecs[i, j] = (lx[i, j], lp[i, j])
        chi_in = cv.characteristic_function(st_in, vecs).real
        chi_rec_neg = cv.characteristic_function(st_rec, -vecs).real
        chi_rec_pos = cv.characteristic_function(st_rec, vecs).real
        for chi_rec in (chi_rec_neg, chi_rec_pos):
            integral = np.trapezoid(np.trapezoid(chi_in * chi_rec, lam, axis=1), lam) / (2.0 * np.pi)
            assert abs(integral - res.fidelity_zero_mean) <= 1e-6


class TestPureSqueezedFidelity:
    def test_unsqueezed_signal(self):
        for zeta in (0.0, 0.5, 2.0):
            assert cv.pure_squeezed_fidelity(0.0, zeta) == 1.0

    def test_example_value(self):
        assert_allclose(cv.pure_squeezed_fidelity(0.5, 0.5), 0.9807803424798201, atol=1e-12)

    def test_infinite_squeezing(self):
        assert_allclose(cv.pure_squeezed_fidelity(1.0, 20.0), 1.0, atol=1e-12)

    def test_matches_pipeline(self, rng):
        for _ in range(30):
            eta = rng.uniform(0.0, 1.5)
            zeta = rng.uniform(0.0, 1.5)
            res = cv.teleport(cv.TeleportSetup(cv.squeezed_signal(eta).gamma, zeta))
            assert abs(res.fidelity_zero_mean - cv.pure_squeezed_fidelity(eta, zeta)) <= 1e-10

    @pytest.mark.parametrize(
        "eta, zeta",
        # sinh or cosh overflows; cosh(710) + cosh(710) overflows to inf, which read as F = 1.0
        [(800.0, 0.0), (-800.0, 0.0), (0.0, 400.0), (710.0, 355.0), (np.nan, 0.0), (0.0, np.nan), (np.inf, 0.0)],
    )
    def test_past_the_float_range_raises(self, eta, zeta):
        with pytest.raises(ValueError, match="overflows or is NaN"):
            cv.pure_squeezed_fidelity(eta, zeta)

    def test_largest_finite_arguments_keep_their_value(self):
        # cosh(709) + cosh(2 * 354) is finite; F = sqrt(1 - (sinh/total)^2) with sinh ~ e^709 / 2
        ratio = math.sinh(709.0) / (math.cosh(709.0) + math.cosh(708.0))
        assert cv.pure_squeezed_fidelity(709.0, 354.0) == math.sqrt(1.0 - ratio * ratio)

    def test_monotone_in_resource_squeezing(self):
        for eta in (0.3, 0.8, 1.4):
            vals = [cv.pure_squeezed_fidelity(eta, z) for z in np.linspace(0.0, 3.0, 31)]
            assert np.all(np.diff(vals) > 0)


class TestDisplacementGain:
    def test_ideal_fibers_give_sigma(self):
        assert_allclose(cv.ideal_displacement_gain(cv.IDEAL_FIBER, cv.IDEAL_FIBER), SIGMA1)

    def test_magnitude_ratio(self):
        f1 = cv.FiberParams(t_mag=0.8)
        f2 = cv.FiberParams(t_mag=0.6)
        assert_allclose(cv.ideal_displacement_gain(f1, f2), 0.75 * SIGMA1)

    def test_phases_rotate(self):
        f1 = cv.FiberParams(t_mag=0.9, phase=np.pi / 4)
        f2 = cv.FiberParams(t_mag=0.9, phase=np.pi / 4)
        expected = SIGMA1 @ cv.rotation_matrix(np.pi / 2)
        assert_allclose(cv.ideal_displacement_gain(f1, f2), expected, atol=1e-12)

    def test_dead_signal_arm(self):
        with pytest.raises(ValueError):
            cv.ideal_displacement_gain(cv.FiberParams(t_mag=0.0), cv.IDEAL_FIBER)

    def test_finite_squeezing_limit(self, rng):
        for _ in range(10):
            f1, f2 = random_fiber(rng, max_n=0.0), random_fiber(rng, max_n=0.0)
            res = cv.teleport(cv.TeleportSetup(np.eye(2), 20.0, f1, f2))
            assert np.max(np.abs(res.gain - cv.ideal_displacement_gain(f1, f2))) <= 1e-6


class TestOutcomeDensity:
    def test_normalisation(self, rng):
        xs = np.linspace(-14.0, 14.0, 501)
        for _ in range(5):
            setup = cv.TeleportSetup(
                random_pure_signal(rng),
                rng.uniform(0.1, 1.2),
                random_fiber(rng),
                random_fiber(rng),
                kappa_in=rng.normal(size=2),
            )
            res = cv.teleport(setup)
            xg, yg = np.meshgrid(xs, xs, indexing="ij")
            pdf = res.density.pdf(np.column_stack([xg.ravel(), yg.ravel()])).reshape(xg.shape)
            integral = np.trapezoid(np.trapezoid(pdf, xs, axis=1), xs)
            assert abs(integral - 1.0) <= 1e-6


class TestMonteCarlo:
    def test_matched_gain_equals_analytic_overlap(self):
        # with the matched gain every record gives the same receiver mean
        kappa = np.array([0.8, -0.4])
        setup = cv.TeleportSetup(np.eye(2), zeta=0.6, kappa_in=kappa)
        res = cv.teleport(setup)
        mc = cv.teleport_monte_carlo(setup, n_samples=64, seed=5)
        expected = cv.state_overlap(
            cv.GaussianState(kappa, np.eye(2)),
            cv.GaussianState(np.tanh(0.6) * kappa, res.gamma_rec),
        )
        assert_allclose(mc, expected, atol=1e-12)

    def test_reproducible_given_seed(self):
        setup = cv.TeleportSetup(np.eye(2), 0.5, kappa_in=np.array([1.0, 0.0]))
        gain = cv.ideal_displacement_gain(cv.IDEAL_FIBER, cv.IDEAL_FIBER)
        a = cv.teleport_monte_carlo(setup, n_samples=200, seed=42, gain=gain)
        b = cv.teleport_monte_carlo(setup, n_samples=200, seed=42, gain=gain)
        assert a == b

    def test_infinite_squeezing_gain_is_lossless_in_the_limit(self):
        setup = cv.TeleportSetup(np.eye(2), 20.0, kappa_in=np.array([1.5, -0.7]))
        mc = cv.teleport_monte_carlo(setup, n_samples=100, seed=3, gain=SIGMA1)
        assert abs(mc - 1.0) <= 1e-6

    def test_limit_gain_penalty_grows_with_displacement(self):
        # using the infinite-squeezing gain through unequal lossy fibers
        # rescales the reconstructed mean by |T2/T1|, so the fidelity picks
        # up a penalty that grows exponentially with the signal displacement
        f1, f2 = cv.FiberParams(t_mag=0.9), cv.FiberParams(t_mag=0.6)
        g_inf = cv.ideal_displacement_gain(f1, f2)

        def run(kappa):
            setup = cv.TeleportSetup(np.eye(2), 0.5, f1, f2, kappa_in=np.asarray(kappa, float))
            return cv.teleport_monte_carlo(setup, n_samples=2000, seed=9, gain=g_inf)

        centered = run([0.0, 0.0])
        small = run([1.0, 0.5])
        large = run([2.0, 1.0])
        assert small < centered
        assert large < small

    def test_unit_gain_reproduces_textbook_added_noise(self):
        # with ideal fibers, unit gain keeps the mean and adds 2 e^(-2 zeta)
        # units of covariance noise; the mean fidelity over records matches
        # that closed form
        zeta = 0.5
        setup = cv.TeleportSetup(np.eye(2), zeta, kappa_in=np.array([0.7, -0.3]))
        mc = cv.teleport_monte_carlo(setup, n_samples=60_000, seed=1, gain=SIGMA1)
        expected = 2.0 / np.sqrt(np.linalg.det(2.0 * np.eye(2) + 2.0 * np.exp(-2.0 * zeta) * np.eye(2)))
        assert abs(mc - expected) <= 5e-3

    # the per-record definition the batched estimator must reproduce
    @staticmethod
    def per_record_reference(setup, n_samples, seed, gain=None):
        res = cv.teleport(setup)
        chosen = res.gain if gain is None else np.asarray(gain, dtype=float)
        records = res.density.sample(np.random.default_rng(seed), n_samples)
        signal = cv.GaussianState(setup.kappa_in, setup.gamma_in)
        total = 0.0
        for record in records:
            w = record * res.density.signs
            mean = np.sqrt(2.0) * res.gain @ (w - res.density.mean) - np.sqrt(2.0) * chosen @ w
            total += cv.state_overlap(signal, cv.GaussianState(mean, res.gamma_rec))
        return total / n_samples

    @pytest.mark.parametrize("ideal_gain", [False, True])
    def test_batch_matches_per_record_loop(self, rng, ideal_gain):
        for _ in range(10):
            f1, f2 = random_fiber(rng, max_n=0.3), random_fiber(rng, max_n=0.3)
            setup = cv.TeleportSetup(
                random_pure_signal(rng),
                rng.uniform(0.2, 1.5),
                f1,
                f2,
                kappa_in=rng.normal(size=2),
            )
            gain = cv.ideal_displacement_gain(f1, f2) if ideal_gain else None
            seed = int(rng.integers(2**31))
            batched = cv.teleport_monte_carlo(setup, n_samples=300, seed=seed, gain=gain)
            reference = self.per_record_reference(setup, 300, seed, gain)
            assert_allclose(batched, reference, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("ideal_gain", [False, True])
    def test_batch_matches_per_record_loop_at_demo_size(self, rng, ideal_gain):
        # the 4000 records the demos and the benchmark draw
        for _ in range(2):
            f1, f2 = random_fiber(rng, max_n=0.3), random_fiber(rng, max_n=0.3)
            setup = cv.TeleportSetup(random_pure_signal(rng), rng.uniform(0.2, 1.5), f1, f2, kappa_in=rng.normal(size=2))
            gain = cv.ideal_displacement_gain(f1, f2) if ideal_gain else None
            seed = int(rng.integers(2**31))
            batched = cv.teleport_monte_carlo(setup, n_samples=4000, seed=seed, gain=gain)
            reference = self.per_record_reference(setup, 4000, seed, gain)
            assert_allclose(batched, reference, rtol=1e-12, atol=0.0)

    def test_matched_gain_zero_mean_estimate_is_the_closed_form(self, rng):
        # the matched gain maps every record to a zero mean difference
        for _ in range(10):
            f1, f2 = random_fiber(rng, max_n=0.3), random_fiber(rng, max_n=0.3)
            setup = cv.TeleportSetup(random_pure_signal(rng), rng.uniform(0.2, 1.5), f1, f2)
            est = cv.teleport_monte_carlo(setup, n_samples=4000, seed=int(rng.integers(2**31)))
            assert abs(est - cv.teleport(setup).fidelity_zero_mean) <= 1e-15

    def test_ideal_gain_matches_closed_form_expectation(self):
        # zero-mean signal: the record w ~ N(0, B/2) displaces the receiver by
        # d = -sqrt(2) D w with D = G_matched - G_ideal, so d ~ N(0, C) with
        # C = D B D^T and the overlap is F0 exp(-d^T A d), A = (g_in + g_rec)^-1;
        # Gaussian integrals give E[exp(-k d^T A d)] = det(1 + 2k C A)^(-1/2)
        f1 = cv.FiberParams(t_mag=0.9, phase=0.5, n_th=0.1)
        f2 = cv.FiberParams(t_mag=0.7, phase=0.5, n_th=0.1)
        setup = cv.TeleportSetup(cv.squeezed_signal(0.8).gamma, 0.7, f1, f2)
        matched = cv.teleport(setup)
        ideal = cv.ideal_displacement_gain(f1, f2)
        delta = matched.gain - ideal
        c = delta @ matched.density.block @ delta.T
        a = np.linalg.inv(setup.gamma_in + matched.gamma_rec)
        f0 = matched.fidelity_zero_mean
        mean = f0 / np.sqrt(np.linalg.det(np.eye(2) + 2.0 * c @ a))
        second = f0 * f0 / np.sqrt(np.linalg.det(np.eye(2) + 4.0 * c @ a))
        n_samples = 4000
        stderr = np.sqrt((second - mean * mean) / n_samples)
        assert stderr > 0.0
        mc = cv.teleport_monte_carlo(setup, n_samples=n_samples, seed=11, gain=ideal)
        assert abs(mc - mean) <= 6.0 * stderr

    @pytest.mark.parametrize("n_samples", [0, -3, 2.0, True, "10", None])
    def test_rejects_bad_sample_count(self, n_samples):
        setup = cv.TeleportSetup(np.eye(2), 0.5)
        with pytest.raises(ValueError, match="n_samples"):
            cv.teleport_monte_carlo(setup, n_samples, seed=1)

    @pytest.mark.parametrize(
        "gain",
        [
            np.full((2, 2), np.nan),
            np.array([[np.inf, 0.0], [0.0, 1.0]]),
            np.eye(3),
            np.ones(2),
        ],
    )
    def test_rejects_bad_gain(self, gain):
        setup = cv.TeleportSetup(np.eye(2), 0.5)
        with pytest.raises(ValueError, match="gain"):
            cv.teleport_monte_carlo(setup, 10, seed=1, gain=gain)

    def test_accepts_numpy_integer_sample_count(self):
        setup = cv.TeleportSetup(np.eye(2), 0.5, kappa_in=np.array([0.3, 0.1]))
        assert cv.teleport_monte_carlo(setup, np.int64(50), seed=2) == cv.teleport_monte_carlo(setup, 50, seed=2)


class TestOverlapRows:
    """The record overlaps, held as columns: _overlap_prefactor times exp(-_quadratic_columns)."""

    @pytest.mark.parametrize("n_modes", [1, 2, 3])
    @pytest.mark.parametrize("n_rows", [1, 5000])
    def test_matches_solve_form(self, rng, n_modes, n_rows):
        for _ in range(3):
            s_a, s_b = random_symplectic(rng, n_modes), random_symplectic(rng, n_modes)
            total = s_a @ s_a.T + s_b @ s_b.T
            deltas = rng.normal(size=(2 * n_modes, n_rows))
            prefactor = 2.0**n_modes / np.sqrt(np.linalg.det(total))
            quad = np.einsum("in,in->n", deltas, np.linalg.solve(total, deltas))
            overlap = _overlap_prefactor(total) * np.exp(-_quadratic_columns(deltas, np.linalg.inv(total)))
            assert_allclose(overlap, prefactor * np.exp(-quad), rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize(
        "total",
        [np.ones((2, 2)), np.zeros((2, 2)), np.diag([-1.0, 1.0]), np.diag([1.0, 0.0, 2.0, 3.0])],
    )
    def test_singular_total_raises_value_error(self, total):
        with pytest.raises(ValueError, match="non-positive determinant") as err:
            _overlap_prefactor(total)
        assert not isinstance(err.value, np.linalg.LinAlgError)


class TestFormerRowPipeline:
    """Records, and the estimate made from them, equal bit for bit the row
    pipeline they replaced: rows drawn as mean * signs + z (R^T * signs),
    and the overlap 2 / sqrt(det total) * exp(-d^T total^-1 d) per row."""

    SETUP = cv.TeleportSetup(
        cv.squeezed_signal(0.7).gamma, 0.9, cv.FiberParams(0.8, phase=0.5, n_th=0.1), cv.FiberParams(0.9, n_th=0.1),
        kappa_in=[0.6, -0.3],
    )

    @staticmethod
    def rows(density, seed, size):
        evals, evecs = np.linalg.eigh(0.5 * (density.block + density.block.T))
        root = evecs * np.sqrt(np.clip(0.5 * evals, 0.0, None))
        z = np.random.default_rng(seed).standard_normal((size, len(evals)))
        return density.mean * density.signs + z @ (root.T * density.signs)

    @pytest.mark.parametrize("seed", [3, 41, 2024])
    def test_sample(self, seed):
        density = cv.teleport(self.SETUP).density
        assert np.array_equal(density.sample(np.random.default_rng(seed), 4000), self.rows(density, seed, 4000))

    @pytest.mark.parametrize("seed", [3, 41, 2024])
    @pytest.mark.parametrize("ideal_gain", [False, True])
    def test_estimate(self, seed, ideal_gain):
        setup, res = self.SETUP, cv.teleport(self.SETUP)
        gain = cv.ideal_displacement_gain(setup.f1, setup.f2) if ideal_gain else None
        chosen = res.gain if gain is None else gain
        record_map = math.sqrt(2.0) * res.density.signs[:, np.newaxis] * (res.gain - chosen).T
        offset = setup.kappa_in + math.sqrt(2.0) * (res.gain @ res.density.mean)
        deltas = offset - self.rows(res.density, seed, 4000) @ record_map
        total = setup.gamma_in + res.gamma_rec
        quad = ((deltas @ np.linalg.inv(total)) * deltas) @ np.ones(2)
        expected = float(np.mean(2.0 / math.sqrt(np.linalg.det(total)) * np.exp(-quad)))
        assert cv.teleport_monte_carlo(setup, 4000, seed, gain=gain) == expected
