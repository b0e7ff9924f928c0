import math
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

import cvsim as cv
from conftest import random_single_mode_physical


class TestConstructors:
    def test_vacuum(self):
        st = cv.vacuum_state(2)
        assert_allclose(st.gamma, np.eye(4))
        assert_allclose(st.kappa, 0.0)

    def test_thermal(self):
        assert_allclose(cv.thermal_state(1.0).gamma, np.diag([3.0, 3.0]))
        assert_allclose(cv.thermal_state([0.5, 2.0]).gamma, np.diag([2.0, 2.0, 5.0, 5.0]))

    def test_thermal_negative_n(self):
        for n in (-0.1, float("nan"), [0.5, float("nan")], float("inf"), [0.5, float("inf")]):
            with pytest.raises(ValueError, match="^mean thermal photon number "):
                cv.thermal_state(n)

    def test_thermal_mode_count(self):
        assert_allclose(cv.thermal_state(0.5, n_modes=2).gamma, 2.0 * np.eye(4))
        assert_allclose(cv.thermal_state([0.5, 2.0], n_modes=2).gamma, np.diag([2.0, 2.0, 5.0, 5.0]))
        with pytest.raises(ValueError, match="2 occupations given for 3 modes"):
            cv.thermal_state([0.1, 0.2], n_modes=3)

    @pytest.mark.parametrize("build, count", [
        pytest.param(lambda: cv.vacuum_state(0), 0, id="vacuum-0"),
        pytest.param(lambda: cv.vacuum_state(-1), -1, id="vacuum-minus-1"),
        pytest.param(lambda: cv.thermal_state([]), 0, id="thermal-empty"),
        pytest.param(lambda: cv.thermal_state(0.5, n_modes=0), 0, id="thermal-n_modes-0"),
        pytest.param(lambda: cv.thermal_state(0.5, n_modes=-1), -1, id="thermal-n_modes-minus-1"),
        pytest.param(lambda: cv.GaussianState(np.zeros(0), np.zeros((0, 0))), 0, id="GaussianState-0x0"),
    ])
    def test_rejects_fewer_than_one_mode(self, build, count):
        with pytest.raises(ValueError, match=f"mode count must be positive, got {count}$"):
            build()

    def test_displace_needs_full_vector(self):
        assert_allclose(cv.displace(cv.vacuum_state(2), [1.0, 0.0, 0.0, -2.0]).kappa, [1.0, 0.0, 0.0, -2.0])
        for delta in (1.0, [1.0, 0.0], np.ones((1, 4))):
            with pytest.raises(ValueError, match=r"^displacement must be a vector of length 4, got shape"):
                cv.displace(cv.vacuum_state(2), delta)

    def test_tmsv_zero_squeezing(self):
        assert_allclose(cv.tmsv_state(0.0).gamma, np.eye(4))

    def test_tmsv_pattern(self):
        gamma = cv.tmsv_state(0.5).gamma
        c, s = np.cosh(1.0), np.sinh(1.0)
        expected = np.array([[c, 0, s, 0], [0, c, 0, -s], [s, 0, c, 0], [0, -s, 0, c]])
        assert_allclose(gamma, expected, atol=1e-15)
        assert_allclose(c, 1.5430806348152437)
        assert_allclose(s, 1.1752011936438014)

    def test_tmsv_beyond_the_float_range_raises_before_cosh(self):
        # the suite turns RuntimeWarning into an error, so an overflow in cosh fails here
        limit = math.acosh(sys.float_info.max) / 2.0
        for zeta in (np.nextafter(limit, np.inf), 400.0, -400.0, np.inf):
            with pytest.raises(ValueError, match="overflows"):
                cv.tmsv_state(zeta)
        with pytest.raises(ValueError, match="overflows"):
            cv.degraded_tmsv(400.0, cv.IDEAL_FIBER, cv.IDEAL_FIBER)
        with pytest.raises(ValueError, match="overflows"):
            cv.teleport(cv.TeleportSetup(np.eye(2), 400.0))
        for zeta in (0.3, -2.0, limit, -limit):
            gamma = cv.tmsv_state(zeta).gamma
            assert gamma[0, 0] == np.cosh(2.0 * zeta) and gamma[0, 2] == np.sinh(2.0 * zeta)

    def test_single_mode_squeezing_beyond_the_float_range_raises_before_overflow(self):
        # the suite turns RuntimeWarning into an error, so an overflow in cosh or exp fails here
        cosh_max = math.acosh(sys.float_info.max)
        exp_max = math.log(sys.float_info.max) / 2.0
        for eta in (np.nextafter(cosh_max, np.inf), 800.0, -800.0, np.inf):
            with pytest.raises(ValueError, match="overflows"):
                cv.squeezed_signal(eta)
        for zeta in (np.nextafter(exp_max, np.inf), 400.0, -400.0, -np.inf):
            with pytest.raises(ValueError, match="overflows"):
                cv.squeezed_state(zeta, 0.3)
        for eta in (0.8, -3.0, cosh_max, -cosh_max):
            gamma = cv.squeezed_signal(eta).gamma
            assert gamma[0, 0] == np.cosh(eta) and gamma[0, 1] == np.sinh(eta)
        for zeta in (0.4, -2.0, exp_max, -exp_max):
            gamma = cv.squeezed_state(zeta).gamma
            assert gamma[0, 0] == np.exp(2.0 * zeta) and gamma[1, 1] == np.exp(-2.0 * zeta)

    def test_tmsv_is_pure(self):
        nus = cv.symplectic_eigenvalues(cv.tmsv_state(0.8).gamma)
        assert_allclose(nus, [1.0, 1.0], atol=1e-10)

    def test_squeezed_signal_equals_rotated_gate_squeeze(self):
        eta = 0.8
        direct = cv.squeezed_signal(eta).gamma
        rotated = cv.squeezed_state(eta / 2.0, np.pi / 4.0).gamma
        assert_allclose(direct, rotated, atol=1e-12)
        assert_allclose(direct, [[np.cosh(eta), np.sinh(eta)], [np.sinh(eta), np.cosh(eta)]])

    def test_mean_vector_mismatch(self):
        with pytest.raises(ValueError):
            cv.GaussianState(np.zeros(3), np.eye(4))
        with pytest.raises(ValueError, match="mean vector has non-finite entries"):
            cv.GaussianState([np.nan, 0.0], np.eye(2))
        with pytest.raises(ValueError, match="displacement has non-finite entries"):
            cv.displace(cv.vacuum_state(1), [np.inf, 0.0])

    def test_states_are_frozen(self):
        st = cv.vacuum_state(1)
        with pytest.raises(ValueError):
            st.gamma[0, 0] = 5.0

    def test_caller_arrays_stay_writable(self):
        gamma = np.eye(2)
        cv.GaussianState(np.zeros(2), gamma)
        gamma[0, 0] = 3.0  # the state took a copy


class TestClassicality:
    def test_vacuum_is_boundary_classical(self):
        verdict = cv.classicality_test(np.eye(2))
        assert verdict.classical
        assert_allclose(verdict.min_gamma_eigenvalue, 1.0)

    def test_squeezed_thermal_still_classical(self):
        st = cv.apply_symplectic(cv.thermal_state(1.0), cv.build_symplectic([cv.squeeze(0, 0.5)], 1))
        # oracle: diag(3 e, 3/e) by direct product
        assert_allclose(st.gamma, np.diag([3.0 * np.e, 3.0 / np.e]), atol=1e-12)
        verdict = cv.classicality_test(st.gamma)
        assert verdict.classical
        assert_allclose(verdict.min_gamma_eigenvalue, 3.0 * np.exp(-1.0), atol=1e-12)

    def test_squeezed_thermal_turned_nonclassical(self):
        st = cv.apply_symplectic(cv.thermal_state(1.0), cv.build_symplectic([cv.squeeze(0, 0.6)], 1))
        verdict = cv.classicality_test(st.gamma)
        assert not verdict.classical
        assert_allclose(verdict.min_gamma_eigenvalue, 3.0 * np.exp(-1.2), atol=1e-12)

    def test_rejects_unphysical(self):
        with pytest.raises(ValueError):
            cv.classicality_test(np.diag([0.5, 0.5]))

    def test_rotation_invariance(self, rng):
        for _ in range(50):
            gamma = random_single_mode_physical(rng)
            theta = rng.uniform(0, 2 * np.pi)
            r = cv.rotation_matrix(theta)
            a = cv.classicality_test(gamma)
            b = cv.classicality_test(r @ gamma @ r.T)
            assert a.classical == b.classical
            assert_allclose(a.min_gamma_eigenvalue, b.min_gamma_eigenvalue, atol=1e-10)


class TestMaxClassicalSqueezing:
    @pytest.mark.parametrize(
        "n,expected",
        [(0.0, 0.0), (1.0, 0.5 * np.log(3.0)), (4.0, np.log(3.0))],
    )
    def test_formula(self, n, expected):
        assert_allclose(cv.max_classical_squeezing(n), expected, atol=1e-14)

    def test_negative_n(self):
        for n in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="^mean thermal photon number "):
                cv.max_classical_squeezing(n)

    def test_boundary_matches_classicality_flip(self):
        n = 0.7
        thermal = cv.thermal_state(n)

        def classical_at(zeta):
            st = cv.apply_symplectic(thermal, cv.build_symplectic([cv.squeeze(0, zeta)], 1))
            return cv.classicality_test(st.gamma).min_gamma_eigenvalue >= 1.0

        lo, hi = 0.0, 2.0
        assert classical_at(lo) and not classical_at(hi)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if classical_at(mid):
                lo = mid
            else:
                hi = mid
        assert abs(0.5 * (lo + hi) - cv.max_classical_squeezing(n)) <= 1e-9


class TestCharacteristicFunction:
    def test_normalisation_at_zero(self, rng):
        for _ in range(10):
            gamma = random_single_mode_physical(rng)
            st = cv.GaussianState(rng.normal(size=2), gamma)
            assert_allclose(cv.characteristic_function(st, np.zeros(2)), 1.0)

    def test_vacuum_value(self):
        val = cv.characteristic_function(cv.vacuum_state(1), [2.0, 0.0])
        assert_allclose(val, np.exp(-1.0))

    def test_displaced_vacuum_phase(self):
        st = cv.displace(cv.vacuum_state(1), [1.0, 0.0])
        val = cv.characteristic_function(st, [0.0, 2.0])
        assert_allclose(val, np.exp(-1.0) * np.exp(-2.0j), atol=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            cv.characteristic_function(cv.vacuum_state(1), [1.0, 0.0, 0.0])

    def test_bounded_by_one(self, rng):
        for _ in range(200):
            gamma = random_single_mode_physical(rng)
            st = cv.GaussianState(rng.normal(size=2), gamma)
            lam = rng.normal(scale=3.0, size=2)
            assert abs(cv.characteristic_function(st, lam)) <= 1.0 + 1e-12
