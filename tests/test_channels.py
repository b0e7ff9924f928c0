import numpy as np
import pytest
from numpy.testing import assert_allclose

import cvsim as cv
from conftest import random_fiber, random_two_mode_physical


# corners of the fiber rule that random_fiber never reaches
FIBER_RULE_CORNERS = [
    cv.FiberParams(t_mag=0.0),
    cv.FiberParams(t_mag=0.0, n_th=100.0),
    cv.FiberParams(t_mag=1.0, phase=2.0),
    cv.FiberParams(t_mag=1.0, r_mag=7e-7),  # |T|^2 + |R|^2 = 1 + 4.9e-13, inside the slack
    cv.FiberParams(t_mag=0.6, r_mag=0.8, phase=-1.0),  # |T|^2 + |R|^2 = 1
    cv.FiberParams(t_mag=0.6, r_mag=np.sqrt(0.64 + 5e-13)),  # inside the slack
    cv.FiberParams(t_mag=0.0, r_mag=1.0, n_th=100.0),
    cv.FiberParams(t_mag=0.5, r_mag=0.5, phase=0.3, n_th=100.0),
]


class TestApplyChannel:
    def test_thermalisation_from_vacuum(self):
        n = 0.8
        ch = cv.GaussianChannel(np.eye(2), 2.0 * n * np.eye(2))
        out = cv.apply_channel(cv.vacuum_state(1), ch)
        assert_allclose(out.gamma, cv.thermal_state(n).gamma)

    def test_identity_channel(self, rng):
        gamma = random_two_mode_physical(rng)
        st = cv.GaussianState(rng.normal(size=4), gamma)
        out = cv.apply_channel(st, cv.GaussianChannel(np.eye(4), np.zeros((4, 4))))
        assert_allclose(out.gamma, gamma)
        assert_allclose(out.kappa, st.kappa)

    def test_tmsv_through_ideal_fibers_unchanged(self):
        st = cv.tmsv_state(0.5)
        ch = cv.tensor_channels(cv.fiber_channel(cv.IDEAL_FIBER), cv.fiber_channel(cv.IDEAL_FIBER))
        assert_allclose(cv.apply_channel(st, ch).gamma, st.gamma)

    def test_rejects_invalid_channel(self):
        bad = cv.GaussianChannel(np.eye(2), -0.1 * np.eye(2))
        with pytest.raises(ValueError):
            cv.apply_channel(cv.vacuum_state(1), bad)

    def test_rejects_dimension_mismatch(self):
        ch = cv.GaussianChannel(np.eye(2), np.zeros((2, 2)))
        with pytest.raises(ValueError):
            cv.apply_channel(cv.vacuum_state(2), ch)


class TestValidateChannel:
    def test_identity_valid(self):
        assert cv.validate_channel(cv.GaussianChannel(np.eye(2), np.zeros((2, 2))))

    def test_negative_noise_invalid(self):
        assert not cv.validate_channel(cv.GaussianChannel(np.eye(2), -0.1 * np.eye(2)))

    def test_fiber_channels_always_valid(self, rng):
        for f in [*FIBER_RULE_CORNERS, *(random_fiber(rng) for _ in range(300))]:
            assert cv.validate_channel(cv.fiber_channel(f)), f

    def test_valid_channels_preserve_physicality(self, rng):
        sigma = cv.symplectic_form(1)
        for _ in range(200):
            a = rng.normal(size=(2, 2))
            need = 1j * sigma - 1j * a @ sigma @ a.T
            mu = np.max(np.abs(np.linalg.eigvalsh(need)))
            g = (mu + rng.uniform(0, 0.5)) * np.eye(2)
            ch = cv.GaussianChannel(a, g)
            assert cv.validate_channel(ch)
            gamma = random_two_mode_physical(rng)[:2, :2]
            out = cv.apply_channel(cv.GaussianState(np.zeros(2), gamma), ch)
            assert cv.validate_covariance(out.gamma).physical


class TestFiberChannel:
    def test_ideal(self):
        ch = cv.fiber_channel(cv.FiberParams(t_mag=1.0))
        assert_allclose(ch.a, np.eye(2))
        assert_allclose(ch.g, np.zeros((2, 2)))

    def test_half_transmission(self):
        ch = cv.fiber_channel(cv.FiberParams(t_mag=np.sqrt(0.5)))
        assert_allclose(ch.a, np.eye(2) / np.sqrt(2.0))
        assert_allclose(ch.g, 0.5 * np.eye(2))

    def test_full_absorption_thermalises(self, rng):
        ch = cv.fiber_channel(cv.FiberParams(t_mag=0.0, n_th=2.0))
        assert_allclose(ch.g, 5.0 * np.eye(2))
        gamma = random_two_mode_physical(rng)[:2, :2]
        out = cv.apply_channel(cv.GaussianState(np.zeros(2), gamma), ch)
        assert_allclose(out.gamma, cv.thermal_state(2.0).gamma, atol=1e-12)

    def test_phase_is_a_rotation(self):
        ch = cv.fiber_channel(cv.FiberParams(t_mag=0.9, phase=0.7))
        assert_allclose(ch.a, 0.9 * cv.rotation_matrix(0.7))

    def test_lambert_beer(self):
        p = cv.fiber_from_length(0.35, 1.0, n_th=0.2)
        assert_allclose(p.t_mag, np.exp(-0.35))
        assert p.r_mag == 0.0 and p.n_th == 0.2

    def test_parameter_violations(self):
        with pytest.raises(ValueError):
            cv.FiberParams(t_mag=0.9, r_mag=0.9)
        with pytest.raises(ValueError):
            cv.FiberParams(t_mag=1.2)
        with pytest.raises(ValueError):
            cv.FiberParams(t_mag=0.5, n_th=-1.0)
        with pytest.raises(ValueError):
            cv.FiberParams(t_mag=0.5, n_th=float("nan"))
        with pytest.raises(ValueError, match="finite"):
            cv.FiberParams(t_mag=0.5, n_th=float("inf"))


class TestDegradedTmsv:
    def test_ideal_fibers_reproduce_tmsv(self):
        out = cv.degraded_tmsv(0.7, cv.IDEAL_FIBER, cv.IDEAL_FIBER)
        assert_allclose(out, cv.tmsv_state(0.7).gamma, atol=1e-14)

    def test_equal_fibers_match_scalar_transform(self):
        zeta, t2, r2, nth = 0.4, 0.6, 0.1, 0.3
        f = cv.FiberParams(t_mag=np.sqrt(t2), r_mag=np.sqrt(r2), n_th=nth)
        out = cv.degraded_tmsv(zeta, f, f)
        noise = r2 + (2 * nth + 1) * (1 - t2 - r2)
        expected = t2 * cv.tmsv_state(zeta).gamma + noise * np.eye(4)
        assert_allclose(out, expected, atol=1e-12)

    def test_phases_fill_the_cross_block(self):
        f1 = cv.FiberParams(t_mag=0.9, phase=np.pi / 4)
        f2 = cv.FiberParams(t_mag=0.8, phase=np.pi / 4)
        out = cv.degraded_tmsv(0.3, f1, f2)
        assert_allclose(out[0, 2], 0.0, atol=1e-12)  # c1 = s Re(T1 T2) with phase sum pi/2
        assert_allclose(out[0, 3], 0.72 * np.sinh(0.6), atol=1e-12)
        cross = out[:2, 2:]
        assert_allclose(cross, [[out[0, 2], out[0, 3]], [out[0, 3], -out[0, 2]]], atol=1e-12)

    def test_stays_physical(self, rng):
        for _ in range(100):
            out = cv.degraded_tmsv(rng.uniform(0, 1.5), random_fiber(rng), random_fiber(rng))
            assert cv.validate_covariance(out).physical

    def test_matches_the_channel_api_bit_for_bit(self, rng):
        # the channel API, with its complete-positivity certificate, is the
        # reference for the direct products degraded_tmsv forms
        fibers = [*FIBER_RULE_CORNERS, *(random_fiber(rng, max_n=2.0) for _ in range(1000))]
        for f1, f2 in zip(fibers, fibers[1:] + fibers[:1]):
            zeta = rng.uniform(0, 3)
            ch = cv.tensor_channels(cv.fiber_channel(f1), cv.fiber_channel(f2))
            ref = cv.apply_channel(cv.tmsv_state(zeta), ch).gamma
            assert np.array_equal(cv.degraded_tmsv(zeta, f1, f2), ref), (zeta, f1, f2)
