import decimal
import math
import re

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose

import cvsim as cv
from conftest import random_symplectic, random_two_mode_physical


class TestPartialTranspose:
    def test_identity(self):
        assert_allclose(cv.partial_transpose(np.eye(4)), np.eye(4))

    def test_involution(self, rng):
        gamma = random_two_mode_physical(rng)
        assert_allclose(cv.partial_transpose(cv.partial_transpose(gamma)), gamma)

    def test_tmsv_sign_flip(self):
        gamma = cv.tmsv_state(0.5).gamma
        pt = cv.partial_transpose(gamma)
        s = np.sinh(1.0)
        assert_allclose(pt[1, 3], s)
        assert_allclose(pt[0, 2], s)

    def test_wrong_dimension(self):
        with pytest.raises(ValueError):
            cv.partial_transpose(np.eye(2))


class TestIsSeparable:
    def test_two_vacua(self):
        verdict = cv.is_separable(np.eye(4))
        assert verdict.separable
        assert verdict.pt_min_eig >= -1e-12

    def test_tmsv_entangled(self):
        verdict = cv.is_separable(cv.tmsv_state(0.5).gamma)
        assert not verdict.separable
        assert verdict.lhs < verdict.rhs

    def test_threshold_boundary(self):
        zeta, t_mag = 0.5, np.sqrt(0.5)
        n_crit = cv.fiber_separability_threshold(zeta, t_mag)
        assert_allclose(n_crit, 0.5 * (1.0 - np.exp(-1.0)), atol=1e-14)

        def verdict_at(n_th):
            f = cv.FiberParams(t_mag=t_mag, n_th=n_th)
            return cv.is_separable(cv.degraded_tmsv(zeta, f, f)).separable

        assert verdict_at(n_crit)  # boundary counts as separable
        assert verdict_at(n_crit + 1e-4)
        assert not verdict_at(n_crit - 1e-4)

    def test_rejects_unphysical(self):
        with pytest.raises(ValueError):
            cv.is_separable(0.3 * np.eye(4))

    def test_criterion_agrees_with_pt_test(self, rng):
        cv.is_separable(np.array([random_two_mode_physical(rng) for _ in range(500)]))  # raises on disagreement

    @pytest.mark.parametrize("zeta", [1.0, 3.0, 5.0, 8.0, 10.0, 12.0, 15.0])
    def test_pure_tmsv_lhs(self, zeta):
        # the product chain C1 J C3 J C2 J C3^T J cancelled terms of size e^(8 zeta): lhs was off by
        # 3.8e-8 (relative) at zeta = 5 and 9.5e-3 at zeta = 8, and zeta = 10 to 15 raised RuntimeError
        gamma = cv.tmsv_state(zeta).gamma
        verdict = cv.is_separable(gamma)
        assert verdict.separable is False
        with mpmath.workdps(50):
            want = 2 - 2 * mpmath.sinh(2 * mpmath.mpf(zeta)) ** 2
            assert abs(mpmath.mpf(verdict.lhs) - want) <= _tmsv_lhs_bound(gamma, want)

    @pytest.mark.parametrize("zeta, phase", [(7.0, 0.0), (7.0, 0.6), (7.5, 0.0)])
    def test_deep_lossy_tmsv_past_the_threshold(self, zeta, phase):
        # the product chain raised RuntimeError here; n_th = 0.5 is just past n_crit = 0.4999996
        fiber = cv.FiberParams(t_mag=math.sqrt(0.5), phase=phase, n_th=0.5)
        assert cv.fiber_separability_threshold(zeta, fiber.t_mag) < 0.5
        assert cv.is_separable(cv.degraded_tmsv(zeta, fiber, fiber)).separable is True


_EPS = float(np.finfo(float).eps)


def _det_rounding(log_pivots):
    """Relative error bound of numpy's det, exp(sum of log |pivot|) over LU's pivots: each
    log is within one ulp, eps |log p|; their sum adds at most eps sum |log p|; exp one ulp."""
    return _EPS * (1 + 2 * log_pivots)


def _tmsv_lhs_bound(gamma, want):
    """Bound on |lhs - want| for is_separable's lhs = det gamma + 1 - 2 |det C3| of the float
    TMSV matrix: the exact lhs of its entries c and s, plus the rounding of each step.

    det C3 has the pivots s and -s.  gamma's x and p blocks are [[c, +-s], [+-s, c]], so
    det gamma has the pivots c, c, u, u, where LU forms u = c - s (s / c) with at most four
    roundings (1 / c, two products, the difference) of terms of size c; so c u lies within
    2 eps c^2 + (eps / 2) |c u| of c^2 - s^2, and det gamma = (c u)^2 >= 0."""
    c, s = mpmath.mpf(gamma[0, 0]), mpmath.mpf(gamma[0, 2])
    exact = abs(c * c - s * s)
    spread = 2 * _EPS * c * c
    hi, lo = (exact + spread) / (1 - _EPS / 2), max(0, (exact - spread) / (1 + _EPS / 2))
    # (c u)^2 (1 +- rounding) grows with u, so the extremes sit at hi and lo
    det_hi = hi**2 * (1 + _det_rounding(2 * mpmath.log(c) + 2 * abs(mpmath.log(hi / c))))
    det_lo = lo**2 * (1 - _det_rounding(2 * mpmath.log(c) + 2 * abs(mpmath.log(lo / c)))) if lo else 0
    det_error = max(det_hi - exact**2, exact**2 - det_lo)
    det3_error = s * s * _det_rounding(2 * mpmath.log(s))
    # fl(det gamma + 1), then minus 2 |det C3|: one rounding each
    sums = _EPS * (det_hi + 1 + s * s + det3_error)
    return abs(exact**2 + 1 - 2 * s * s - want) + det_error + 2 * det3_error + sums


class TestLogNegativity:
    @pytest.mark.parametrize("zeta", [0.1, 0.5, 1.0, 1.5])
    def test_tmsv_value(self, zeta):
        rep = cv.log_negativity(cv.tmsv_state(zeta).gamma)
        assert_allclose(rep.e_n, 2.0 * zeta, atol=1e-10)
        assert_allclose(rep.f_value, np.exp(-2.0 * zeta), atol=1e-10)

    def test_base_two(self):
        rep = cv.log_negativity(cv.tmsv_state(0.5).gamma, base="2")
        assert_allclose(rep.e_n, 1.0 / np.log(2.0), atol=1e-10)
        assert rep.log_base == "2"

    def test_separable_state_zero(self):
        assert cv.log_negativity(cv.thermal_state([0.5, 0.3]).gamma).e_n == 0.0

    def test_degraded_tmsv_value(self):
        zeta, t2 = 0.5, 0.8
        f = cv.FiberParams(t_mag=np.sqrt(t2))
        gamma = cv.degraded_tmsv(zeta, f, f)
        expected = -math.log(1.0 - t2 * (1.0 - math.exp(-2.0 * zeta)))
        rep = cv.log_negativity(gamma)
        assert_allclose(rep.e_n, expected, atol=1e-10)
        assert_allclose(expected, 0.7046054708796523, atol=1e-12)

    def test_zero_iff_separable(self, rng):
        gammas = np.array([random_two_mode_physical(rng) for _ in range(300)])
        rep = cv.log_negativity(gammas)
        verdict = cv.is_separable(gammas)
        assert not np.any(verdict.separable[rep.e_n > 1e-7])
        assert np.all(rep.e_n[verdict.separable] <= 1e-7)

    def test_matches_pt_symplectic_spectrum(self, rng):
        gammas = np.array([random_two_mode_physical(rng) for _ in range(300)])
        rep = cv.log_negativity(gammas)
        nus = cv.symplectic_eigenvalues(cv.partial_transpose(gammas))
        oracle = np.prod(np.minimum(nus, 1.0), axis=-1)
        assert np.all(np.abs(np.minimum(rep.f_value, 1.0) - oracle) <= 1e-9)

    def test_local_symplectic_invariance(self, rng):
        from scipy.linalg import block_diag

        gammas, moved = [], []
        for _ in range(100):
            gammas.append(random_two_mode_physical(rng))
            s_local = block_diag(random_symplectic(rng, 1, 3), random_symplectic(rng, 1, 3))
            moved.append(s_local @ gammas[-1] @ s_local.T)
        before = cv.log_negativity(np.array(gammas)).e_n
        after = cv.log_negativity(np.array(moved)).e_n
        assert np.all(np.abs(before - after) <= 1e-9)

    def test_monotone_in_fiber_length(self):
        fibers = [cv.fiber_from_length(l, 1.0) for l in np.linspace(0.0, 2.0, 21)]
        values = cv.log_negativity(np.array([cv.degraded_tmsv(0.8, f, f) for f in fibers])).e_n
        assert np.all(np.diff(values) <= 1e-12)

    def test_invalid_base(self):
        with pytest.raises(ValueError):
            cv.log_negativity(np.eye(4), base="10")

    @pytest.mark.parametrize("base", ["natural", math.e, "two", 2, 2.0])
    def test_closed_forms_reject_retired_spellings(self, base):
        for call in (
            lambda: cv.log_negativity(cv.tmsv_state(0.3).gamma, base=base),
            lambda: cv.transmitted_log_negativity(0.3, 0.8, base=base),
            lambda: cv.max_transmittable(0.5, 1.0, base=base),
        ):
            with pytest.raises(ValueError, match="log base"):
                call()


class TestThresholds:
    def test_infinite_squeezing_limit(self):
        assert_allclose(cv.fiber_separability_threshold(50.0, np.sqrt(0.5)), 0.5, atol=1e-12)

    def test_zero_squeezing(self):
        assert cv.fiber_separability_threshold(0.0, 0.7) == 0.0

    def test_example_value(self):
        val = cv.fiber_separability_threshold(0.5, np.sqrt(0.5))
        assert_allclose(val, (1.0 - np.exp(-1.0)) / 2.0, atol=1e-14)

    def test_no_absorption_is_infinite(self):
        assert math.isinf(cv.fiber_separability_threshold(0.5, 0.8, 0.6))

    def test_energy_violation(self):
        with pytest.raises(ValueError):
            cv.fiber_separability_threshold(0.5, 0.9, 0.9)

    @pytest.mark.parametrize(
        "t_mag, r_mag",
        [(1.0, 1e-7), (1.0, 2e-6), (0.8, 0.6 + 1e-13), (0.8, 0.6 + 1e-9), (-0.1, 0.0), (1.1, 0.0), (0.5, -0.1),
         (float("nan"), 0.0)],
    )
    def test_shares_the_fiber_parameter_rule(self, t_mag, r_mag):
        try:
            cv.FiberParams(t_mag=t_mag, r_mag=r_mag)
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                cv.fiber_separability_threshold(0.5, t_mag, r_mag)
        else:
            cv.fiber_separability_threshold(0.5, t_mag, r_mag)

    @pytest.mark.parametrize("zeta", [-1.0, -1e-12, float("nan")])
    def test_negative_squeezing_is_rejected(self, zeta):
        with pytest.raises(ValueError, match="non-negative"):
            cv.fiber_separability_threshold(zeta, 0.8)
        with pytest.raises(ValueError, match="non-negative"):
            cv.separability_length(zeta, 0.5, 1.0)
        with pytest.raises(ValueError, match="non-negative"):
            cv.transmitted_log_negativity(zeta, 1.0)


class TestSeparabilityLength:
    def test_infinite_squeezing(self):
        assert_allclose(cv.separability_length(60.0, 0.5, 1.0), 0.5 * np.log(2.0), atol=1e-12)

    def test_zero_squeezing(self):
        assert cv.separability_length(0.0, 0.5, 1.0) == 0.0

    def test_zero_temperature_diverges(self):
        assert math.isinf(cv.separability_length(0.5, 0.0, 1.0))

    @pytest.mark.parametrize("n_th", [-0.1, float("nan"), float("inf")])
    def test_rejects_bad_occupation(self, n_th):
        with pytest.raises(ValueError, match="thermal photon number"):
            cv.separability_length(0.5, n_th, 1.0)

    @pytest.mark.parametrize(
        "length, l_abs, match",
        [(0.3, 0.0, "absorption length"), (0.3, -1.0, "absorption length"), (0.3, float("nan"), "absorption length"),
         (-0.1, 1.0, "fiber length"), (float("nan"), 1.0, "fiber length")],
    )
    def test_length_rule_is_shared(self, length, l_abs, match):
        with pytest.raises(ValueError, match=match):
            cv.fiber_from_length(length, l_abs)
        with pytest.raises(ValueError, match=match):
            cv.max_transmittable(length, l_abs)
        if match == "absorption length":
            with pytest.raises(ValueError, match=match):
                cv.separability_length(0.5, 0.1, l_abs)

    def test_round_trip_with_threshold(self):
        # a fiber of length l_S sits exactly on the separability boundary
        zeta, n_th, l_abs = 0.7, 0.25, 2.0
        l_s = cv.separability_length(zeta, n_th, l_abs)
        t_mag = np.exp(-l_s / l_abs)
        assert_allclose(cv.fiber_separability_threshold(zeta, t_mag), n_th, atol=1e-9)


def _decimal_nats(residual) -> float:
    """-ln of ``residual``, a function of the Decimal type, in 50-digit decimal arithmetic from the exact values
    of the floats it is given: a reference independent of the float closed forms."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        return float(-residual(decimal.Decimal).ln())


class TestSaturationEdge:
    """Near saturation, 1 - |T|^2 (1 - e^(-2 zeta)) and 1 - e^(-2 l / l_A) are
    tiny, and -log1p of the rounded loss keeps few of their digits."""

    @pytest.mark.parametrize("zeta", [10.0, 18.0, 19.0, 20.0, 100.0])
    def test_perfect_transmission_is_two_zeta(self, zeta):
        # 20.00000002 at zeta = 10, 36.0437 at zeta = 18, inf from zeta ~ 18.7 on
        assert cv.transmitted_log_negativity(zeta, 1.0) == pytest.approx(2.0 * zeta, rel=1e-15)
        assert cv.transmitted_log_negativity(zeta, 1.0, base="2") == pytest.approx(2.0 * zeta / math.log(2.0), rel=1e-15)

    @pytest.mark.parametrize("base", ["e", "2"])
    def test_infinite_squeezing(self, base):
        assert cv.transmitted_log_negativity(math.inf, 1.0, base) == math.inf
        unit = math.log(2.0) if base == "2" else 1.0
        assert cv.transmitted_log_negativity(math.inf, 0.5, base) == pytest.approx(-math.log(0.75) / unit, rel=1e-15)

    @pytest.mark.parametrize("t_mag, zeta", [(1.0 - 1e-12, 10.0), (1.0 - 1e-12, 20.0), (0.9999, 30.0), (0.999, 3.0), (0.9, 1.0)])
    def test_lossy_fiber_near_saturation(self, t_mag, zeta):
        # at |T| = 1 - 1e-12, zeta = 20 the residual 2e-12 had a relative error of about 5e-5
        expected = _decimal_nats(lambda d: 1 - d(t_mag) ** 2 * (1 - (-2 * d(zeta)).exp()))
        assert cv.transmitted_log_negativity(zeta, t_mag) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("length", [1e-20, 5e-17, 1e-16, 1e-12, 1e-3, 0.01, 1.0])
    def test_short_fiber(self, length):
        expected = _decimal_nats(lambda d: 1 - (-2 * d(length)).exp())
        assert cv.max_transmittable(length, 1.0) == pytest.approx(expected, rel=1e-13)
        assert cv.max_transmittable(2.0 * length, 2.0) == cv.max_transmittable(length, 1.0)

    @pytest.mark.parametrize("length", [1e-300, 1e-20, 1e-16])
    def test_shortest_fibers_are_minus_log_two_l(self, length):
        # 2.9e-3 too low at l = 1e-16, inf below l ~ 5.6e-17; -log(2l) is off by about l
        assert cv.max_transmittable(length, 1.0) == pytest.approx(-math.log(2.0 * length), rel=1e-15)

    def test_zero_length_is_infinite(self):
        assert cv.max_transmittable(0.0, 1.0) == cv.max_transmittable(0.0, 1.0, base="2") == math.inf


class TestTransmittedLogNegativity:
    def test_perfect_transmission(self):
        for zeta in (0.1, 0.7, 2.0):
            assert_allclose(cv.transmitted_log_negativity(zeta, 1.0), 2.0 * zeta, atol=1e-12)

    def test_base_two_unit_value(self):
        val = cv.max_transmittable(0.5 * np.log(2.0), 1.0, base="2")
        assert_allclose(val, 1.0, atol=1e-12)

    @pytest.mark.parametrize("base, unit", [("e", 1.0), ("2", np.log(2.0))], ids=["e", "2"])
    def test_depends_on_length_over_absorption_length(self, base, unit):
        # every other test has l_A = 1, where length * l_A passes for length / l_A
        expected = -np.log1p(-np.exp(-1.0)) / unit
        assert cv.max_transmittable(1.0, 2.0, base=base) == cv.max_transmittable(0.5, 1.0, base=base) == expected

    def test_dense_coding_crossover(self):
        val = cv.transmitted_log_negativity(20.0, np.sqrt(0.75), base="2")
        assert_allclose(val, 2.0, atol=1e-6)

    def test_independent_of_reflection(self):
        # reflection never enters; check against the matrix pipeline instead
        zeta, t2 = 0.4, 0.6
        for r2 in (0.0, 0.1, 0.3):
            f = cv.FiberParams(t_mag=np.sqrt(t2), r_mag=np.sqrt(r2))
            rep = cv.log_negativity(cv.degraded_tmsv(zeta, f, f))
            assert_allclose(rep.e_n, cv.transmitted_log_negativity(zeta, np.sqrt(t2)), atol=1e-10)
