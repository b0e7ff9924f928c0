"""One matrix is a stack of one: the raw-matrix functions take a leading
batch axis (..., 2N, 2N), evaluate a stack bit for bit as a loop over its
matrices does, and hand one matrix back as Python scalars."""

import functools
import math

import numpy as np
import pytest

import cvsim as cv
from conftest import random_two_mode_physical

REPORTS = {
    "validate_covariance": (cv.validate_covariance, ("physical", "min_eigenvalue")),
    "is_separable": (cv.is_separable, ("separable", "lhs", "rhs", "pt_min_eig")),
    "log_negativity": (cv.log_negativity, ("f_value", "e_n")),
    "log_negativity base 2": (functools.partial(cv.log_negativity, base="2"), ("f_value", "e_n")),
}
ARRAYS = {"symplectic_eigenvalues": cv.symplectic_eigenvalues, "partial_transpose": cv.partial_transpose}


@pytest.fixture(scope="module")
def stack():
    """1000 random two-mode states, then boundary and borderline ones."""
    rng = np.random.default_rng(1607)
    mats = [
        random_two_mode_physical(rng, max_squeeze=rng.uniform(0.1, 1.5), max_n=rng.uniform(0.0, 3.0))
        for _ in range(1000)
    ]
    # pure and product states on the physicality boundary; at zeta <= 1e-5 the
    # TMSV lies inside is_separable's borderline band
    mats += [cv.tmsv_state(zeta).gamma for zeta in (0.0, 1e-7, 1e-5, 1e-3, 0.5, 2.0)]
    mats += [np.eye(4), cv.thermal_state([0.5, 0.3]).gamma]
    # degraded TMSVs at relative distances from the separability threshold
    for zeta, t2 in ((0.3, 0.5), (1.0, 0.8), (0.05, 0.2)):
        n_crit = cv.fiber_separability_threshold(zeta, math.sqrt(t2))
        for rel in (-1e-6, -1e-9, -1e-12, 0.0, 1e-12, 1e-9, 1e-6):
            f = cv.FiberParams(t_mag=math.sqrt(t2), n_th=n_crit * (1.0 + rel))
            mats.append(cv.degraded_tmsv(zeta, f, f))
    return np.array(mats)


class TestStackMatchesLoop:
    @pytest.mark.parametrize("name", sorted(REPORTS))
    def test_report_fields(self, stack, name):
        fn, fields = REPORTS[name]
        stacked = fn(stack)
        loop = [fn(gamma) for gamma in stack]
        for field in fields:
            got = getattr(stacked, field)
            assert isinstance(got, np.ndarray) and got.shape == stack.shape[:-2]
            assert np.array_equal(got, [getattr(r, field) for r in loop]), field

    @pytest.mark.parametrize("name", sorted(ARRAYS))
    def test_array_results(self, stack, name):
        fn = ARRAYS[name]
        assert np.array_equal(fn(stack), [fn(gamma) for gamma in stack])

    def test_characteristic_function(self, stack):
        rng = np.random.default_rng(1608)
        state = cv.GaussianState(rng.normal(size=4), stack[7])
        lam = rng.normal(scale=2.0, size=(40, 30, 4))
        got = cv.characteristic_function(state, lam)
        assert got.shape == (40, 30)
        assert np.array_equal(got, [[cv.characteristic_function(state, row) for row in rows] for rows in lam])

    def test_borderline_band_is_exercised(self, stack):
        verdict = cv.is_separable(stack)
        # separable by the band although gamma^PT + i Sigma has a negative eigenvalue
        assert np.any(verdict.separable & (verdict.pt_min_eig < -cv.DEFAULT_TOL))

    def test_batch_shape_is_kept(self, stack):
        grid = stack[:1000].reshape(10, 100, 4, 4)
        assert np.array_equal(cv.is_separable(grid).lhs, cv.is_separable(stack[:1000]).lhs.reshape(10, 100))
        assert cv.symplectic_eigenvalues(grid).shape == (10, 100, 2)


class TestOneMatrix:
    def test_returns_python_scalars(self):
        gamma = cv.tmsv_state(0.4).gamma
        report = cv.validate_covariance(gamma)
        assert type(report.physical) is bool and type(report.min_eigenvalue) is float
        verdict = cv.is_separable(gamma)
        assert type(verdict.separable) is bool
        assert all(type(v) is float for v in (verdict.lhs, verdict.rhs, verdict.pt_min_eig))
        neg = cv.log_negativity(gamma)
        assert type(neg.f_value) is float and type(neg.e_n) is float
        nus = cv.symplectic_eigenvalues(gamma)
        assert isinstance(nus, np.ndarray) and nus.shape == (2,)
        assert cv.partial_transpose(gamma).shape == (4, 4)
        assert type(cv.characteristic_function(cv.vacuum_state(2), np.ones(4))) is complex

    def test_stack_of_one_holds_the_same_values(self):
        gamma = cv.tmsv_state(0.4).gamma
        for name, (fn, fields) in REPORTS.items():
            one, stacked = fn(gamma), fn(gamma[np.newaxis])
            for field in fields:
                assert getattr(stacked, field).shape == (1,)
                assert getattr(stacked, field)[0] == getattr(one, field), (name, field)


class TestEmptyStack:
    @pytest.mark.parametrize("name", sorted(REPORTS))
    def test_report_fields_are_empty(self, name):
        fn, fields = REPORTS[name]
        report = fn(np.zeros((0, 4, 4)))
        assert all(getattr(report, field).shape == (0,) for field in fields)

    def test_arrays_are_empty(self):
        assert cv.symplectic_eigenvalues(np.zeros((0, 4, 4))).shape == (0, 2)
        assert cv.partial_transpose(np.zeros((0, 4, 4))).shape == (0, 4, 4)
        assert cv.characteristic_function(cv.vacuum_state(1), np.zeros((0, 2))).shape == (0,)


class TestFailureNamesTheMatrix:
    def test_unphysical(self):
        gammas = np.array([np.eye(4), np.eye(4), 0.3 * np.eye(4)])
        for fn in (cv.is_separable, cv.log_negativity):
            with pytest.raises(ValueError, match=r"^covariance matrix is unphysical \(stack index 2\)$"):
                fn(gammas)
            with pytest.raises(ValueError, match=r"^covariance matrix is unphysical$"):
                fn(gammas[2])

    def test_non_finite_in_a_grid(self):
        gammas = np.broadcast_to(np.eye(4), (2, 3, 4, 4)).copy()
        gammas[1, 0, 2, 3] = np.nan
        for fn in (cv.validate_covariance, cv.symplectic_eigenvalues, cv.partial_transpose, cv.is_separable):
            with pytest.raises(ValueError, match=r"^covariance matrix has non-finite entries \(stack index 1, 0\)$"):
                fn(gammas)

    def test_not_positive_semidefinite(self):
        with pytest.raises(ValueError, match=r"^covariance matrix is not positive semidefinite \(stack index 1\)$"):
            cv.symplectic_eigenvalues(np.array([np.eye(2), -np.eye(2)]))

    def test_cross_checks(self, monkeypatch):
        # log_negativity's cross-check fails on the pure TMSV from zeta ~ 5 on (ROADMAP item 4, correct
        # answers at both ends); is_separable's no longer does, so its partial-transpose eigenvalue is
        # forced to say separable at index 1, where the criterion says entangled
        deep = np.array([cv.tmsv_state(0.5).gamma, cv.tmsv_state(12.0).gamma])
        with monkeypatch.context() as patch:
            patch.setattr(cv.entanglement, "_min_eigenvalue", lambda g: np.array([-0.5, 0.5]))
            with pytest.raises(RuntimeError, match=r"^separability criterion and .*\(stack index 1\)$"):
                cv.is_separable(deep)
        with pytest.raises(RuntimeError, match=r"^closed-form and symplectic-spectrum .*\(stack index 1\)$"):
            cv.log_negativity(deep)

    def test_non_finite_lambda(self):
        with pytest.raises(ValueError, match=r"^lambda has non-finite entries \(stack index 1\)$"):
            cv.characteristic_function(cv.vacuum_state(1), [[0.0, 0.0], [np.nan, 0.0]])
        with pytest.raises(ValueError, match=r"^lambda has non-finite entries$"):
            cv.characteristic_function(cv.vacuum_state(1), [np.nan, 0.0])


ONE_MATRIX_ONLY = {
    "GaussianState": lambda gamma: cv.GaussianState(np.zeros(gamma.shape[-1]), gamma),
    "check_symplectic": cv.check_symplectic,
    "euler_decompose": cv.euler_decompose,
    "classicality_test": cv.classicality_test,
    "gaussian_project": lambda gamma: cv.gaussian_project(gamma, [1], np.eye(2)),
    "homodyne_project": lambda gamma: cv.homodyne_project(gamma, [0]),
}


@pytest.mark.parametrize("entry", sorted(ONE_MATRIX_ONLY))
def test_one_matrix_functions_refuse_a_stack(entry):
    with pytest.raises(ValueError, match=r"must be square, got shape \(2, 4, 4\)"):
        ONE_MATRIX_ONLY[entry](np.array([np.eye(4), np.eye(4)]))
