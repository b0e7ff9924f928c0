"""The argument contract of the public surface: every matrix and vector
argument goes through the shared rules in ``cvsim.symplectic``, so NaN,
+-inf and a wrong shape each give a ValueError whose message starts with
the argument's name.  The registry below is the first part of the
contract suite; a public callable that is neither registered nor listed
as taking no matrix or vector fails ``test_every_public_callable_is_classified``."""

import dataclasses
import inspect
import itertools
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

import cvsim as cv
from cvsim import fock
from cvsim.symplectic import Gate
from test_public_api import _public_callables

ROOT = Path(__file__).resolve().parent.parent
NAN = float("nan")

_TMSV = cv.tmsv_state(0.5).gamma
_SIGNAL = cv.squeezed_signal(0.3).gamma
_SETUP = cv.TeleportSetup(np.eye(2), zeta=0.5)
_FOCK = fock.build_tmsv_fock(0.3, cutoff=8)


def _density(block=np.eye(2), mean=np.zeros(2), signs=np.ones(2)):
    return cv.OutcomeDensity(block, mean, signs)


# (callable, argument): (call with the argument, a valid value, the name its
# messages start with, whether a stack of values is accepted, None where
# any shape is valid).  The call must accept the valid value.
ARGUMENTS = {
    ("validate_covariance", "gamma"): (cv.validate_covariance, _TMSV, "covariance matrix", True),
    ("symplectic_eigenvalues", "gamma"): (cv.symplectic_eigenvalues, _TMSV, "covariance matrix", True),
    ("check_symplectic", "s"): (cv.check_symplectic, np.eye(4), "symplectic candidate", False),
    ("euler_decompose", "s"): (cv.euler_decompose, np.eye(4), "symplectic matrix", False),
    ("GaussianState", "gamma"): (lambda g: cv.GaussianState(np.zeros(4), g), _TMSV, "covariance matrix", False),
    ("GaussianState", "kappa"): (lambda k: cv.GaussianState(k, _TMSV), np.zeros(4), "mean vector", False),
    ("displace", "delta"): (lambda d: cv.displace(cv.vacuum_state(2), d), np.ones(4), "displacement", False),
    ("apply_symplectic", "s"): (lambda s: cv.apply_symplectic(cv.vacuum_state(2), s), np.eye(4), "symplectic matrix", False),
    ("classicality_test", "gamma"): (cv.classicality_test, _TMSV, "covariance matrix", False),
    ("characteristic_function", "lam"): (lambda lam: cv.characteristic_function(cv.vacuum_state(2), lam), np.ones(4), "lambda", True),
    ("thermal_state", "n_mean"): (cv.thermal_state, np.array([0.5, 1.0]), "mean thermal photon number", None),
    ("max_classical_squeezing", "n_mean"): (cv.max_classical_squeezing, np.array([0.5, 1.0]), "mean thermal photon number", None),
    ("GaussianChannel", "a"): (lambda a: cv.GaussianChannel(a, np.eye(2)), np.eye(2), "channel matrix A", False),
    ("GaussianChannel", "g"): (lambda g: cv.GaussianChannel(np.eye(2), g), np.eye(2), "noise matrix G", False),
    ("mp_inverse", "mat"): (cv.mp_inverse, np.diag([2.0, 1.0, 0.0]), "matrix", False),
    ("gaussian_project", "gamma"): (lambda g: cv.gaussian_project(g, [0], np.eye(2)), _TMSV, "covariance matrix", False),
    ("gaussian_project", "d_matrix"): (lambda d: cv.gaussian_project(_TMSV, [0], d), np.eye(2), "D", False),
    ("homodyne_project", "gamma"): (lambda g: cv.homodyne_project(g, [0]), _TMSV, "covariance matrix", False),
    ("homodyne_project", "kappa"): (lambda k: cv.homodyne_project(_TMSV, [0], k), np.zeros(4), "kappa", False),
    ("OutcomeDensity.pdf", "block"): (lambda b: _density(block=b).pdf(np.zeros(2)), np.eye(2), "block", False),
    ("OutcomeDensity.pdf", "mean"): (lambda m: _density(mean=m).pdf(np.zeros(2)), np.zeros(2), "mean", False),
    ("OutcomeDensity.pdf", "outcomes"): (lambda x: _density().pdf(x), np.zeros(2), "outcomes", True),
    ("OutcomeDensity.pdf", "signs"): (lambda s: _density(signs=s).pdf(np.zeros(2)), np.array([1.0, -1.0]), "signs", False),
    ("OutcomeDensity.sample", "block"): (lambda b: _density(block=b).sample(np.random.default_rng(0), 3), np.eye(2), "block", False),
    ("OutcomeDensity.sample", "mean"): (lambda m: _density(mean=m).sample(np.random.default_rng(0), 3), np.zeros(2), "mean", False),
    ("OutcomeDensity.sample", "signs"): (lambda s: _density(signs=s).sample(np.random.default_rng(0), 3), np.array([1.0, -1.0]), "signs", False),
    ("is_separable", "gamma"): (cv.is_separable, _TMSV, "covariance matrix", True),
    ("log_negativity", "gamma"): (cv.log_negativity, _TMSV, "covariance matrix", True),
    ("partial_transpose", "gamma"): (cv.partial_transpose, _TMSV, "covariance matrix", True),
    ("TeleportSetup", "gamma_in"): (lambda g: cv.TeleportSetup(g, 0.5), np.eye(2), "signal covariance", False),
    ("TeleportSetup", "kappa_in"): (lambda k: cv.TeleportSetup(np.eye(2), 0.5, kappa_in=k), np.zeros(2), "signal mean", False),
    ("fidelity", "gamma_in"): (lambda g: cv.fidelity(g, np.eye(2)), np.eye(2), "gamma_in", False),
    ("fidelity", "gamma_rec"): (lambda g: cv.fidelity(np.eye(2), g), np.eye(2), "gamma_rec", False),
    ("teleport_monte_carlo", "gain"): (lambda g: cv.teleport_monte_carlo(_SETUP, 10, 0, gain=g), np.eye(2), "gain", False),
    ("gaussian_fock", "gamma"): (lambda g: fock.gaussian_fock(g, cutoff=8), _SIGNAL, "covariance matrix", False),
    ("homodyne_povm_fock", "grid"): (lambda x: fock.homodyne_povm_fock(_FOCK, 0, grid=x), np.linspace(-1, 1, 5), "grid", False),
    ("partial_trace", "keep"): (lambda k: fock.partial_trace(_FOCK, k), np.array([1.0]), "keep", False),
    ("number_state_fock", "ns"): (lambda ns: fock.number_state_fock(ns, cutoff=3), np.array([0.0, 1.0]), "occupations", False),
}

# Public callables with no matrix or vector argument (the five closed forms
# take scalars or arrays of parameters, whose rules CLOSED_FORMS and
# BAD_ENTRY below test), and the result records and the container whose
# array fields are checked apart from the registry (OutcomeDensity, when built).
NO_ARRAY_ARGUMENT = {
    "FiberParams", "FockState.purity", "FockState.trace", "apply_channel", "apply_loss_fock", "beamsplitter",
    "build_symplectic", "build_tmsv_fock", "covariance_from_fock", "degraded_tmsv", "fiber_channel",
    "fiber_from_length", "fiber_separability_threshold", "homodyne_conditional_fock", "ideal_displacement_gain",
    "log_negativity_fock", "max_transmittable", "overlap_fock", "pure_squeezed_fidelity", "rotation",
    "rotation_matrix", "separability_length", "squeeze", "squeezed_signal", "squeezed_state", "state_overlap",
    "symplectic_form", "teleport", "tensor_channels", "tmsv_state", "transmitted_log_negativity", "vacuum_fock",
    "vacuum_state", "validate_channel",
}
RECORDS = {
    "ClassicalityVerdict", "ConditionalResult", "CovarianceReport", "FockState", "HomodyneFockResult", "HomodyneResult",
    "NegativityReport", "OutcomeDensity", "SeparabilityVerdict", "TeleportResult",
}


def _wrong_shape(value, stack):
    """A stack of two where one value is expected; where a stack is
    accepted, a stack of two whose items have one column too many."""
    if stack:
        value = np.pad(value, [(0, 0)] * (value.ndim - 1) + [(0, 1)])
    return np.stack([value, value])


def test_every_public_callable_is_classified():
    registered = {name for name, _ in ARGUMENTS}
    assert not registered & (NO_ARRAY_ARGUMENT | RECORDS)
    assert registered | NO_ARRAY_ARGUMENT | RECORDS == set(_public_callables())


@pytest.mark.parametrize("entry", sorted(ARGUMENTS), ids="/".join)
def test_valid_value_is_accepted(entry):
    call, valid, _, _ = ARGUMENTS[entry]
    call(valid)


@pytest.mark.parametrize("entry", sorted(ARGUMENTS), ids="/".join)
@pytest.mark.parametrize("bad", [NAN, np.inf, -np.inf])
def test_non_finite_entry_is_refused_by_name(entry, bad):
    call, valid, name, _ = ARGUMENTS[entry]
    value = valid.copy()
    value[(0,) * value.ndim] = bad
    with pytest.raises(ValueError, match=rf"^{re.escape(name)} (has|must) "):
        call(value)


@pytest.mark.parametrize("entry", sorted(k for k, v in ARGUMENTS.items() if v[3] is not None), ids="/".join)
def test_wrong_shape_is_refused_by_name(entry):
    call, valid, name, stack = ARGUMENTS[entry]
    with pytest.raises(ValueError, match=rf"^{re.escape(name)} must "):
        call(_wrong_shape(valid, stack))


def test_only_symplectic_tests_finiteness():
    # cli.py is exempt: its grid rule raises SpecError, a malformed request
    found = [
        f"{path.name}:{number}: {line.strip()}"
        for path in sorted((ROOT / "src" / "cvsim").glob("*.py"))
        if path.name not in ("symplectic.py", "cli.py")
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if "np.isfinite" in line
    ]
    assert found == []


class TestDefectsRefused:
    """Inputs that returned a wrong or NaN result, or raised the wrong error."""

    def test_mp_inverse_of_a_nan_matrix(self):
        # returned the zero matrix
        with pytest.raises(ValueError, match="^matrix has non-finite entries$"):
            cv.mp_inverse([[NAN, 0.0], [0.0, 1.0]])

    def test_outcome_density_of_a_nan_block(self):
        # pdf returned the vacuum density 0.5642, sample NaN records; now refused when built
        with pytest.raises(ValueError, match="^block has non-finite entries$"):
            cv.OutcomeDensity(np.array([[NAN]]), np.zeros(1), np.ones(1))

    def test_outcome_density_signs(self):
        # a NaN sign gave a NaN pdf, 0.5 was accepted and scaled the records; now refused when built
        with pytest.raises(ValueError, match="^signs has non-finite entries$"):
            cv.OutcomeDensity(np.eye(1), np.zeros(1), np.array([NAN]))
        with pytest.raises(ValueError, match=r"^signs must be \+1 or -1, got \[1\.  0\.5\]$"):
            cv.OutcomeDensity(np.eye(2), np.zeros(2), np.array([1.0, 0.5]))
        with pytest.raises(ValueError, match="^signs must be a vector of length 2"):
            cv.OutcomeDensity(np.eye(2), np.zeros(2), np.ones(3))

    def test_sample_of_an_asymmetric_block(self):
        # sample drew from the symmetrised block that pdf refuses; now neither is reached
        with pytest.raises(ValueError, match="^block must be symmetric$"):
            cv.OutcomeDensity(np.array([[1.0, 0.3], [0.0, 1.0]]), np.zeros(2), np.ones(2))

    def test_nan_channel(self):
        with pytest.raises(ValueError, match="^noise matrix G has non-finite entries$"):
            cv.GaussianChannel(np.eye(2), [[NAN, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="^channel matrix A has non-finite entries$"):
            cv.GaussianChannel(np.full((2, 2), np.inf), np.eye(2))

    @pytest.mark.parametrize("function", [cv.log_negativity, cv.is_separable, cv.partial_transpose])
    def test_asymmetric_two_mode_matrix(self, function):
        # a physical symmetric part with an antisymmetric C3 part: log_negativity
        # raised RuntimeError, is_separable read det C3 off the upper triangle
        gamma = _TMSV + 0.2 * np.eye(4)
        gamma[0, 2] += 0.1
        gamma[2, 0] -= 0.1
        with pytest.raises(ValueError, match="^covariance matrix must be symmetric$"):
            function(gamma)
        with pytest.raises(ValueError, match=r"^covariance matrix must be symmetric \(stack index 1\)$"):
            function(np.stack([_TMSV, gamma]))

    @pytest.mark.parametrize("build, message", [
        pytest.param(lambda g: fock.gaussian_fock(g), "covariance matrix", id="gaussian_fock"),
        pytest.param(lambda g: cv.TeleportSetup(g, 0.5), "signal covariance", id="TeleportSetup"),
        pytest.param(lambda g: cv.fidelity(g, np.eye(2)), "gamma_in", id="fidelity-gamma_in"),
        pytest.param(lambda g: cv.fidelity(np.eye(2), g), "gamma_rec", id="fidelity-gamma_rec"),
    ])
    def test_asymmetric_one_mode_matrix(self, build, message):
        # gaussian_fock's determinant read the antisymmetric part and its eigen-solve did not,
        # TeleportSetup's teleport refused a three-mode matrix the caller never built, and
        # fidelity against the vacuum read 0.9701 where the symmetric part gives 1.0
        with pytest.raises(ValueError, match=f"^{message} must be symmetric$"):
            build([[1.0, 0.5], [-0.5, 1.0]])

    def test_symmetry_tolerance_is_relative(self):
        scale = 1e3
        gamma = scale * np.eye(2)
        gamma[0, 1] = 0.9e-10 * scale  # inside 1e-10 * max(1, max|m|)
        cv.GaussianChannel(np.eye(2), gamma)
        gamma[0, 1] = 2e-10 * scale  # inside 1e-9 * scale, which the channel once allowed
        with pytest.raises(ValueError, match="^noise matrix G must be symmetric$"):
            cv.GaussianChannel(np.eye(2), gamma)

    @pytest.mark.parametrize("phase", [NAN, np.inf, -np.inf])
    def test_fiber_phase(self, phase):
        # NaN gave a NaN degraded_tmsv, inf an "invalid value in cos" warning
        with pytest.raises(ValueError, match="^phase must be finite, got"):
            cv.FiberParams(t_mag=0.5, phase=phase)

    @pytest.mark.parametrize("build", [
        pytest.param(lambda a: cv.FiberParams(a), id="t_mag"),
        pytest.param(lambda a: cv.FiberParams(0.5, phase=a), id="phase"),
        pytest.param(lambda a: cv.FiberParams(0.5, r_mag=a), id="r_mag"),
        pytest.param(lambda a: cv.FiberParams(0.5, n_th=a), id="n_th"),
        pytest.param(lambda a: cv.fiber_from_length(a, 1.0), id="fiber_from_length"),
    ])
    def test_fiber_of_arrays(self, build):
        # an array n_th was accepted and noise then raised TypeError; the fiber rules take arrays for the closed forms
        with pytest.raises(ValueError, match="^fiber parameters must be real numbers, not arrays$"):
            build(np.array([0.5, 0.1]))

    def test_rotation_angle(self):
        with pytest.raises(ValueError, match="^theta must be finite, got nan$"):
            cv.build_symplectic([cv.rotation(0, NAN)], 1)
        with pytest.raises(ValueError, match="^theta must be finite, got inf$"):
            cv.rotation_matrix(np.inf)
        with pytest.raises(ValueError, match="^theta must be finite"):
            cv.squeezed_state(0.3, NAN)

    def test_squeeze_gate_range(self):
        # squeeze(0, 800) overflowed in exp
        limit = np.log(np.finfo(float).max)
        for zeta in (800.0, -800.0, np.nextafter(limit, np.inf), np.inf):
            with pytest.raises(ValueError, match="overflows"):
                cv.squeeze(0, zeta)
        with pytest.raises(ValueError, match="^zeta must be finite, got nan$"):
            cv.squeeze(0, NAN)
        for zeta in (limit, -limit, 0.3):
            assert np.array_equal(cv.squeeze(0, zeta).block, np.diag([np.exp(zeta), np.exp(-zeta)]))

    def test_fock_phi_and_grid(self):
        # NaN densities, and a "zero density" message for a NaN angle
        with pytest.raises(ValueError, match="^grid has non-finite entries$"):
            fock.homodyne_povm_fock(_FOCK, 0, grid=[NAN, 0.0])
        with pytest.raises(ValueError, match="^phi must be finite, got nan$"):
            fock.homodyne_povm_fock(_FOCK, 0, phi=NAN)
        with pytest.raises(ValueError, match="^phi must be finite, got nan$"):
            fock.homodyne_conditional_fock(_FOCK, 0, 0.0, phi=NAN)
        # numpy raised "could not broadcast input array from shape (2,2) into shape (4,)"
        with pytest.raises(ValueError, match=r"^grid must be a vector, got shape \(2, 2\)$"):
            fock.homodyne_povm_fock(fock.vacuum_fock(1, 3), 0, 0.0, np.zeros((2, 2)))

    def test_partial_trace_of_one_mode_index(self):
        # raised "TypeError: 'int' object is not iterable"
        with pytest.raises(ValueError, match=r"^keep must be a vector, got shape \(\)$"):
            fock.partial_trace(_FOCK, 0)

    def test_number_state_of_a_stack(self):
        # built a two-mode "state" of trace 2
        with pytest.raises(ValueError, match=r"^occupations must be a vector, got shape \(2, 2\)$"):
            fock.number_state_fock([[0, 1], [1, 0]], cutoff=3)

    def test_max_classical_squeezing_of_a_sequence(self):
        # raised TypeError
        got = cv.max_classical_squeezing([0.1, 0.2])
        assert isinstance(got, np.ndarray)
        assert np.array_equal(got, [cv.max_classical_squeezing(0.1), cv.max_classical_squeezing(0.2)])
        assert cv.max_classical_squeezing(1.0) == 0.5 * np.log(3.0)


# Each entry point that takes a mode count, called with one; what it builds.
# 1.5 and 2.0 raised numpy's or Python's TypeError, and build_symplectic
# returned a 0 x 0 matrix for 0 modes.
MODE_COUNTS = {
    "FockState": lambda n: fock.FockState(n, 1, np.eye(4).reshape(2, 2, 2, 2) / 4.0).tensor,
    "vacuum_fock": lambda n: fock.vacuum_fock(n, 2).tensor,
    "vacuum_state": lambda n: cv.vacuum_state(n).gamma,
    "thermal_state": lambda n: cv.thermal_state(0.5, n_modes=n).gamma,
    "symplectic_form": cv.symplectic_form,
    "build_symplectic": lambda n: cv.build_symplectic([cv.beamsplitter(0, 1)], n),
}


@pytest.mark.parametrize("entry", sorted(MODE_COUNTS))
class TestModeCount:
    def test_fractional_count_is_refused(self, entry):
        with pytest.raises(ValueError, match="^mode count must be an integer, got 1.5$"):
            MODE_COUNTS[entry](1.5)

    def test_zero_is_refused(self, entry):
        with pytest.raises(ValueError, match="^mode count must be positive, got 0$"):
            MODE_COUNTS[entry](0)

    def test_integral_float_builds_what_the_int_builds(self, entry):
        assert np.array_equal(MODE_COUNTS[entry](2.0), MODE_COUNTS[entry](2))

    def test_bool_is_refused(self, entry):
        # the integer rule read True as 1 mode, where the sampling rule refuses seed=True
        with pytest.raises(ValueError, match="^mode count must be an integer, got True$"):
            MODE_COUNTS[entry](True)


# Counts and indices that are not real numbers; float() reads each string,
# and the comparison after it raised TypeError.
NON_NUMERIC = {
    "vacuum_state": (lambda: cv.vacuum_state("2"), "^mode count must be an integer, got '2'$"),
    "thermal_state": (lambda: cv.thermal_state(0.1, "2"), "^mode count must be an integer, got '2'$"),
    "vacuum_fock": (lambda: fock.vacuum_fock(1, "3"), "^cutoff must be an integer >= 0, got '3'$"),
    "build_tmsv_fock": (lambda: fock.build_tmsv_fock(0.3, "5"), "^cutoff must be an integer >= 0, got '5'$"),
    "build_symplectic": (
        lambda: cv.build_symplectic([cv.rotation("0", 0.1)], 1), r"^mode index must be an integer in \[0, 1\), got '0'$"
    ),
    "homodyne_project": (
        lambda: cv.homodyne_project(_TMSV, ["0"]), r"^measured indices must be integers in \[0, 4\), got \['0'\]$"
    ),
    # sorting the indices compared '0' with 1 before the integer rule saw them
    "homodyne_project, mixed": (
        lambda: cv.homodyne_project(_TMSV, ["0", 1]),
        r"^measured indices must be integers in \[0, 4\), got \['0', 1\]$",
    ),
    "gaussian_project, mixed": (
        lambda: cv.gaussian_project(_TMSV, ["0", 1], np.eye(4)),
        r"^measured indices must be integers in \[0, 2\), got \['0', 1\]$",
    ),
    # a bool is no count or index either; the integer rule read True as 1
    "build_symplectic, True": (
        lambda: cv.build_symplectic([cv.rotation(True, 0.1)], 2), r"^mode index must be an integer in \[0, 2\), got True$"
    ),
    "homodyne_project, True": (
        lambda: cv.homodyne_project(_TMSV, [True]), r"^measured indices must be integers in \[0, 4\), got \[True\]$"
    ),
    "vacuum_fock, True": (lambda: fock.vacuum_fock(1, True), "^cutoff must be an integer >= 0, got True$"),
}


@pytest.mark.parametrize("entry", sorted(NON_NUMERIC))
def test_non_numeric_count_is_refused(entry):
    call, message = NON_NUMERIC[entry]
    with pytest.raises(ValueError, match=message):
        call()


# Scalar arguments that are not real numbers.  Each call raised Python's
# TypeError from a comparison or from arithmetic, except the three occupations
# (FiberParams n_th, separability_length, thermal_state), which read the
# string as a float; separability_length then failed in its arithmetic.
NON_REAL = {
    "tmsv_state": (lambda: cv.tmsv_state("0.3"), "^zeta must be a real number, got '0.3'$"),
    "squeezed_signal": (lambda: cv.squeezed_signal("1"), "^eta must be a real number, got '1'$"),
    "rotation_matrix": (lambda: cv.rotation_matrix("1"), "^theta must be a real number, got '1'$"),
    "FiberParams t_mag": (lambda: cv.FiberParams("0.5"), r"^transmission magnitude must lie in \[0, 1\]$"),
    "FiberParams phase": (lambda: cv.FiberParams(1.0, phase="0.1"), "^phase must be a real number, got '0.1'$"),
    "FiberParams n_th": (
        lambda: cv.FiberParams(0.5, n_th="0.1"), "^mean thermal photon number must be a real number, got '0.1'$"
    ),
    "thermal_state": (
        lambda: cv.thermal_state("0.5"), "^mean thermal photon number must be a real number, got '0.5'$"
    ),
    "TeleportSetup": (lambda: cv.TeleportSetup(np.eye(2), "0.5"), "^zeta must be a real number, got '0.5'$"),
    "transmitted_log_negativity": (
        lambda: cv.transmitted_log_negativity("1", 0.5), "^squeezing zeta must be non-negative, got '1'$"
    ),
    "separability_length": (
        lambda: cv.separability_length(1.0, "0.1", 1.0), "^mean thermal photon number must be a real number, got '0.1'$"
    ),
    "max_transmittable": (lambda: cv.max_transmittable("1", 1.0), "^fiber length must be non-negative, got '1'$"),
    "pure_squeezed_fidelity": (
        lambda: cv.pure_squeezed_fidelity("1", 1.0), "^eta and zeta must be real numbers, got eta = '1', zeta = 1.0$"
    ),
    "build_tmsv_fock": (lambda: fock.build_tmsv_fock("0.3", 5), "^squeezing must be a real number, got '0.3'$"),
    "apply_loss_fock": (lambda: fock.apply_loss_fock(_FOCK, 0, "0.5"), r"^transmittance must lie in \[0, 1\]$"),
    "homodyne_povm_fock": (lambda: fock.homodyne_povm_fock(_FOCK, 0, "0.5"), "^phi must be a real number, got '0.5'$"),
    "homodyne_conditional_fock": (
        lambda: fock.homodyne_conditional_fock(_FOCK, 0, "0.1"), "^homodyne record must be a real number, got '0.1'$"
    ),
    "FockState trunc_weight": (
        lambda: fock.FockState(1, 1, np.eye(2) / 2, "0.1"), r"^trunc_weight must lie in \[0, 1\], got '0.1'$"
    ),
}


@pytest.mark.parametrize("entry", sorted(NON_REAL))
def test_string_is_not_a_real_number(entry):
    call, message = NON_REAL[entry]
    with pytest.raises(ValueError, match=message):
        call()


# Arrays whose entries are not real numbers.  The matrix, vector and
# occupation rules converted with dtype=float: numeric strings were parsed,
# a complex array lost its imaginary part (so the first call reported
# physical=True), and a list with one complex entry raised TypeError.
NON_REAL_ARRAYS = {
    "validate_covariance, complex": (
        lambda: cv.validate_covariance(np.eye(2) * (1 + 1j)), "covariance matrix", "complex128"
    ),
    "validate_covariance, one complex entry": (
        lambda: cv.validate_covariance([[1.0, 0.0], [0.0, 1j]]), "covariance matrix", "complex128"
    ),
    "is_separable": (lambda: cv.is_separable(np.eye(4).astype(str)), "covariance matrix", "<U32"),
    "GaussianState": (lambda: cv.GaussianState(["0", "0"], [["1", "0"], ["0", "1"]]), "covariance matrix", "<U1"),
    "thermal_state": (lambda: cv.thermal_state(["0.5", 1.0]), "mean thermal photon number", "<U32"),
    "number_state_fock": (lambda: fock.number_state_fock(["1", "2"]), "occupations", "<U1"),
    # FockState parsed the strings and kept the object array, each a state of trace 1.0;
    # a complex tensor stays allowed
    "FockState, strings": (lambda: fock.FockState(1, 1, [["1", "0"], ["0", "0"]]), "tensor", "<U1"),
    "FockState, objects": (lambda: fock.FockState(1, 1, np.eye(2, dtype=object) / 2), "tensor", "object"),
    "transmitted_log_negativity": (lambda: cv.transmitted_log_negativity(["0.1"], 0.5), "squeezing zeta", "<U3"),
    "max_transmittable": (lambda: cv.max_transmittable(1.0, ["1"]), "absorption length", "<U1"),
    "fiber_separability_threshold": (
        lambda: cv.fiber_separability_threshold(1.0, 0.5, np.array(["0.1"])), "reflection magnitude", "<U3"
    ),
    "pure_squeezed_fidelity": (lambda: cv.pure_squeezed_fidelity(0.5, [0.1, 1j]), "zeta", "complex128"),
}


@pytest.mark.parametrize("entry", sorted(NON_REAL_ARRAYS))
def test_array_of_non_real_entries_is_refused(entry):
    call, name, dtype = NON_REAL_ARRAYS[entry]
    with pytest.raises(ValueError, match=rf"^{name} must hold real numbers, got dtype {dtype}$"):
        call()


# Scalar rules given numpy real scalars and 0-d float arrays: each call must
# return what it returns for the Python float.
REAL_SCALARS = {
    "tmsv_state": lambda x: cv.tmsv_state(x).gamma,
    "rotation_matrix": cv.rotation_matrix,
    "squeeze": lambda x: cv.squeeze(0, x).block,
    "squeezed_state": lambda x: cv.squeezed_state(x, x).gamma,
    "FiberParams": lambda x: cv.fiber_channel(cv.FiberParams(x, phase=x, r_mag=x, n_th=x)).a,
    "FiberParams noise": lambda x: cv.FiberParams(x, r_mag=x, n_th=x).noise,
    "fiber_from_length": lambda x: cv.fiber_from_length(x, 2.0 * x, n_th=x).t_mag,
    "thermal_state": lambda x: cv.thermal_state(x).gamma,
    "TeleportSetup": lambda x: cv.teleport(cv.TeleportSetup(np.eye(2), x)).fidelity_zero_mean,
    "separability_length": lambda x: cv.separability_length(x, x, x),
    "transmitted_log_negativity": lambda x: cv.transmitted_log_negativity(x, x),
    "fiber_separability_threshold": lambda x: cv.fiber_separability_threshold(x, x, x),
    "max_transmittable": lambda x: cv.max_transmittable(x, x),
    "pure_squeezed_fidelity": lambda x: cv.pure_squeezed_fidelity(x, x),
    "build_tmsv_fock": lambda x: fock.build_tmsv_fock(x, 20).tensor,
    "apply_loss_fock": lambda x: fock.apply_loss_fock(_FOCK, 0, x).tensor,
    "homodyne_conditional_fock": lambda x: fock.homodyne_conditional_fock(_FOCK, 0, x, phi=x).tensor,
}


@pytest.mark.parametrize("entry", sorted(REAL_SCALARS))
@pytest.mark.parametrize("wrap", [np.float64, np.array], ids=["float64", "0-d array"])
def test_numpy_real_scalars_are_accepted(entry, wrap):
    call = REAL_SCALARS[entry]
    assert np.array_equal(call(wrap(0.5)), call(0.5))


# The real scalar types a caller may pass.  Each enters as the float64 the library computes with.
SCALAR_TYPES = {
    "float16": np.float16,
    "float32": np.float32,
    "longdouble": lambda v: np.nextafter(np.longdouble(v), np.longdouble(np.inf)),  # float() rounds it back
    "0-d array": lambda v: np.array(v, dtype=np.float32),
    "int": int,
    "bool": bool,
}


# A scalar of lower or higher precision gives the bits of its float: rotation_matrix(np.float16(0.3))
# was a float16 matrix, squeeze(0, True) held the float16 e = 2.71875, and FiberParams computed its
# noise in the precision of its fields.
@pytest.mark.parametrize("entry", sorted(REAL_SCALARS))
@pytest.mark.parametrize("kind", ["float16", "float32", "longdouble", "0-d array"])
def test_a_scalar_of_any_real_type_gives_the_bits_of_its_float(entry, kind):
    x = SCALAR_TYPES[kind](0.3)
    got, want = (np.asarray(REAL_SCALARS[entry](v)) for v in (x, float(x)))
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_squeezing_by_true_is_squeezing_by_one():
    assert cv.squeeze(0, True).block.tobytes() == cv.squeeze(0, 1.0).block.tobytes()
    assert cv.squeezed_state(True, True).gamma.tobytes() == cv.squeezed_state(1.0, 1.0).gamma.tobytes()


def test_records_keep_their_scalars_as_floats():
    x = np.float32(0.3)
    fiber = cv.FiberParams(x, phase=x, r_mag=x, n_th=x)
    kept = [fiber.t_mag, fiber.phase, fiber.r_mag, fiber.n_th, fiber.noise, cv.TeleportSetup(np.eye(2), x).zeta,
            cv.fiber_from_length(x, 1.0).t_mag, fock.FockState(1, 1, np.eye(2) / 2.0, trunc_weight=x).trunc_weight]
    assert [type(value) for value in kept] == [float] * len(kept)
    assert kept[:4] == [float(x)] * 4


def test_a_float32_phase_teleports_as_its_float():
    # degraded_tmsv rotated by each float32 phase, the closed form by their float32 sum: the two
    # receiver covariances disagreed and teleport raised RuntimeError
    phase = np.float32(0.3)
    got, want = (cv.teleport(cv.TeleportSetup(np.eye(2), 0.5, f, f))
                 for f in (cv.FiberParams(0.9, phase=p) for p in (phase, float(phase))))
    assert got.gamma_rec.tobytes() == want.gamma_rec.tobytes() and got.fidelity_zero_mean == want.fidelity_zero_mean


# The paper's five closed forms, each called on its arguments, with a seeded
# draw of n points and the edges of its branches.  Each takes scalars, giving
# a float, and arrays, which broadcast, through one numpy path.
def _unit_to_one(rng, n):
    """n values in [0, 1]: uniform, and 1 - 10^U(-16, -1) near 1."""
    return np.where(rng.uniform(size=n) < 0.5, rng.uniform(size=n), 1.0 - 10.0 ** rng.uniform(-16.0, -1.0, n))


def _squeezings(rng, n):
    """n values of zeta >= 0: uniform on [0, 3], and 10^U(-12, 3)."""
    return np.where(rng.uniform(size=n) < 0.5, rng.uniform(0.0, 3.0, n), 10.0 ** rng.uniform(-12.0, 3.0, n))


def _threshold_points(rng, n):
    t = _unit_to_one(rng, n)
    r = np.sqrt(1.0 - t * t) * rng.uniform(size=n) ** rng.choice([1.0, 0.0], n)  # |R|^2 = 1 - |T|^2 in half of them
    return _squeezings(rng, n), t, r


def _either_side(value, below):
    """The two adjacent floats near ``value`` between which ``below`` turns
    from True to False: the two sides of a branch switch."""
    while not below(value):
        value = np.nextafter(value, -np.inf)
    while below(np.nextafter(value, np.inf)):
        value = np.nextafter(value, np.inf)
    return [value, np.nextafter(value, np.inf)]


# the near-saturation switch, at loss 0.99: 1 - e^(-2 zeta) at |T| = 1, |T|^2 at zeta = inf, e^(-2 l / l_abs)
_SATURATION_ZETAS = _either_side(-0.5 * np.log(0.01), lambda z: -np.expm1(-2.0 * z) <= 0.99)
_SATURATION_T = _either_side(np.sqrt(0.99), lambda t: t * t <= 0.99)
_SATURATION_LENGTHS = _either_side(-0.5 * np.log(0.99), lambda l: np.exp(-2.0 * l) > 0.99)
CLOSED_FORMS = {
    "transmitted_log_negativity": (
        cv.transmitted_log_negativity,
        lambda rng, n: (_squeezings(rng, n), _unit_to_one(rng, n)),
        [(0.0, 0.5), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (372.0, 1.0), (400.0, 1.0), (1e3, 1.0), (np.inf, 1.0),
         (np.inf, 0.5)] + [(z, 1.0) for z in _SATURATION_ZETAS] + [(np.inf, t) for t in _SATURATION_T],
    ),
    "max_transmittable": (
        cv.max_transmittable,
        lambda rng, n: (np.where(rng.uniform(size=n) < 0.5, rng.uniform(0.0, 5.0, n), 10.0 ** rng.uniform(-20.0, 2.0, n)),
                        rng.uniform(0.1, 10.0, n)),
        [(0.0, 1.0), (0.0, 2.0), (1e-300, 1.0), (np.inf, 1.0), (1.0, np.inf)] + [(l, 1.0) for l in _SATURATION_LENGTHS],
    ),
    "fiber_separability_threshold": (
        cv.fiber_separability_threshold,
        _threshold_points,
        [(0.0, 0.5, 0.0), (0.0, 0.6, 0.8), (1.0, 0.0, 0.0), (1.0, 1.0, 0.0), (1.0, 0.0, 1.0), (1.0, 0.6, 0.8),
         (np.inf, 0.5, 0.1)],
    ),
    "separability_length": (
        cv.separability_length,
        lambda rng, n: (_squeezings(rng, n), 10.0 ** rng.uniform(-9.0, 2.0, n), rng.uniform(0.1, 10.0, n)),
        [(0.0, 0.5, 1.0), (0.5, 0.0, 1.0), (0.0, 0.0, 1.0), (np.inf, 0.5, 2.0)],
    ),
    "pure_squeezed_fidelity": (
        cv.pure_squeezed_fidelity,
        lambda rng, n: (rng.uniform(-3.0, 3.0, n) * 10.0 ** rng.uniform(0.0, 2.0, n), _squeezings(rng, n) / 3.0),
        [(0.0, 0.0), (0.5, 0.0), (0.0, 2.0), (709.0, 354.0), (-709.0, 0.0)],
    ),
}


@pytest.mark.parametrize("name", sorted(CLOSED_FORMS))
def test_closed_form_point_alone_and_inside_an_array_agree_bitwise(name):
    function, draw, edges = CLOSED_FORMS[name]
    points = np.column_stack(draw(np.random.default_rng(36), 10_000))
    points = np.concatenate([points, np.array(edges, dtype=float)])
    batch = function(*points.T)
    assert isinstance(batch, np.ndarray) and batch.shape == (len(points),)
    alone = [function(*map(float, point)) for point in points]
    assert all(type(value) is float for value in alone)
    assert np.array_equal(np.array(alone).view(np.int64), batch.view(np.int64))


def _accepts(function, point):
    """Whether the closed form takes the point as float64 values."""
    try:
        function(*map(float, point))
    except ValueError:
        return False
    return True


# A point of any real type gives the bits it gives as an entry of an array of that type, which the
# rules cast to float64.  A float32 or float16 point alone was computed in its own precision, and a
# longdouble just above 1 was refused as |T| alone.
@pytest.mark.parametrize("kind", sorted(SCALAR_TYPES))
@pytest.mark.parametrize("name", sorted(CLOSED_FORMS))
def test_closed_form_point_of_any_real_type_alone_and_inside_an_array_agree_bitwise(name, kind):
    function, draw, edges = CLOSED_FORMS[name]
    cast, arity = SCALAR_TYPES[kind], len(edges[0])
    if kind in ("int", "bool"):
        points = itertools.product(*[(False, True) if kind == "bool" else range(4)] * arity)
    else:
        points = np.concatenate([np.column_stack(draw(np.random.default_rng(38), 300)), np.array(edges, dtype=float)])
    points = [typed for typed in ([cast(v) for v in point] for point in points) if _accepts(function, typed)]
    assert len(points) >= 2
    batch = function(*[np.array(column) for column in zip(*points)])
    assert batch.dtype == float and batch.shape == (len(points),)
    alone = [function(*point) for point in points]
    assert all(type(value) is float for value in alone)
    assert np.array_equal(np.array(alone).view(np.int64), batch.view(np.int64))


def test_closed_forms_broadcast():
    zeta, t_mag = np.array([[0.3], [1.0]]), np.array([0.2, 0.5, 1.0])
    got = cv.transmitted_log_negativity(zeta, t_mag, base="2")
    assert got.shape == (2, 3)
    assert got[1, 2] == cv.transmitted_log_negativity(1.0, 1.0, base="2") == 2.0 / np.log(2.0)
    assert cv.pure_squeezed_fidelity(np.zeros(4), 0.5).tolist() == [1.0] * 4


# One bad entry of an array: the rule's message for that entry, then its index.
BAD_ENTRY = {
    "transmitted_log_negativity, zeta": (
        lambda: cv.transmitted_log_negativity([0.1, -1.0, np.nan], 0.5),
        r"squeezing zeta must be non-negative, got -1.0 \(stack index 1\)",
    ),
    "transmitted_log_negativity, t_mag": (
        lambda: cv.transmitted_log_negativity(0.1, [[0.5, 0.2], [1.5, 0.3]]),
        r"transmission magnitude must lie in \[0, 1\] \(stack index 1, 0\)",
    ),
    "max_transmittable, length": (
        lambda: cv.max_transmittable([0.0, np.nan], 1.0), r"fiber length must be non-negative, got nan \(stack index 1\)"
    ),
    "max_transmittable, l_abs": (
        lambda: cv.max_transmittable(1.0, [1.0, 2.0, 0.0]), r"absorption length must be positive, got 0.0 \(stack index 2\)"
    ),
    # inf / inf has no value; the math form returned inf
    "max_transmittable, both infinite": (
        lambda: cv.max_transmittable([1.0, np.inf], np.inf), r"fiber length and absorption length are both infinite "
        r"\(stack index 1\)"
    ),
    "fiber_separability_threshold, r_mag": (
        lambda: cv.fiber_separability_threshold(1.0, 0.8, [0.1, 0.7]),
        r"energy conservation requires \|T\|\^2 \+ \|R\|\^2 <= 1 \(stack index 1\)",
    ),
    "separability_length, n_th": (
        lambda: cv.separability_length([0.5, 0.6], [0.1, -0.1], 1.0),
        r"mean thermal photon number must be non-negative \(stack index 1\)",
    ),
    "pure_squeezed_fidelity": (
        lambda: cv.pure_squeezed_fidelity([0.5, 710.0], [0.0, 355.0]),
        r"sinh\(eta\) or cosh\(eta\) \+ cosh\(2 zeta\) overflows or is NaN at eta = 710.0, zeta = 355.0 "
        r"\(stack index 1\)",
    ),
}


@pytest.mark.parametrize("entry", sorted(BAD_ENTRY))
def test_closed_form_names_the_bad_entry_of_an_array(entry):
    call, message = BAD_ENTRY[entry]
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


# A Gate checks its block when built.  A list block raised AttributeError in
# build_symplectic, and a flat block of the right size was reshaped silently
# into [[0, 1], [2, 3]].
@pytest.mark.parametrize("block, message", [
    pytest.param([[1.0, 2.0], [3.0, 4.0]], None, id="list block"),
    pytest.param(np.arange(4.0), r"^gate block must be square, got shape \(4,\)$", id="flat block"),
    pytest.param(np.eye(4), r"^gate block must be 2x2, got shape \(4, 4\)$", id="block of another size"),
    pytest.param([[NAN, 0.0], [0.0, 1.0]], "^gate block has non-finite entries$", id="NaN block"),
])
def test_gate_checks_its_block_when_built(block, message):
    if message is not None:
        with pytest.raises(ValueError, match=message):
            Gate((0,), block)
        return
    block = [list(row) for row in block]  # the caller's own list, written below
    gate = Gate((0,), block)
    assert not gate.block.flags.writeable
    block[0][0] = 5.0
    expected = cv.build_symplectic([Gate((0,), np.arange(1.0, 5.0).reshape(2, 2))], 2)
    assert np.array_equal(cv.build_symplectic([gate], 2), expected)


def test_fock_state_keeps_an_int_mode_count():
    assert type(fock.FockState(2.0, 1, np.eye(4).reshape(2, 2, 2, 2) / 4.0).modes) is int


class TestEulerNearIdentity:
    def test_reproducer_factors_are_symplectic(self):
        # O1 and O2 failed check_symplectic by 3.8e-9 and 5.4e-9
        gates = [cv.squeeze(0, 1e-8), cv.rotation(0, 0.3), cv.beamsplitter(0, 1), cv.squeeze(1, 1e-8), cv.rotation(1, 0.3)]
        s = cv.build_symplectic(gates, 2)
        o1, d, o2 = cv.euler_decompose(s)
        assert cv.check_symplectic(o1) and cv.check_symplectic(o2)
        assert np.max(np.abs(o1 @ d @ o2 - s)) <= 1e-9

    def test_small_squeezings_pass_the_cross_check(self, rng):
        # with the earlier pairing, about 3% of such products gave factors that
        # fail check_symplectic and 0.3% a RuntimeError
        for _ in range(300):
            n_modes = int(rng.integers(2, 4))
            gates = []
            for _ in range(6):
                mode = int(rng.integers(n_modes))
                gates += [
                    cv.squeeze(mode, rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(-12, 0)),
                    cv.rotation(mode, rng.uniform(0.0, 2.0 * np.pi)),
                    cv.beamsplitter(mode, (mode + 1) % n_modes),
                ]
            s = cv.build_symplectic(gates, n_modes)
            o1, d, o2 = cv.euler_decompose(s)
            assert cv.check_symplectic(o1) and cv.check_symplectic(o2)
            assert np.max(np.abs(o1 @ d @ o2 - s)) <= 1e-9 * max(1.0, np.max(np.abs(s)))
            ks = np.diagonal(d)[::2]
            assert np.all(ks >= 1.0) and np.all(np.diff(ks) <= 0.0)


# The public frozen records with array fields.  Each record built from a
# caller's arrays is listed with (those arrays, fresh per call; the record
# built from them; everything it returns, read): writing the caller's arrays
# after the build must change nothing read.  Input records keep read-only
# copies; results are built by the library from arrays it made.
_FIBER = cv.FiberParams(0.9, phase=0.4, r_mag=0.2, n_th=0.3)
OWN_COPIES = {
    "GaussianState": (
        lambda: {"kappa": np.array([0.3, -0.2, 0.1, 0.0]), "gamma": _TMSV.copy()},
        lambda a: cv.GaussianState(a["kappa"], a["gamma"]),
        lambda s: [s.kappa, s.gamma, cv.characteristic_function(s, np.ones(4))],
    ),
    "GaussianChannel": (
        lambda: {"a": 0.8 * np.eye(2), "g": 0.5 * np.eye(2)},
        lambda a: cv.GaussianChannel(a["a"], a["g"]),
        lambda ch: [ch.a, ch.g, cv.apply_channel(cv.thermal_state(0.2), ch).gamma],
    ),
    "OutcomeDensity": (
        lambda: {"block": np.array([[2.0, 0.3], [0.3, 1.5]]), "mean": np.array([0.2, -0.1]), "signs": np.array([1.0, -1.0])},
        lambda a: cv.OutcomeDensity(a["block"], a["mean"], a["signs"]),
        lambda d: [d.block, d.mean, d.signs, d.pdf(np.array([0.4, 0.1])), d.sample(np.random.default_rng(0), 5)],
    ),
    # an alias let 0.5 * identity, written after the build, through to a fidelity of 1.99999999989
    "TeleportSetup": (
        lambda: {"gamma_in": np.eye(2), "kappa_in": np.array([0.4, -0.2])},
        lambda a: cv.TeleportSetup(a["gamma_in"], 12.0, _FIBER, _FIBER, kappa_in=a["kappa_in"]),
        lambda s: [s.gamma_in, s.kappa_in, cv.teleport(s).fidelity_zero_mean, cv.teleport_monte_carlo(s, 10, seed=0)],
    ),
}
RESULTS = {
    "ConditionalResult": (
        lambda: {"gamma": _TMSV.copy(), "d": np.diag([2.0, 0.5])},
        lambda a: cv.gaussian_project(a["gamma"], [1], a["d"]),
        lambda r: [r.gamma_out, r.prob_factor, r.mean_map],
    ),
    "HomodyneResult": (
        lambda: {"gamma": _TMSV.copy(), "kappa": np.array([0.3, -0.2, 0.1, 0.5])},
        lambda a: cv.homodyne_project(a["gamma"], [0], a["kappa"]),
        lambda r: [r.gamma_out, r.mean_map, r.density.mean, r.density.pdf(np.array([0.3]))],
    ),
    "TeleportResult": (
        lambda: {"gamma_in": cv.squeezed_signal(0.4).gamma.copy(), "kappa_in": np.array([0.4, -0.2])},
        lambda a: cv.teleport(cv.TeleportSetup(a["gamma_in"], 0.8, _FIBER, _FIBER, kappa_in=a["kappa_in"])),
        lambda r: [r.gamma_rec, r.gain, r.density.mean, r.fidelity_zero_mean],
    ),
    # the result's grid was the caller's array itself
    "HomodyneFockResult": (
        lambda: {"grid": np.linspace(-2.0, 2.0, 9)},
        lambda a: fock.homodyne_povm_fock(_FOCK, 0, grid=a["grid"]),
        lambda r: [r.grid, r.pdf],
    ),
}
EXEMPT = {
    "FockState": "its tensors are kernel outputs of 3.6-7.3 MB at cutoff 25, too large to copy per state; "
    "ROADMAP item 9 (one contract suite over the public surface) owns the Fock module's input rule",
}


def _array_records():
    """Names of the public dataclasses with a field annotated as an array."""
    return {
        name
        for name, obj in _public_callables().items()
        if inspect.isclass(obj) and dataclasses.is_dataclass(obj)
        and any("ndarray" in str(f.type) for f in dataclasses.fields(obj))
    }


def test_every_array_record_is_listed():
    assert _array_records() == set(OWN_COPIES) | set(RESULTS) | set(EXEMPT)
    assert all(_public_callables()[name].__dataclass_params__.frozen for name in OWN_COPIES | RESULTS)


@pytest.mark.parametrize("name", sorted(OWN_COPIES) + sorted(RESULTS))
def test_writing_the_callers_arrays_changes_nothing_read(name):
    arrays, build, read = (OWN_COPIES | RESULTS)[name]
    given = arrays()
    record = build(given)
    before = read(record)
    for value in given.values():
        value *= 0.5
    for got, want in zip(read(record), before, strict=True):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("name", sorted(OWN_COPIES))
def test_input_records_hold_read_only_arrays(name):
    arrays, build, _ = OWN_COPIES[name]
    given = arrays()
    record = build(given)
    for field in given:
        assert getattr(record, field) is not given[field] and not getattr(record, field).flags.writeable


@pytest.mark.parametrize("name", sorted(OWN_COPIES) + sorted(RESULTS))
def test_array_records_compare_by_identity(name):
    # a generated == compared the arrays and raised numpy's "truth value ... is ambiguous",
    # and the generated hash of a frozen record raised TypeError
    arrays, build, _ = (OWN_COPIES | RESULTS)[name]
    record, twin = build(arrays()), build(arrays())
    assert record == record and record != twin
    assert hash(record) == hash(record) and len({record, twin}) == 2


def test_outcome_density_fields_are_its_three_arrays():
    # the solve is set beside them when the density is built, not as a field
    assert [f.name for f in dataclasses.fields(cv.OutcomeDensity)] == ["block", "mean", "signs"]


# Records the library makes from values it has checked, without running their checks (symplectic._made):
# each must hold what the public constructor holds when given the same fields, of the same types, dtypes,
# shapes and bits, with every array read-only.  The numpy scalars among the arguments check that a made
# record holds a Python int and float64 or complex128 arrays, as the constructor would.
_DENSE = fock.FockState(2, 3, fock.number_state_fock([1, 2], 3).tensor.copy())
MADE = {
    "squeezed_signal": (cv.GaussianState, lambda: cv.squeezed_signal(np.float32(0.3))),
    "tmsv_state": (cv.GaussianState, lambda: cv.tmsv_state(np.longdouble(0.5))),
    "homodyne_project": (cv.OutcomeDensity, lambda: cv.homodyne_project(_TMSV, [3], np.array([0.3, -0.2, 0.1, 0.5])).density),
    "build_tmsv_fock": (fock.FockState, lambda: fock.build_tmsv_fock(0.3, np.int64(6))),
    "apply_loss_fock, sectors": (fock.FockState, lambda: fock.apply_loss_fock(_FOCK, 1, 0.7)),
    "apply_loss_fock, dense": (fock.FockState, lambda: fock.apply_loss_fock(_DENSE, 0, 0.7)),
    "partial_trace, sectors": (fock.FockState, lambda: fock.partial_trace(_FOCK, [1])),
    "partial_trace, dense": (fock.FockState, lambda: fock.partial_trace(_DENSE, [0])),
    "homodyne_conditional_fock": (fock.FockState, lambda: fock.homodyne_conditional_fock(_FOCK, 0, 0.4, 0.3)),
    "number_state_fock": (fock.FockState, lambda: fock.number_state_fock(np.array([1, 2]), np.int64(3))),
    "gaussian_fock": (fock.FockState, lambda: fock.gaussian_fock(_SIGNAL, np.int64(8))),
}


@pytest.mark.parametrize("name", sorted(MADE))
def test_made_records_hold_what_the_constructor_holds(name):
    record_class, make = MADE[name]
    made = make()
    fields = {f.name: getattr(made, f.name) for f in dataclasses.fields(record_class)}
    built = record_class(**fields)
    for field, value in fields.items():
        want = getattr(built, field)
        assert type(value) is type(want), field
        if isinstance(value, np.ndarray):
            assert not value.flags.writeable and not want.flags.writeable, field
            assert (value.dtype, value.shape, value.tobytes()) == (want.dtype, want.shape, want.tobytes()), field
        else:
            assert value == want, field


def test_made_density_is_solved_as_the_built_one():
    made = cv.homodyne_project(_TMSV, [3], np.array([0.3, -0.2, 0.1, 0.5])).density
    built = cv.OutcomeDensity(made.block, made.mean, made.signs)
    assert np.array_equal(made._inverse, built._inverse) and made._norm == built._norm
    for got, want in zip(made._eig, built._eig, strict=True):
        assert np.array_equal(got, want)


# The functions whose arithmetic can carry a checked input past the float range build their result
# through the checked constructor, whose finiteness rule is then the one guard; with the overflow's
# RuntimeWarning not made an error, a made record held inf.
_STRETCH = cv.build_symplectic([cv.squeeze(0, 400)], 1)
OVERFLOWS = {
    "apply_symplectic": (lambda: cv.apply_symplectic(cv.vacuum_state(1), _STRETCH), "covariance matrix"),
    "apply_channel": (
        # an amplifier of gain 100, completely positive with the noise |1 - 100| = 99, on gamma = 2e307 + 1
        lambda: cv.apply_channel(cv.thermal_state(1e307), cv.GaussianChannel(10.0 * np.eye(2), 99.0 * np.eye(2))),
        "covariance matrix",
    ),
    "displace": (lambda: cv.displace(cv.GaussianState([1e308, 0.0], np.eye(2)), [1e308, 0.0]), "mean vector"),
}


@pytest.mark.parametrize("entry", sorted(OVERFLOWS))
def test_an_overflowing_result_is_refused(entry):
    call, name = OVERFLOWS[entry]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(ValueError, match=f"^{name} has non-finite entries$"):
            call()


# FiberParams refuses an n_th whose noise (2 n_th + 1)(1 - |T|^2 - |R|^2) overflows: inf, and NaN at
# |T| = 1 (inf * 0).  fiber_channel refused that noise only as its matrix G, while degraded_tmsv returned
# a covariance holding it and teleport passed it on to numpy's matmul.
@pytest.mark.parametrize("t_mag", [0.5, 1.0])
def test_fiber_noise_that_overflows_is_refused(t_mag):
    with pytest.raises(ValueError, match=r"^the fiber noise overflows at n_th = 1e\+308$"):
        cv.FiberParams(t_mag, n_th=1e308)
    assert cv.FiberParams(t_mag, n_th=1e307).noise == (2e307 + 1.0) * (1.0 - t_mag**2)


# The sampling arguments: seed and size follow n_samples' rule, a Python or numpy integer that is not a
# bool, here >= 0, and rng must be a numpy.random.Generator.  seed = 1.5 and the sizes 1.5 and True raised
# TypeError, seed = -1 a ValueError that did not name seed, and rng = 0 AttributeError; a Generator given
# as seed was used as the generator.
def _monte_carlo(**arguments):
    return cv.teleport_monte_carlo(_SETUP, **{"n_samples": 10, "seed": 0, **arguments})


def _sample(rng=None, size=3):
    return _density().sample(np.random.default_rng(0) if rng is None else rng, size)


SAMPLING = {
    "teleport_monte_carlo seed 1.5": (lambda: _monte_carlo(seed=1.5), "^seed must be an integer >= 0, got 1.5$"),
    "teleport_monte_carlo seed -1": (lambda: _monte_carlo(seed=-1), "^seed must be an integer >= 0, got -1$"),
    "teleport_monte_carlo seed True": (lambda: _monte_carlo(seed=True), "^seed must be an integer >= 0, got True$"),
    "teleport_monte_carlo seed Generator": (
        lambda: _monte_carlo(seed=np.random.default_rng(0)), "^seed must be an integer >= 0, got Generator"
    ),
    "teleport_monte_carlo n_samples 0": (lambda: _monte_carlo(n_samples=0), "^n_samples must be an integer >= 1, got 0$"),
    "teleport_monte_carlo n_samples 2.0": (
        lambda: _monte_carlo(n_samples=2.0), r"^n_samples must be an integer >= 1, got 2\.0$"
    ),
    "OutcomeDensity.sample size 1.5": (lambda: _sample(size=1.5), "^size must be an integer >= 0, got 1.5$"),
    "OutcomeDensity.sample size True": (lambda: _sample(size=True), "^size must be an integer >= 0, got True$"),
    "OutcomeDensity.sample size -1": (lambda: _sample(size=-1), "^size must be an integer >= 0, got -1$"),
    "OutcomeDensity.sample rng 0": (lambda: _sample(rng=0), "^rng must be a numpy.random.Generator, got 0$"),
}


@pytest.mark.parametrize("entry", sorted(SAMPLING))
def test_sampling_argument_is_refused_by_name(entry):
    call, message = SAMPLING[entry]
    with pytest.raises(ValueError, match=message):
        call()


def test_numpy_integers_are_accepted_for_sampling():
    assert _monte_carlo(seed=np.uint32(5), n_samples=np.int64(10)) == _monte_carlo(seed=5)
    assert np.array_equal(_sample(size=np.int64(3)), _sample(size=3))
    assert _sample(size=0).shape == (0, 2)
