"""The argument contract of the public surface: every matrix and vector
argument goes through the shared rules in ``cvsim.symplectic``, so NaN,
+-inf and a wrong shape each give a ValueError whose message starts with
the argument's name.  The registry below is the first part of the
contract suite; a public callable that is neither registered nor listed
as taking no matrix or vector fails ``test_every_public_callable_is_classified``."""

import dataclasses
import inspect
import re
from pathlib import Path

import numpy as np
import pytest

import cvsim as cv
from cvsim import fock
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
    ("homodyne_povm_fock", "grid"): (lambda x: fock.homodyne_povm_fock(_FOCK, 0, grid=x), np.linspace(-1, 1, 5), "grid", None),
    ("number_state_fock", "ns"): (lambda ns: fock.number_state_fock(ns, cutoff=3), np.array([0.0, 1.0]), "occupations", False),
}

# Public callables with no matrix or vector argument, and the result records
# and the two containers whose array fields are checked apart from the
# registry (OutcomeDensity when built, QuadratureWavefunctionTable by build).
NO_ARRAY_ARGUMENT = {
    "FiberParams", "FockState.purity", "FockState.trace", "apply_channel", "apply_loss_fock", "beamsplitter",
    "build_symplectic", "build_tmsv_fock", "covariance_from_fock", "default_grid", "degraded_tmsv", "fiber_channel",
    "fiber_from_length", "fiber_separability_threshold", "homodyne_conditional_fock", "ideal_displacement_gain",
    "log_negativity_fock", "max_transmittable", "overlap_fock", "partial_trace", "pure_squeezed_fidelity", "rotation",
    "rotation_matrix", "separability_length", "squeeze", "squeezed_signal", "squeezed_state", "state_overlap",
    "symplectic_form", "teleport", "tensor_channels", "tmsv_state", "transmitted_log_negativity", "vacuum_fock",
    "vacuum_state", "validate_channel",
}
RECORDS = {
    "ClassicalityVerdict", "ConditionalResult", "CovarianceReport", "FockState", "HomodyneFockResult", "HomodyneResult",
    "NegativityReport", "OutcomeDensity", "QuadratureWavefunctionTable", "SeparabilityVerdict", "TeleportResult",
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
    "QuadratureWavefunctionTable": (
        lambda: {"grid": np.linspace(-2.0, 2.0, 9)},
        lambda a: fock.QuadratureWavefunctionTable.build(a["grid"], 4),
        lambda t: [t.grid, t.values],
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
    "ROADMAP item 9 owns the Fock module's input rule",
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


def test_outcome_density_fields_are_its_three_arrays():
    # the solve is set beside them when the density is built, not as a field
    assert [f.name for f in dataclasses.fields(cv.OutcomeDensity)] == ["block", "mean", "signs"]
