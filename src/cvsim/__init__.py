"""Covariance-matrix calculus for Gaussian quantum states in lossy
environments: symplectic transforms, noisy channels, Gaussian and homodyne
measurements, separability and logarithmic negativity, fiber entanglement
degradation, continuous-variable teleportation, and a truncated Fock-space
oracle for independent verification."""

from importlib import import_module as _import_module

from .symplectic import (
    DEFAULT_TOL,
    CovarianceReport,
    beamsplitter,
    build_symplectic,
    check_symplectic,
    euler_decompose,
    rotation,
    rotation_matrix,
    squeeze,
    symplectic_eigenvalues,
    symplectic_form,
    validate_covariance,
)
from .states import (
    ClassicalityVerdict,
    GaussianState,
    apply_symplectic,
    characteristic_function,
    classicality_test,
    displace,
    max_classical_squeezing,
    squeezed_signal,
    squeezed_state,
    thermal_state,
    tmsv_state,
    vacuum_state,
)
from .channels import (
    IDEAL_FIBER,
    FiberParams,
    GaussianChannel,
    apply_channel,
    degraded_tmsv,
    fiber_channel,
    fiber_from_length,
    tensor_channels,
    validate_channel,
)
from .measurement import (
    ConditionalResult,
    HomodyneResult,
    OutcomeDensity,
    gaussian_project,
    homodyne_project,
    mp_inverse,
)
from .entanglement import (
    NegativityReport,
    SeparabilityVerdict,
    fiber_separability_threshold,
    is_separable,
    log_negativity,
    max_transmittable,
    partial_transpose,
    separability_length,
    transmitted_log_negativity,
)
from .teleportation import (
    TeleportResult,
    TeleportSetup,
    fidelity,
    ideal_displacement_gain,
    pure_squeezed_fidelity,
    state_overlap,
    teleport,
    teleport_monte_carlo,
)

# the Fock oracle is loaded on first use of cvsim.fock (PEP 562)
__all__ = sorted([name for name in dir() if not name.startswith("_")] + ["fock"])


def __getattr__(name):
    if name == "fock":
        return _import_module(".fock", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"
