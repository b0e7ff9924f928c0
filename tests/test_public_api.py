"""Guards on the public surface: names removed from it stay removed, and no
tolerance or budget becomes a caller-set keyword again."""

import fnmatch
import inspect

import cvsim as cv
from cvsim import fock, measurement

REMOVED = (
    "tmsv_entropy",
    "compose_channels",
    "Gate",
    "gate_matrix",
    "conjugate_quadrature",
    "pseudo_determinant",
    "BlockedCovariance",
)
KNOB_PATTERNS = ("*tol*", "*budget*", "max_truncation", "band")


def _public_callables():
    """Public functions and classes defined in cvsim, reached from the
    ``cvsim`` and ``cvsim.fock`` namespaces, and the public methods of those
    classes."""
    seen = {}
    for module in (cv, fock):
        for name in dir(module):
            obj = getattr(module, name)
            if name.startswith("_") or not callable(obj) or not obj.__module__.startswith("cvsim"):
                continue
            seen[obj.__qualname__] = obj
            if inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if not attr.startswith("_") and inspect.isfunction(member):
                        seen[member.__qualname__] = member
    return seen


def test_audited_names_are_gone():
    for name in REMOVED:
        assert name not in cv.__all__ and not hasattr(cv, name), name
    assert not hasattr(fock, "boundary_population")
    assert not hasattr(measurement, "_pseudo_determinant")


def test_scan_reaches_methods_and_fock():
    names = _public_callables()
    assert {"mp_inverse", "build_tmsv_fock", "gaussian_fock", "OutcomeDensity.pdf"} <= set(names)


def test_no_public_callable_takes_a_tolerance():
    knobs = set()
    for qualname, obj in _public_callables().items():
        for param in inspect.signature(obj).parameters.values():
            keyword = param.kind in (param.POSITIONAL_OR_KEYWORD, param.KEYWORD_ONLY)
            if keyword and any(fnmatch.fnmatch(param.name, p) for p in KNOB_PATTERNS):
                knobs.add(f"{qualname}.{param.name}")
    assert knobs == set()
