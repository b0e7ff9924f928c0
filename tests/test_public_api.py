"""Guards on the public surface: names removed from it stay removed, and no
tolerance or budget becomes a caller-set keyword again."""

import fnmatch
import inspect
import os
import subprocess
import sys
from pathlib import Path

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
    for name in ("boundary_population", "QuadratureWavefunctionTable", "default_grid"):
        assert not hasattr(fock, name), name
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


def test_fock_is_loaded_on_first_use():
    # the CLI never uses the Fock oracle, so importing it does not compile it
    code = (
        "import sys, cvsim.cli\n"
        "assert 'cvsim.fock' not in sys.modules\n"
        "import cvsim\n"
        "assert 'fock' in cvsim.__all__\n"
        "assert callable(cvsim.fock.build_tmsv_fock)\n"
        "from cvsim import fock\n"
        "assert fock is sys.modules['cvsim.fock'] is cvsim.fock\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
