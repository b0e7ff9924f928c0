"""Every name the benchmark's tracer patches must exist on the package.

``perfbench/tracing.py`` resolves its traced functions with ``getattr`` at
benchmark time; this test reads the same tables so that a renamed or
deleted function fails here instead.
"""

import importlib.util
from pathlib import Path

import cvsim
import cvsim.cli

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve():
    tracing = _load_tracing()
    missing = [f"{m}.{a}" for m, a in tracing.TRACED if not callable(getattr(getattr(cvsim, m, None), a, None))]
    assert not missing, f"traced functions missing from cvsim: {missing}"


def test_traced_methods_resolve():
    tracing = _load_tracing()
    for mod_name, cls_name, attr in tracing.TRACED_METHODS:
        cls = getattr(getattr(cvsim, mod_name), cls_name)
        assert callable(cls.__dict__.get(attr)), f"{mod_name}.{cls_name}.{attr} is missing"


def test_cli_and_loss_entry_points_resolve():
    for obj, attr in ((cvsim.fock, "_loss_kraus"), (cvsim.fock, "apply_loss_fock"),
                      (cvsim.cli, "main"), (cvsim.cli, "parse_grid")):
        assert callable(getattr(obj, attr, None)), attr
