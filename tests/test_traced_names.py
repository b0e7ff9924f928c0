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


def test_loss_cache_misses_go_through_the_kraus_cache():
    # the tracer names a loss call cold when _loss_kraus missed during it
    fock = cvsim.fock
    st = fock.build_tmsv_fock(0.3, cutoff=6)
    tau = 0.6180339887  # a transmittance no other test uses
    misses = fock._loss_kraus.cache_info().misses
    fock.apply_loss_fock(st, 0, tau)
    assert fock._loss_kraus.cache_info().misses == misses + 1
    fock.apply_loss_fock(st, 1, tau)
    assert fock._loss_kraus.cache_info().misses == misses + 1
