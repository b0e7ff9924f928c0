"""Locate the checkout and import cvsim from its ``src`` directory only."""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# One BLAS thread: the caller is single-threaded, and a second BLAS thread
# spinning on a shared 2-CPU host made oracle's timings swing by ~30%.
# Set before numpy is first imported; children inherit it.
SINGLE_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def import_cvsim():
    """Import cvsim from ``<checkout>/src``; raise ImportError if it is
    missing there, even when another copy is installed."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import cvsim

    if not Path(cvsim.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"cvsim was imported from {cvsim.__file__}, not from {SRC}")
    return cvsim


def child_env() -> dict:
    """Environment for child interpreters: cvsim from this checkout."""
    env = dict(os.environ, **SINGLE_THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env
