"""Span recording around cvsim's public functions, from outside the library.

cvsim modules import each other's functions by name (``teleportation``
holds its own ``degraded_tmsv`` binding, ``cli`` its own ``teleport``), so
patching one module attribute is not enough: :class:`Tracer` finds every
module-level name in every loaded ``cvsim`` module that is bound to a
traced function and replaces all of them with one wrapper.

A span is recorded only while an op is active (``Tracer.op_id`` is set),
so reference computations made by the benchmark's output checks never
show up as library time.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import statistics
import sys
import time

# (module, attribute) of every traced callable, named "<module>.<attribute>".
TRACED = (
    ("symplectic", "validate_covariance"),
    ("symplectic", "symplectic_eigenvalues"),
    ("symplectic", "build_symplectic"),
    ("states", "tmsv_state"),
    ("states", "squeezed_signal"),
    ("channels", "degraded_tmsv"),
    ("channels", "apply_channel"),
    ("entanglement", "is_separable"),
    ("entanglement", "log_negativity"),
    ("measurement", "homodyne_project"),
    ("measurement", "mp_inverse"),
    ("teleportation", "teleport"),
    ("teleportation", "fidelity"),
    ("teleportation", "teleport_monte_carlo"),
    ("teleportation", "state_overlap"),
    ("fock", "build_tmsv_fock"),
    ("fock", "log_negativity_fock"),
    ("fock", "covariance_from_fock"),
    ("fock", "homodyne_povm_fock"),
    ("fock", "gaussian_fock"),
)
# Methods are patched on their class.
TRACED_METHODS = (("measurement", "OutcomeDensity", "sample"),)
# apply_loss_fock is split by whether the call missed the Kraus cache.
LOSS_NAMES = ("fock.apply_loss_fock.cold", "fock.apply_loss_fock.warm")
CLI_COMMANDS = ("entanglement-sweep", "fidelity-sweep", "separability", "teleport", "check-state")
CLI_NAMES = tuple(f"cli.main.{c}" for c in CLI_COMMANDS)

SPAN_NAMES = (
    tuple(f"{m}.{a}" for m, a in TRACED)
    + tuple(f"{m}.{c}.{a}" for m, c, a in TRACED_METHODS)
    + LOSS_NAMES
    + CLI_NAMES
)
SPAN_FIELDS = ("calls", "self_s", "us_p50", "failed")
SPAN_UNITS = {"calls": "count", "self_s": "s", "us_p50": "us", "failed": "count"}
# Prefix of the stderr line on which a traced CLI child hands back its spans.
SPAN_MARKER = "PERFBENCH-SPANS "


class Tracer:
    """Wraps the traced functions and keeps spans in memory.

    A span is ``(name, start, end, parent, op_id, ok)``; ``parent`` is the
    index of the enclosing span or -1.
    """

    def __init__(self):
        self.spans: list = []
        self.op_id = None
        self._stack: list[int] = []
        self._sites: list[tuple[object, str, object, object]] = []

    def _wrap(self, fn, name: str | None = None, namer=None):
        """``namer(args)``, if given, is called before ``fn`` and returns a
        zero-argument callable that names the span after ``fn`` returns."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op_id is None:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else -1
            idx = len(self.spans)
            self.spans.append(None)
            self._stack.append(idx)
            finish = namer(args) if namer else None
            ok = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (finish() if finish else name, start, end, parent, self.op_id, ok)

        return wrapper

    def prepare(self, cvsim) -> None:
        """Find every binding site of the traced callables; call once after
        importing cvsim."""
        importlib.import_module("cvsim.cli")  # the package does not import it
        modules = [m for n, m in list(sys.modules.items()) if n == "cvsim" or n.startswith("cvsim.")]
        for mod_name, attr in TRACED:
            original = getattr(getattr(cvsim, mod_name), attr)
            self._bind_everywhere(modules, original, self._wrap(original, f"{mod_name}.{attr}"))
        for mod_name, cls_name, attr in TRACED_METHODS:
            cls = getattr(getattr(cvsim, mod_name), cls_name)
            original = cls.__dict__[attr]
            wrapper = self._wrap(original, f"{mod_name}.{cls_name}.{attr}")
            self._sites.append((cls, attr, original, wrapper))

        kraus = cvsim.fock._loss_kraus

        def loss_namer(_args):
            misses = kraus.cache_info().misses
            return lambda: LOSS_NAMES[0] if kraus.cache_info().misses > misses else LOSS_NAMES[1]

        loss = cvsim.fock.apply_loss_fock
        self._bind_everywhere(modules, loss, self._wrap(loss, namer=loss_namer))

        def cli_namer(args):
            argv = args[0] if args else None
            return lambda: f"cli.main.{argv[0] if argv else ''}"

        main = cvsim.cli.main
        self._bind_everywhere(modules, main, self._wrap(main, namer=cli_namer))

    def _bind_everywhere(self, modules, original, wrapper) -> None:
        for mod in modules:
            for attr, value in vars(mod).items():
                if value is original:
                    self._sites.append((mod, attr, original, wrapper))

    def install(self) -> None:
        for owner, attr, _original, wrapper in self._sites:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _wrapper in self._sites:
            setattr(owner, attr, original)

    def patched_names(self) -> list[str]:
        """``module.attribute`` of every patched binding, for tests."""
        return sorted(f"{getattr(o, '__name__', o)}.{a}" for o, a, _, _ in self._sites)

    def add_foreign(self, spans, op_id) -> None:
        """Append spans recorded in a child process (same clock on Linux:
        perf_counter is CLOCK_MONOTONIC), re-indexing their parents."""
        base = len(self.spans)
        for name, start, end, parent, _op, ok in spans:
            self.spans.append((name, start, end, parent + base if parent >= 0 else -1, op_id, ok))

    def dump(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def summarize(spans) -> dict:
    """Per-name calls, self seconds, median inclusive microseconds, failures.

    Self time is a span's duration minus the durations of its direct
    children; spans of one op run on one thread, so children never overlap.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _op, _ok in spans:
        if parent >= 0:
            child_time[parent] += end - start
    durations: dict[str, list[float]] = {}
    out = {name: {"calls": 0, "self_s": 0.0, "us_p50": 0.0, "failed": 0} for name in SPAN_NAMES}
    for i, (name, start, end, _parent, _op, ok) in enumerate(spans):
        entry = out.get(name)
        if entry is None:  # not a reported layer, e.g. cli.main of an unknown command
            continue
        entry["calls"] += 1
        entry["self_s"] += (end - start) - child_time[i]
        entry["failed"] += 0 if ok else 1
        durations.setdefault(name, []).append(end - start)
    for name, values in durations.items():
        out[name]["us_p50"] = statistics.median(values) * 1e6
    return out
