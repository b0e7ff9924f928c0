"""cvsim benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload grid|montecarlo|oracle|cli \
        --seed N --seconds S --trace 0|1

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones
from wrapped library functions and the known-defect census of every
workload.  The line before it holds run metadata; failed checks are listed
above that.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from bootstrap import ROOT, SINGLE_THREAD_ENV, child_env

os.environ.update(SINGLE_THREAD_ENV)  # before anything imports numpy

HERE = Path(__file__).resolve().parent
PROBE = HERE / "probe.py"
IMPORT_REPEATS = 3
PROBE_TIMEOUT_S = 120
MAX_FAILURES_SHOWN = 10


def _percentile(values, pct: float) -> float:
    ordered = sorted(values)
    rank = pct / 100.0 * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def _probe(args, env) -> str:
    """Run probe.py in a fresh interpreter and return its first output line."""
    proc = subprocess.Popen([sys.executable, str(PROBE), *args], cwd=HERE.parent, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    watchdog = threading.Timer(PROBE_TIMEOUT_S, proc.kill)  # readline alone has no timeout
    watchdog.start()
    try:
        line = proc.stdout.readline().strip()
        _out, err = proc.communicate()
    finally:
        watchdog.cancel()
    if proc.returncode != 0 or not line:
        raise RuntimeError(f"probe {' '.join(args)} failed ({proc.returncode}): {err.strip()[-300:]}")
    return line


def measure_setup(workload, seed: int, env) -> float:
    """Seconds from a fresh process to the end of one warm-up op."""
    start = time.perf_counter()
    line = _probe(["setup", workload.name, str(seed)], env)
    elapsed = time.perf_counter() - start
    if line != "ready":
        raise RuntimeError(f"setup probe printed {line!r}")
    return elapsed


def measure_imports(env) -> dict:
    out = {"deps": [], "cvsim": []}
    for _ in range(IMPORT_REPEATS):
        for what in out:
            out[what].append(float(_probe(["import", what], env)))
    return {what: statistics.median(v) for what, v in out.items()}


def run_loop(workload, seed: int, seconds: float, tracer=None, setup_probe=None) -> dict:
    """Closed loop: the next op starts when the previous one has been timed
    and checked.  With a tracer, even-numbered ops are traced and odd ones
    run with the originals restored, which gives the tracing overhead.

    ``setup_probe`` (untraced runs) is called ``workload.setup_repeats``
    times, spread evenly over the measuring time and between ops, so its
    median sees the same machine as the ops do; the time it takes is not
    counted against ``seconds``."""
    ops = []  # (latency_s, cpu_s, traced)
    failures = []
    setup_samples = []
    probes = workload.setup_repeats if setup_probe is not None else 0
    inputs = workload.inputs(seed)
    start = time.perf_counter()
    paused = 0.0

    def probe_due(final: bool) -> bool:
        due = (time.perf_counter() - start - paused) * probes / seconds - 0.5
        return len(setup_samples) < probes and (final or len(setup_samples) < due)

    while not ops or time.perf_counter() - start - paused < seconds:
        while probe_due(final=False):
            t = time.perf_counter()
            setup_samples.append(setup_probe())
            paused += time.perf_counter() - t
        inp = next(inputs)
        traced = tracer is not None and len(ops) % 2 == 0
        if traced:
            tracer.install()
            tracer.op_id = len(ops)
        result = exc = None
        cpu0, child0 = time.process_time(), _children_cpu()
        t0 = time.perf_counter()
        try:
            result = workload.run(inp, tracer)
        except Exception as err:  # an op that raises is a counted failure, not a crash
            exc = err
        elapsed = time.perf_counter() - t0
        cpu = time.process_time() - cpu0 + _children_cpu() - child0
        if traced:
            tracer.op_id = None
            tracer.uninstall()
        ops.append((elapsed, cpu, traced))
        outcome = workload.check(inp, result, exc)
        if not outcome.ok:
            failures.append(outcome)
    while probe_due(final=True):  # a loop shorter than one op still takes every sample
        setup_samples.append(setup_probe())
    return {"ops": ops, "failures": failures, "attempted": len(ops), "setup_samples": setup_samples}


def _blas() -> dict:
    import ctypes

    import numpy as np

    info = {"name": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    except (KeyError, TypeError):
        pass
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(lib_path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def _caches() -> dict:
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            out[f"L{level}-{kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return out


def _git_commit(root: Path):
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref_file = root / ".git" / ref[5:]
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return None


def census_summary(census: dict) -> dict:
    """group -> (failures of a documented kind, inputs, unexpected failures)."""
    return {group: (sum(not o.ok and o.known for o in outcomes), len(outcomes),
                    [o for o in outcomes if not o.ok and not o.known])
            for group, outcomes in census.items()}


def metadata(args, workload, loop, census: dict) -> dict:
    """``census`` is the output of :func:`census_summary`."""
    import numpy
    import scipy

    samples = [op[0] for op in loop["ops"]]
    tail = _percentile(samples, workload.tail_pct)
    return {
        "workload": workload.name,
        "op": workload.op_definition,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tail_percentile": workload.tail_pct,
        "op_samples": len(samples),
        "samples_beyond_tail": sum(1 for s in samples if s > tail),
        # not bounded metrics: on a shared host they swing with its speed, see README.md
        "op_ms_p50": statistics.median(samples) * 1e3,
        "ops_per_s": len(samples) / sum(samples),
        "cpu_ms_per_op": sum(op[1] for op in loop["ops"]) / len(samples) * 1e3,
        "setup_samples_s": loop["setup_samples"],
        "known_defects": {group: f"{known} of {n} census inputs"
                          for group, (known, n, _unexpected) in census.items()},
        "loop": "closed, one single-threaded caller",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "nproc": len(os.sched_getaffinity(0)),
        "caches": _caches(),
        "git_commit": _git_commit(HERE.parent),
    }


def end_to_end(workload, loop) -> dict:
    lat = [op[0] for op in loop["ops"]]
    child_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (statistics.median(loop["setup_samples"]), "s"),
        "op_ms.tail": (_percentile(lat, workload.tail_pct) * 1e3, "ms"),
        "peak_rss_mb": (max(child_rss, self_rss) / 1024.0, "MB"),
    }


def per_layer(tracer, loop, imports, census: dict) -> dict:
    from tracing import SPAN_FIELDS, SPAN_UNITS, summarize

    out = {}
    for name, entry in summarize(tracer.spans).items():
        for field in SPAN_FIELDS:
            out[f"{name}.{field}"] = (entry[field], SPAN_UNITS[field])
    out["import.deps_s"] = (imports["deps"], "s")
    out["import.cvsim_s"] = (imports["cvsim"], "s")
    traced = statistics.median(op[0] for op in loop["ops"] if op[2]) * 1e3
    untraced_ops = [op[0] for op in loop["ops"] if not op[2]]
    untraced = statistics.median(untraced_ops) * 1e3 if untraced_ops else traced
    out["trace.op_ms_p50_traced"] = (traced, "ms")
    out["trace.op_ms_p50_untraced"] = (untraced, "ms")
    out["trace.overhead_pct"] = ((traced / untraced - 1.0) * 100.0, "%")
    for group, (known, n, _unexpected) in census.items():
        out[f"defects.{group}.fail_ratio"] = (known / n, "ratio")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("grid", "montecarlo", "oracle", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        from workloads import WORKLOADS, census
    except ImportError as exc:
        print(f"perfbench: cannot import cvsim from this checkout: {exc}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    env = child_env()
    # a traced run reports per-layer figures only, so it skips the setup probes
    setup_probe = None if args.trace else (lambda: measure_setup(workload, args.seed, env))
    imports = measure_imports(env) if args.trace else None

    workload.run(workload.warmup_input(args.seed))  # untimed, like the setup probes
    tracer = None
    if args.trace:
        from tracing import Tracer
        from workloads import cvsim

        tracer = Tracer()
        tracer.prepare(cvsim)
    loop = run_loop(workload, args.seed, args.seconds, tracer, setup_probe)
    # after the timed loop; a traced run reports the census of every workload
    found = {}
    for w in WORKLOADS.values() if args.trace else [workload]:
        found.update(census(w))
    summary = census_summary(found)

    if tracer is not None:
        metrics = per_layer(tracer, loop, imports, summary)
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"spans-{workload.name}-{args.seed}.jsonl.gz")
    else:
        metrics = end_to_end(workload, loop)

    failures = loop["failures"]
    unexpected = [o for _known, _n, bad in summary.values() for o in bad]
    for f in (failures + unexpected)[:MAX_FAILURES_SHOWN]:
        print("FAILED " + f.detail)
    print(f"# {len(failures)} of {loop['attempted']} ops failed")
    for group, (known, n, bad) in summary.items():
        print(f"# census {group}: {known} of {n} inputs hit a known defect, {len(bad)} failed otherwise")
    print(json.dumps({"meta": metadata(args, workload, loop, summary)}))
    print(json.dumps({
        "correct": not failures and not unexpected,
        "attempted": loop["attempted"],
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
