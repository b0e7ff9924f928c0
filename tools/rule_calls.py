"""Count how often the argument rules, the records' checks and the numpy
eigen-solves run per op of a benchmark workload.

The ops are the first N of the workload's seeded stream
(``W.inputs(seed)`` in ``perfbench/workloads.py``), each run through
``W.run`` under cProfile, after one op on ``W.warmup_input(seed)`` run
unprofiled so that the caches of the first op do not count.  The tool
prints the mean count per op of:

- each argument rule of ``cvsim.symplectic``: _check_matrix,
  _check_vector, _check_finite, _check_symmetric, _check_physical and the
  copy-and-freeze rule _own;
- the __post_init__ of each cvsim record that has one (the record's
  checks), zero included;
- each public function of ``numpy.linalg`` that ran;
- all calls cProfile saw, Python functions and builtins alike.

The ``cli`` workload runs each op in a child interpreter, which cProfile
does not see, so it is not offered.  The tool reads ``perfbench/`` and
writes nothing there (no bytecode).  Standard library and numpy only.

    python tools/rule_calls.py --workload grid --ops 500 --seed 5
"""

from __future__ import annotations

import argparse
import cProfile
import itertools
import pstats
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
RULES = ("_check_matrix", "_check_vector", "_check_finite", "_check_symmetric", "_check_physical", "_own")
IN_PROCESS = ("grid", "montecarlo", "oracle")


def _workloads():
    sys.dont_write_bytecode = True  # leave no __pycache__ in perfbench/
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    return workloads


def _record_checks(cvsim) -> dict:
    """(file, first line, "__post_init__") of each record's check -> "Record.__post_init__"."""
    checks = {}
    for module in (cvsim.symplectic, cvsim.states, cvsim.channels, cvsim.measurement, cvsim.teleportation, cvsim.fock):
        for obj in vars(module).values():
            code = getattr(vars(obj).get("__post_init__"), "__code__", None) if isinstance(obj, type) else None
            if code is not None:
                checks[(code.co_filename, code.co_firstlineno, "__post_init__")] = f"{obj.__name__}.__post_init__"
    return checks


def count(workload: str, ops: int, seed: int) -> tuple[dict, float]:
    """Mean calls per op: {section: {name: count}}, and all calls."""
    workloads = _workloads()
    cvsim, kind = workloads.cvsim, workloads.WORKLOADS[workload]
    kind.run(kind.warmup_input(seed))
    profiler = cProfile.Profile()
    for case in itertools.islice(kind.inputs(seed), ops):
        profiler.runcall(kind.run, case)
    stats = pstats.Stats(profiler)

    rules_file = cvsim.symplectic.__file__
    checks = _record_checks(cvsim)
    sections = {
        "argument rules": dict.fromkeys(RULES, 0),
        "record checks": dict.fromkeys(sorted(checks.values()), 0),
        "numpy.linalg": {},
    }
    for (filename, line, name), (_, calls, *_) in stats.stats.items():
        if filename == rules_file and name in RULES:
            sections["argument rules"][name] += calls
        elif (filename, line, name) in checks:
            sections["record checks"][checks[filename, line, name]] += calls
        elif Path(filename).parent.name == "linalg" and name in np.linalg.__all__:
            sections["numpy.linalg"][name] = sections["numpy.linalg"].get(name, 0) + calls
    means = {title: {name: n / ops for name, n in sorted(found.items())} for title, found in sections.items()}
    return means, stats.total_calls / ops


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=IN_PROCESS, default="grid", help="benchmark workload (default: grid)")
    parser.add_argument("--ops", type=int, default=500, help="ops to profile (default: 500)")
    parser.add_argument("--seed", type=int, default=5, help="workload seed (default: 5)")
    args = parser.parse_args(argv)
    if args.ops < 1:
        parser.error("--ops must be at least 1")

    means, total = count(args.workload, args.ops, args.seed)
    print(f"{args.workload}: mean calls per op over {args.ops} ops at seed {args.seed}")
    for title, found in means.items():
        print(f"{title}:")
        for name, mean in found.items():
            print(f"  {name:32} {mean:10.3f}")
    print(f"all calls (cProfile)               {total:10.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
