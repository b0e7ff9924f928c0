"""Fresh-interpreter measurements started by run.py, one per process.

    python perfbench/probe.py setup <workload> <seed>
        imports cvsim, runs one untimed warm-up op of the workload, then
        prints "ready"; the parent times process start to that line.
    python perfbench/probe.py import deps|cvsim
        prints the seconds spent importing numpy + scipy.linalg (deps) or
        cvsim with its dependencies (cvsim).
"""

import sys
import time


def main(argv) -> int:
    if argv[:1] == ["setup"] and len(argv) == 3:
        from workloads import WORKLOADS

        workload = WORKLOADS[argv[1]]
        workload.run(workload.warmup_input(int(argv[2])))
        print("ready", flush=True)
        return 0
    if argv == ["import", "deps"]:
        start = time.perf_counter()
        import numpy  # noqa: F401
        import scipy.linalg  # noqa: F401

        print(time.perf_counter() - start)
        return 0
    if argv == ["import", "cvsim"]:
        from bootstrap import SRC

        sys.path.insert(0, str(SRC))
        start = time.perf_counter()
        import cvsim  # noqa: F401

        print(time.perf_counter() - start)
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
