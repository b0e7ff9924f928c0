"""Run ``cvsim.cli.main`` with every traced function wrapped.

Usage: python perfbench/cli_launcher.py <cvsim cli arguments>

Behaves like ``python -m cvsim.cli`` (same output and exit code) and
appends one line to stderr: the spans recorded in this process, prefixed
with ``PERFBENCH-SPANS``, for the parent benchmark to collect.
"""

import json
import sys

from bootstrap import import_cvsim
from tracing import SPAN_MARKER, Tracer


def main() -> int:
    cvsim = import_cvsim()
    tracer = Tracer()
    tracer.prepare(cvsim)
    tracer.install()
    tracer.op_id = 0
    code = 1
    try:
        code = cvsim.cli.main(sys.argv[1:])
    except SystemExit as exc:  # argparse refuses a request by raising SystemExit(2)
        code = exc.code
    finally:
        tracer.op_id = None
        sys.stdout.flush()
        print(SPAN_MARKER + json.dumps(tracer.spans), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
