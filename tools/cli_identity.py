"""Check that the CLI of the working tree answers the benchmark's CLI
requests byte for byte as a base revision does.

The requests are the first N of the ``cli`` workload's seeded stream
(``Cli.inputs(seed)`` in ``perfbench/workloads.py``), for each seed given.
Each request runs through ``python -m cvsim.cli``, once with the ``src``
of the base revision, exported by ``git archive`` into a temporary
directory, and once with the working tree's ``src``; both children get one
BLAS thread.  The tool prints how many requests gave identical stdout,
stderr and exit code; then, over the requests with the same exit code and
stderr whose stdouts are tables of one shape (a JSON document's "rows", or
CSV lines split on commas) that differ only in numeric cells, how many
cells differ and the largest relative difference; then the first
differences.  It exits 1 on any difference.  Standard library and numpy only.

    python tools/cli_identity.py --base HEAD --seeds 1 2 3 --requests 110
"""

from __future__ import annotations

import argparse
import collections
import itertools
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SHOWN = 5  # differences printed in full


def _requests(seeds: list[int], count: int) -> list[tuple]:
    sys.dont_write_bytecode = True  # leave no __pycache__ in perfbench/
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import Cli

    return [req.argv for seed in seeds for req in itertools.islice(Cli.inputs(seed), count)]


def _run(argv: tuple, src: Path, cwd: str) -> tuple[int, str, str]:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1", PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "cvsim.cli", *argv], cwd=cwd, env=env, capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def _first_difference(base: str, tree: str) -> str:
    for n, (a, b) in enumerate(itertools.zip_longest(base.splitlines(), tree.splitlines()), 1):
        if a != b:
            return f"line {n}: base {a!r}, tree {b!r}"
    return "same lines, different line ends"


def _table(text: str) -> tuple:
    """A CLI stdout as (its format, everything but the cells, the cells row
    by row): the JSON document without its "rows", and "rows"; or the CSV
    header line, and the other lines split on commas."""
    try:
        doc = json.loads(text)
    except ValueError:
        lines = text.splitlines()
        return "CSV", lines[:1], [line.split(",") for line in lines[1:]]
    return "JSON", {key: value for key, value in doc.items() if key != "rows"}, doc["rows"]


def _numeric_difference(base: str, tree: str) -> tuple[str, int, float] | None:
    """(the format, cells that differ, their largest relative difference)
    where the two stdouts are tables of one format and shape and every cell
    that differs is a finite number in both; else None."""
    (kind, frame_a, rows_a), (kind_b, frame_b, rows_b) = _table(base), _table(tree)
    if (kind, frame_a) != (kind_b, frame_b) or list(map(len, rows_a)) != list(map(len, rows_b)):
        return None
    moved, largest = 0, 0.0
    for a, b in zip(itertools.chain(*rows_a), itertools.chain(*rows_b)):
        if a == b:
            continue
        if isinstance(a, bool) or isinstance(b, bool):  # a JSON true or false is no number here
            return None
        try:
            a, b = float(a), float(b)
        except (TypeError, ValueError):  # null, or a word
            return None
        if not (math.isfinite(a) and math.isfinite(b)):
            return None
        moved, largest = moved + 1, max(largest, abs(a - b) / max(abs(a), abs(b)))
    return kind, moved, largest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD", help="git revision to compare with (default: HEAD)")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3], help="workload seeds (default: 1 2 3)")
    parser.add_argument("--requests", type=int, default=110, help="requests per seed (default: 110)")
    args = parser.parse_args(argv)

    requests = _requests(args.seeds, args.requests)
    with tempfile.TemporaryDirectory(prefix="cli_identity_") as tmp:
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", args.base, "src"], capture_output=True)
        if archive.returncode:
            print(f"error: cannot export {args.base}: {archive.stderr.decode().strip()}", file=sys.stderr)
            return 2
        subprocess.run(["tar", "-x", "-C", tmp], input=archive.stdout, check=True)
        cwd = Path(tmp, "cwd")  # an empty directory, so no cvsim on the path but src's
        cwd.mkdir()
        differences, exits = [], collections.Counter()
        numeric = collections.defaultdict(list)  # format -> (cells, largest relative difference) per request
        for argv in requests:
            base = _run(argv, Path(tmp, "src"), str(cwd))
            tree = _run(argv, ROOT / "src", str(cwd))
            exits[tree[0]] += 1
            if base != tree:
                differences.append((argv, base, tree))
                found = base[0] == tree[0] and base[2] == tree[2] and _numeric_difference(base[1], tree[1])
                if found:
                    numeric[found[0]].append(found[1:])

    tally = ", ".join(f"exit {code}: {n}" for code, n in sorted(exits.items()))
    print(f"{len(requests) - len(differences)} of {len(requests)} requests identical to {args.base} ({tally})")
    if numeric:
        kinds = "; ".join(f"{kind} {len(found)} requests, {sum(n for n, _ in found)} cells, largest relative "
                          f"difference {max(r for _, r in found):.3g}" for kind, found in sorted(numeric.items()))
        print(f"{sum(map(len, numeric.values()))} of {len(differences)} differing requests differ only in numeric "
              f"cells: {kinds}")
    for argv, base, tree in differences[:SHOWN]:
        print("differs: python -m cvsim.cli " + " ".join(argv))
        for field, a, b in zip(("exit code", "stdout", "stderr"), base, tree):
            if a != b:
                detail = f"base {a}, tree {b}" if field == "exit code" else _first_difference(a, b)
                print(f"  {field}: {detail}")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
