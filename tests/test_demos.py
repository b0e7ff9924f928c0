"""Demo smoke test: the teleportation demo runs as a script and prints
exactly its golden output, so a change to the Monte-Carlo estimator it
consumes cannot shift a printed digit unnoticed."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_teleportation_demo_matches_golden():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / "03_teleportation_fidelity.py")],
        cwd=ROOT,
        env=env,
        capture_output=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    assert proc.stdout == (ROOT / "tests" / "golden" / "03_teleportation_fidelity.stdout").read_bytes()
