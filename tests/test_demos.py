"""Demo golden tests: every demo runs as a script and prints exactly its
golden output, so a change to the library cannot shift a printed digit
unnoticed.  The goldens print the same bytes with one or two BLAS threads."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _assert_demo_matches_golden(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{name}.py")],
        cwd=ROOT,
        env=env,
        capture_output=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    assert proc.stdout == (ROOT / "tests" / "golden" / f"{name}.stdout").read_bytes()


def test_teleportation_demo_matches_golden():
    # also pins the Monte-Carlo estimator the demo consumes
    _assert_demo_matches_golden("03_teleportation_fidelity")


@pytest.mark.parametrize(
    "name",
    [
        "01_entanglement_degradation",
        "02_separability_thresholds",
        "04_classicality_and_states",
        "05_fock_crosscheck",
    ],
)
def test_demo_matches_golden(name):
    _assert_demo_matches_golden(name)
