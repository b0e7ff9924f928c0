"""cvsim runs on numpy alone: with scipy, sympy and mpmath made unimportable,
the package and its CLI import, and a README CLI example and the Fock demo
print exactly their goldens.  The three stay test-only references.  The
package also keeps to the numpy floor that pyproject.toml declares."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# a None entry in sys.modules makes every later ``import scipy...`` fail
_BLOCK_TEST_ONLY = (
    "import sys\nsys.modules.update(dict.fromkeys(['scipy', 'sympy', 'mpmath']))\nimport cvsim, cvsim.cli\n"
)


def _run_without_scipy(code):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _BLOCK_TEST_ONLY + code],
        cwd=ROOT,
        env=env,
        capture_output=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    return proc.stdout


def test_cli_example_runs_without_scipy():
    out = _run_without_scipy(
        "raise SystemExit(cvsim.cli.main(['fidelity-sweep', '--eta', '0:1.5:16', '--zeta', '0:1.5:16', "
        "'--format', 'json']))"
    )
    assert out == (ROOT / "tests" / "golden" / "cli" / "fidelity-sweep.json").read_bytes()


def test_fock_demo_runs_without_scipy():
    out = _run_without_scipy("import runpy\nrunpy.run_path('demos/05_fock_crosscheck.py', run_name='__main__')")
    assert out == (ROOT / "tests" / "golden" / "05_fock_crosscheck.stdout").read_bytes()


# numpy 2.0 additions that the declared floor, numpy>=1.24, lacks
_NEWER_THAN_FLOOR = re.compile(r"\.mT\b|\b(matrix_transpose|vecdot|trapezoid|unstack)\b")


def test_package_keeps_to_the_declared_numpy_floor():
    assert 'numpy>=1.24"' in (ROOT / "pyproject.toml").read_text()
    found = [
        f"{path.name}:{number}: {line.strip()}"
        for path in sorted((ROOT / "src" / "cvsim").glob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if _NEWER_THAN_FLOOR.search(line)
    ]
    assert found == []
