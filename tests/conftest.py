import numpy as np
import pytest

import cvsim as cv


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_symplectic(rng, n_modes, n_gates=6, max_squeeze=0.6):
    """Product of random elementary gates, squeeze parameters bounded so the
    matrix norm stays moderate."""
    gates = []
    for _ in range(n_gates):
        kind = rng.integers(0, 3)
        if kind == 0:
            gates.append(cv.rotation(int(rng.integers(0, n_modes)), rng.uniform(-np.pi, np.pi)))
        elif kind == 1:
            gates.append(cv.squeeze(int(rng.integers(0, n_modes)), rng.uniform(-max_squeeze, max_squeeze)))
        elif n_modes > 1:
            i, j = rng.choice(n_modes, size=2, replace=False)
            gates.append(cv.beamsplitter(int(i), int(j)))
        else:
            gates.append(cv.rotation(0, rng.uniform(-np.pi, np.pi)))
    return cv.build_symplectic(gates, n_modes)


def random_two_mode_physical(rng, max_squeeze=0.5, max_n=1.0):
    """Random physical 4x4 covariance matrix: S (thermal + thermal) S^T."""
    n1, n2 = rng.uniform(0.0, max_n, size=2)
    th = np.diag([2 * n1 + 1.0] * 2 + [2 * n2 + 1.0] * 2)
    s = random_symplectic(rng, 2, max_squeeze=max_squeeze)
    return s @ th @ s.T


def random_single_mode_physical(rng, max_squeeze=0.6, max_n=1.0):
    n = rng.uniform(0.0, max_n)
    s = random_symplectic(rng, 1, n_gates=3, max_squeeze=max_squeeze)
    return s @ ((2 * n + 1.0) * np.eye(2)) @ s.T


def random_fiber(rng, max_n=0.5, phases=True):
    t2 = rng.uniform(0.05, 0.95)
    r2 = rng.uniform(0.0, 1.0 - t2) * 0.5
    return cv.FiberParams(
        t_mag=float(np.sqrt(t2)),
        phase=float(rng.uniform(-np.pi, np.pi)) if phases else 0.0,
        r_mag=float(np.sqrt(r2)),
        n_th=float(rng.uniform(0.0, max_n)),
    )


def count_solves(monkeypatch, names=("eigh", "eigvalsh")):
    """Shapes of the matrices passed to the np.linalg solvers ``names``, in call order."""
    calls = []
    for name in names:
        solve = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda m, solve=solve: calls.append(m.shape) or solve(m))
    return calls
