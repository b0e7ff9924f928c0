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


def random_two_mode_physical_stack(rng, count, n_gates=6, max_squeeze=0.5, max_n=1.0):
    """``count`` covariance matrices drawn as random_two_mode_physical draws
    one, in one vectorised pass, stacked (count, 4, 4): each of the n_gates
    gates is a rotation by U(-pi, pi), a squeeze by U(-max_squeeze,
    max_squeeze) on a uniform mode, or a beamsplitter on a uniformly ordered
    pair, each kind with odds 1/3.  The same seed draws other states than
    the one-by-one loop, whose random calls interleave."""
    kind = rng.integers(0, 3, size=(count, n_gates))
    on_0 = (rng.integers(0, 2, size=(count, n_gates)) == 0)[..., None, None]  # the mode, or the pair's order
    u = rng.uniform(-1.0, 1.0, size=(count, n_gates))
    c, s, e, zero = np.cos(np.pi * u), np.sin(np.pi * u), np.exp(max_squeeze * u), np.zeros_like(u)
    rotation = np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)
    squeeze = np.stack([np.stack([e, zero], -1), np.stack([zero, 1.0 / e], -1)], -2)
    block = np.where((kind == 0)[..., None, None], rotation, squeeze)
    gates = np.zeros((count, n_gates, 4, 4))
    gates[..., :2, :2] = np.where(on_0, block, np.eye(2))
    gates[..., 2:, 2:] = np.where(on_0, np.eye(2), block)
    mix = cv.build_symplectic([cv.beamsplitter(0, 1)], 2)  # beamsplitter(1, 0) is its transpose
    gates = np.where((kind == 2)[..., None, None], np.where(on_0, mix, mix.T), gates)
    s = gates[:, 0]
    for k in range(1, n_gates):  # the leftmost gate acts last, as in build_symplectic
        s = s @ gates[:, k]
    th = np.repeat(2.0 * rng.uniform(0.0, max_n, size=(count, 2)) + 1.0, 2, axis=-1)
    return (s * th[:, None, :]) @ s.swapaxes(-1, -2)


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


def count_checks(monkeypatch, *records):
    """Names of the records whose __post_init__, the checks run when one of
    ``records`` (or of a subclass) is built, ran, in call order."""
    calls = []
    for record in records:

        def counted(self, check=record.__post_init__):
            calls.append(type(self).__name__)
            check(self)

        monkeypatch.setattr(record, "__post_init__", counted)
    return calls


def count_solves(monkeypatch, names=("eigh", "eigvalsh")):
    """Shapes of the matrices passed to the np.linalg solvers ``names``, in call order."""
    calls = []
    for name in names:
        solve = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda m, solve=solve: calls.append(m.shape) or solve(m))
    return calls
