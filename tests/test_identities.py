"""Symbolic identities behind the closed forms, proved with sympy: each test
reduces the difference of two sides to 0 for every value of its symbols."""

import pytest
import sympy as sp

J = sp.Matrix([[0, 1], [-1, 0]])


def _symmetric(name):
    x, y, z = sp.symbols(f"{name}_xx {name}_xp {name}_pp", real=True)
    return sp.Matrix([[x, y], [y, z]])


C1, C2 = _symmetric("c1"), _symmetric("c2")
C3 = sp.Matrix(2, 2, sp.symbols("c3_:4", real=True))
GAMMA = sp.BlockMatrix([[C1, C3], [C3.T, C2]]).as_explicit()
CHAIN = (C1 * J * C3 * J * C2 * J * C3.T * J).trace()


def test_det_gamma_from_the_blocks():
    # det gamma = det C1 det C2 + (det C3)^2 - tr(C1 J C3 J C2 J C3^T J)
    assert sp.expand(GAMMA.det() - (C1.det() * C2.det() + C3.det() ** 2 - CHAIN)) == 0


@pytest.mark.parametrize("sign", [1, -1])
def test_simon_lhs_is_read_off_the_invariants(sign):
    # Simon's det C1 det C2 + (1 - |det C3|)^2 - tr(chain) is is_separable's det gamma + 1 - 2 |det C3|,
    # with |det C3| = sign det C3
    abs_det3 = sign * C3.det()
    simon = C1.det() * C2.det() + (1 - abs_det3) ** 2 - CHAIN
    assert sp.expand(simon - (GAMMA.det() + 1 - 2 * abs_det3)) == 0


def test_log_negativity_f_squared_without_cancellation():
    # f^2 = A - sqrt(A^2 - det gamma) = det gamma / (A + sqrt(A^2 - det gamma)), where A + sqrt(...) > 0
    a, det_g = sp.symbols("A det_gamma", real=True)
    root = sp.sqrt(a**2 - det_g)
    assert sp.expand((a - root) * (a + root) - det_g) == 0
    assert sp.simplify(det_g / (a + root) - (a - root)) == 0
