"""How much entanglement survives an absorbing fiber?

A two-mode squeezed vacuum is sent through two identical fibers obeying the
Lambert-Beer law |T| = exp(-l/l_A).  Even with infinite input squeezing the
transmittable log-negativity saturates at -ln(1 - e^(-2 l/l_A)), so every
target entanglement implies a hard distance budget.
"""

import math

import numpy as np

import cvsim as cv

print(__doc__)

print(f"{'l/l_A':>8} {'|T|^2':>8} {'E_N_max':>10} {'E_N(zeta=1)':>12} {'E_N(zeta=0.5)':>13}")
lengths = np.linspace(0.0, 2.0, 11)
t_sqs = np.exp(-2.0 * lengths)
# each closed form takes the whole column at once
columns = (lengths, t_sqs, cv.max_transmittable(lengths, 1.0),
           cv.transmitted_log_negativity(1.0, np.sqrt(t_sqs)), cv.transmitted_log_negativity(0.5, np.sqrt(t_sqs)))
for l, t_sq, e_max, e_1, e_half in zip(*columns):
    print(f"{l:8.2f} {t_sq:8.4f} {e_max:10.4f} {e_1:12.4f} {e_half:13.4f}")

print()
print("Closed form versus the full covariance pipeline (they must agree):")
zeta, t_sq = 0.6, 0.7
fiber = cv.FiberParams(t_mag=math.sqrt(t_sq))
gamma = cv.degraded_tmsv(zeta, fiber, fiber)
matrix_value = cv.log_negativity(gamma).e_n
closed_value = cv.transmitted_log_negativity(zeta, math.sqrt(t_sq))
print(f"  matrix pipeline : {matrix_value:.12f}")
print(f"  closed form     : {closed_value:.12f}")

print()
l_one_bit = 0.5 * math.log(2.0)
print(f"One bit of entanglement (E_N = 1 in base two) requires l <= {l_one_bit:.4f} l_A,")
print(f"i.e. |T|^2 >= 0.5; check: {cv.max_transmittable(l_one_bit, 1.0, base='2'):.6f}")
print(f"Dense coding stops paying off below |T|^2 = 0.75, where the base-two")
print(f"log-negativity crosses {cv.transmitted_log_negativity(20.0, math.sqrt(0.75), base='2'):.6f}")
