"""Everything above, re-derived the brute-force way.

The fock module rebuilds the same physics in a truncated number basis:
states are explicit density matrices, loss is a beamsplitter with a vacuum
ancilla, homodyne detection is a projection onto tabulated oscillator
eigenfunctions, and the log-negativity is a literal trace norm.  None of
the covariance-matrix formulas enter, which is what makes the agreement a
meaningful check.
"""

import math

import numpy as np

import cvsim as cv
from cvsim import fock

print(__doc__)

zeta, cutoff = 0.4, 25
st = fock.build_tmsv_fock(zeta, cutoff)
print(f"TMSV(zeta={zeta}) at cutoff {cutoff}, truncated weight {st.trunc_weight:.2e}")
_, gamma = fock.covariance_from_fock(st)
# the error is round-off (the truncated weight is far smaller), so only its bound is printed
cov_err = np.max(np.abs(gamma - cv.tmsv_state(zeta).gamma))
print(f"  covariance error vs closed form: {'below' if cov_err < 1e-12 else 'ABOVE'} 1e-12")

t_sq = 0.7
lossy = fock.apply_loss_fock(fock.apply_loss_fock(st, 0, t_sq), 1, t_sq)
en_fock = fock.log_negativity_fock(lossy)
en_closed = cv.transmitted_log_negativity(zeta, math.sqrt(t_sq))
print(f"After |T|^2 = {t_sq} loss on both arms:")
print(f"  trace-norm log-negativity : {en_fock:.8f}")
print(f"  covariance closed form    : {en_closed:.8f}")

print()
print("Homodyne statistics of one TMSV arm versus the Gaussian marginal:")
res = fock.homodyne_povm_fock(st, mode=0, phi=0.0)
var_fock = np.trapezoid(res.grid**2 * res.pdf, res.grid)
print(f"  variance from the POVM      : {var_fock:.8f}")
print(f"  cosh(2 zeta)/2 from gamma   : {np.cosh(2 * zeta) / 2:.8f}")
print(f"  pdf normalisation           : {np.trapezoid(res.pdf, res.grid):.8f}")

print()
print("Teleportation fidelity as a literal state overlap:")
eta = 0.4
gamma_in = cv.squeezed_signal(eta).gamma
gamma_rec = cv.teleport(cv.TeleportSetup(gamma_in, 0.5)).gamma_rec
overlap = fock.overlap_fock(fock.gaussian_fock(gamma_in, 30), fock.gaussian_fock(gamma_rec, 30))
print(f"  Tr[rho_in rho_rec] in the number basis: {overlap:.8f}")
print(f"  2/sqrt(det(G_in + G_rec))             : {cv.fidelity(gamma_in, gamma_rec):.8f}")

print()
print("Projecting one arm of the TMSV onto the vacuum leaves the other arm")
print("in the vacuum; the bare Schur-complement probability factor carries a")
print("constant of 2 per measured mode relative to the true probability:")
blocks = cv.BlockedCovariance.from_gamma(cv.tmsv_state(zeta).gamma, measured_modes=[1])
proj = cv.gaussian_project(blocks, np.eye(2))
reduced = fock.partial_trace(st, keep=[1])
p_true = float(fock.overlap_fock(fock.vacuum_fock(1, cutoff), reduced))
print(f"  conditional covariance: \n{proj.gamma_out.round(10)}")
print(f"  bare factor {proj.prob_factor:.6f} x 2 = {2 * proj.prob_factor:.6f} "
      f"vs Fock probability {p_true:.6f}")
