"""Teleporting a squeezed state through a noisy link.

The protocol: mix the signal with one arm of a (possibly degraded) TMSV on
a symmetric beamsplitter, homodyne both outputs, and displace the far arm
according to the record.  The receiver covariance never depends on the
measurement record; the fidelity grows monotonically with the resource
squeezing and the gain picks up a |T2/T1| scaling when the two fiber links
differ.
"""

import numpy as np

import cvsim as cv

print(__doc__)

print("Fidelity of a pure squeezed signal (eta) vs resource squeezing (zeta):")
etas = (0.0, 0.5, 1.0, 1.5)
zetas = (0.0, 0.25, 0.5, 1.0, 2.0)
print(f"{'eta':>5} " + " ".join(f"zeta={z:<5.2f}" for z in zetas))
for eta in etas:
    row = cv.pure_squeezed_fidelity(eta, np.array(zetas))
    print(f"{eta:5.2f} " + " ".join(f"{v:10.6f}" for v in row))
print("The zeta = 0 column is the classical benchmark sqrt(2/(1+cosh eta)).")

print()
print("Full pipeline on a displaced vacuum with unequal lossy links:")
f1 = cv.FiberParams(t_mag=0.9)
f2 = cv.FiberParams(t_mag=0.6)
setup = cv.TeleportSetup(np.eye(2), zeta=1.0, f1=f1, f2=f2, kappa_in=np.array([1.0, -0.5]))
res = cv.teleport(setup)
print(f"  receiver covariance:\n{res.gamma_rec.round(6)}")
print(f"  zero-mean fidelity : {res.fidelity_zero_mean:.6f}")
print(f"  record gain        :\n{res.gain.round(6)}")
print(f"  infinite-squeezing gain (|T2/T1| = {f2.t_mag / f1.t_mag:.4f}):\n"
      f"{cv.ideal_displacement_gain(f1, f2).round(6)}")

print()
print("Monte-Carlo over homodyne records, displacement applied per record:")
matched = cv.teleport_monte_carlo(setup, n_samples=4000, seed=1)
limit_gain = cv.teleport_monte_carlo(setup, n_samples=4000, seed=1,
                                     gain=cv.ideal_displacement_gain(f1, f2))
print(f"  matched finite-squeezing gain : mean fidelity {matched:.6f}")
print(f"  infinite-squeezing gain       : mean fidelity {limit_gain:.6f}")
print("Using the limiting gain at finite squeezing costs fidelity, and the")
print("penalty grows with the signal displacement:")
for scale in (1.0, 2.0, 3.0):
    s = cv.TeleportSetup(np.eye(2), 1.0, f1, f2, kappa_in=scale * np.array([1.0, -0.5]))
    val = cv.teleport_monte_carlo(s, n_samples=4000, seed=1, gain=cv.ideal_displacement_gain(f1, f2))
    print(f"  |kappa| x {scale:.0f}: mean fidelity {val:.6f}")
