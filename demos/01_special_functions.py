# Cylinder-function machinery underneath the DtN operator.
#
# Everything the solver needs reduces to Bessel/Hankel evaluations of
# integer order: moderate arguments (kappa * R is at most a few tens)
# but orders in the hundreds, far beyond where |Y_n| overflows a double.
# This walk-through shows the raw values, the Wronskian consistency
# check, and the two asymptotic facts that make the truncated operator
# trustworthy.

import numpy as np

from elastodtn import bessel_jy, hankel_ratio_gap, mode_scalar_arrays

np.set_printoptions(precision=6)

# --- values and the Wronskian ---------------------------------------------
# J_{n+1} Y_n - J_n Y_{n+1} = 2 / (pi z) ties the two kinds together; a
# broken recurrence shows up here immediately.

z = 3.0
J, Y = bessel_jy(8, z)  # orders 0..8 from one call
print("n, J_n(3), Y_n(3):")
for n in range(5):
    print(f"  {n}  {J[n]:+.12f}  {Y[n]:+.12f}")

wronskian = J[1:] * Y[:-1] - J[:-1] * Y[1:]
print("max |Wronskian - 2/(pi z)| =", np.max(np.abs(wronskian - 2 / (np.pi * z))))


# --- derivatives -----------------------------------------------------------
# H_n' = H_{n-1} - (n/z) H_n needs only the orders at z itself.
def hankel_ladder(n_max, z):
    J, Y = bessel_jy(n_max, z)
    return J + 1j * Y


H = hankel_ladder(7, 4.0)
fd = (hankel_ladder(7, 4.0 + 1e-6)[7] - hankel_ladder(7, 4.0 - 1e-6)[7]) / 2e-6
print(f"\nH_7'(4.0) = {H[6] - 7 / 4.0 * H[7]:.10f}, finite difference {fd:.10f}")

# --- the scattering scalars ------------------------------------------------
# alpha_jn = kappa_j H_n'(kappa_j r) / H_n(kappa_j r) and
# Lambda_n = (n/r)^2 - alpha_1n alpha_2n drive every mode matrix.  For
# large |n|, Lambda_n tends to (kappa_1^2 + kappa_2^2) / 2, which is why
# high modes contribute a uniformly bounded, rapidly decaying correction.

k1, k2 = np.pi / 2, np.pi
target = (k1**2 + k2**2) / 2
ns = np.array([8, 32, 128, 512])
_, _, lambda_n = mode_scalar_arrays(ns, k1, k2, 1.0)  # one recurrence per wavenumber
print("\nn, Lambda_n(1), |Lambda_n - (k1^2+k2^2)/2| * n:")
for n, lam in zip(ns, lambda_n):
    print(f"  {n:4d}  {lam:+.6f}  {abs(lam - target) * n:.4f}")

# Note the order 512 evaluation: |Y_512(pi/2)| ~ 1e1200, yet the ratio
# arithmetic stays entirely in range.

# --- the ratio gap that controls truncation --------------------------------
# |H_n(k1 R)/H_n(k1 Rh) - H_n(k2 R)/H_n(k2 Rh)| decays like (Rh/R)^n.
# This is the quantity whose exponential decay justifies cutting the
# DtN series at a few dozen modes.

print("\nn, ratio gap, bound k2(k2-k1)(R^2-Rh^2)(Rh/R)^n/(n-1):")
ns = np.array([30, 60, 90, 120])
gaps = hankel_ratio_gap(ns, k1, k2, 0.5, 1.0)  # one recurrence per argument
bounds = k2 * (k2 - k1) * 0.75 * 0.5**ns / (ns - 1)
for n, g, bound in zip(ns, gaps, bounds):
    print(f"  {n:4d}  {g:.3e}  {bound:.3e}")
