# Cylinder-function machinery underneath the DtN operator.
#
# Everything the solver needs reduces to Hankel functions of integer
# order: moderate arguments (kappa * R is at most a few tens) but orders
# in the hundreds, far beyond where |Y_n| overflows a double.  This
# walk-through shows the program's H_0, H_1 kernel against scipy's AMOS
# routines, and the large-order behaviour of the scattering scalars that
# makes the truncated operator trustworthy.

import numpy as np
import scipy.special as sc

from elastodtn import mode_scalar_arrays
from elastodtn.specfun import hankel01

np.set_printoptions(precision=6)

# --- H_0 and H_1 against scipy -----------------------------------------------
# hankel01 evaluates both orders on a whole array at once: Miller's
# recurrence below z = 25, Hankel's asymptotic expansion from there on.

z = np.array([1e-6, 0.5, 3.0, 24.9, 25.0, 100.0, 1000.0])
h0, h1 = hankel01(z)
print("z, H_0(z), relative difference to scipy for H_0 and H_1:")
for x, a, d0, d1 in zip(z, h0, np.abs(h0 / sc.hankel1(0, z) - 1), np.abs(h1 / sc.hankel1(1, z) - 1)):
    print(f"  {x:9.3g}  {a:+.6e}  {d0:.1e}  {d1:.1e}")

wide = np.geomspace(1e-10, 2e3, 100_001)
worst = max(float(np.max(np.abs(h / sc.hankel1(nu, wide) - 1)))
            for nu, h in enumerate(hankel01(wide)))
print(f"largest relative difference over z in [1e-10, 2e3]: {worst:.1e}")

# --- the scattering scalars ------------------------------------------------
# alpha_jn = kappa_j H_n'(kappa_j r) / H_n(kappa_j r) and
# Lambda_n = (n/r)^2 - alpha_1n alpha_2n drive every mode matrix.  For
# large |n|, Lambda_n tends to (kappa_1^2 + kappa_2^2) / 2 with an error
# that decays like 1/n, which is why high modes contribute a uniformly
# bounded, rapidly decaying correction.

k1, k2 = np.pi / 2, np.pi
target = (k1**2 + k2**2) / 2
ns = np.array([8, 32, 128, 512])
_, _, lambda_n = mode_scalar_arrays(ns, k1, k2, 1.0)  # one recurrence per wavenumber
print("\nn, Lambda_n(1), |Lambda_n - (k1^2+k2^2)/2| * n:")
for n, lam in zip(ns, lambda_n):
    print(f"  {n:4d}  {lam:+.6f}  {abs(lam - target) * n:.4f}")

# Note the order 512 evaluation: |Y_512(pi/2)| ~ 1e1200, yet the ratio
# arithmetic stays entirely in range.
