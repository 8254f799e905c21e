# The truncated DtN operator: mode matrices, trace transforms, and the
# truncation budget.
#
# On the circle r = R the scattered field's traction is a multiplication
# operator in Fourier space: mode n of the (radial, tangential) trace is
# hit by a dense complex 2x2 matrix M_n.  Cutting the series at |n| <= N
# commits a truncation error eps_N that decays exponentially, so N can
# be chosen once, up front, from a simple budget.

import numpy as np

from elastodtn import (
    build_spectrum,
    example1_config,
    select_truncation,
    truncation_error,
)
from elastodtn.dtn import BoundaryTrace, dtn_boundary_form, fourier_coefficients

cfg = example1_config(N=6)
spec = build_spectrum(cfg)

print("mode matrices (note diagonal even in n, off-diagonal odd):")
for n in (0, 1, -1, 4):
    print(f"M_{n} =\n{np.round(spec.matrix_stack()[cfg.N + n], 4)}")

# --- trace coefficients in closed form --------------------------------------
# A finite element trace is piecewise linear in the angle; its Fourier
# coefficients are integrated arc by arc in closed form, n = 0 reducing
# to the trapezoid rule.  A constant Cartesian vector is a pure |n| = 1
# pattern once rotated to polar components:

theta = 2 * np.pi * np.arange(48) / 48
values = np.zeros((48, 2), dtype=complex)
values[:, 0] = 1.0
trace = BoundaryTrace(theta, values)
coeffs = fourier_coefficients(trace, 3)
for n in range(-3, 4):
    print(f"  u_hat_{n:+d} = {np.round(coeffs[n], 6)}")

# --- the boundary form -------------------------------------------------------
value = dtn_boundary_form(spec, trace, trace)
print("boundary form <T_N u, u> for the constant trace:", value)

# --- choosing N ---------------------------------------------------------------
# eps_N = max_{|n| >= N} |n| (Rh/R)^|n| ||u_inc||_H1.  The budget 1e-8
# keeps the truncation far below any discretization error seen in runs.

print("\nN, eps_N (Rh/R = 0.5, unit incident norm):")
for N in (4, 8, 16, 32):
    print(f"  {N:3d}  {truncation_error(N, 0.5, 1.0, 1.0):.3e}")

for q in (0.5, 0.77):
    n_needed = select_truncation(q, 1.0, 1.0, 1e-8)
    print(f"smallest N with eps_N <= 1e-8 at Rh/R = {q}: {n_needed}")
