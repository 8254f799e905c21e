# The truncated DtN operator: mode matrices, the trace map of a mesh, and
# the truncation budget.
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
    example1_mesh,
    select_truncation,
    truncation_error,
)
from elastodtn.dtn import outer_mode_basis

cfg = example1_config(N=6)
spec = build_spectrum(cfg)

print("mode matrices (note diagonal even in n, off-diagonal odd):")
for n in (0, 1, -1, 4):
    print(f"M_{n} =\n{np.round(spec.matrix_stack()[cfg.N + n], 4)}")

# --- the trace map of a mesh ---------------------------------------------------
# A finite element trace is piecewise linear in the angle; its Fourier
# coefficients are integrated arc by arc in closed form.  On a mesh, one
# matrix B maps the outer nodal values to every mode's polar pair, mode n
# at row N + n; the DtN coupling, the Galerkin residual and the
# estimator's outer-edge jumps all read it.  Rotated to polar components,
# the constant Cartesian vector (1, 0) is a pure |n| = 1 pattern and
# (0, e^{2i theta}) holds the modes 1 and 3.

mesh = example1_mesh(48, 1)
nodal = np.zeros((len(mesh.vertices), 2), dtype=complex)
nodal[:, 0] = 1.0
nodal[:, 1] = np.exp(2j * np.arctan2(mesh.vertices[:, 1], mesh.vertices[:, 0]))
dofs, B = outer_mode_basis(mesh, spec.mode_numbers())
coeffs = B @ nodal.ravel()[dofs]
print("\nB shape (2N+1, 2, 2K):", B.shape)
for n in range(-3, 4):
    print(f"  u_hat_{n:+d} = {np.round(coeffs[cfg.N + n], 6)}")

# The same coefficients by brute force: rotate the nodal values to polar
# components, interpolate them linearly in the angle on a fine grid and
# sum with the trapezoid rule.
idx, th = mesh.outer_vertex_order()
c, s = np.cos(th), np.sin(th)
polar = np.stack([c * nodal[idx, 0] + s * nodal[idx, 1], -s * nodal[idx, 0] + c * nodal[idx, 1]])
grid = np.linspace(0.0, 2 * np.pi, 2**16, endpoint=False)
trace = np.array([np.interp(grid, th, p.real, period=2 * np.pi)
                  + 1j * np.interp(grid, th, p.imag, period=2 * np.pi) for p in polar])
brute = np.exp(-1j * np.outer(spec.mode_numbers(), grid)) @ trace.T / grid.size
print("max |B u - fine-grid quadrature|:", f"{np.max(np.abs(coeffs - brute)):.1e}")

# --- choosing N ---------------------------------------------------------------
# eps_N = max_{|n| >= N} |n| (Rh/R)^|n| ||u_inc||_H1.  The budget 1e-8
# keeps the truncation far below any discretization error seen in runs.

print("\nN, eps_N (Rh/R = 0.5, unit incident norm):")
for N in (4, 8, 16, 32):
    print(f"  {N:3d}  {truncation_error(N, 0.5, 1.0, 1.0):.3e}")

for q in (0.5, 0.77):
    n_needed = select_truncation(q, 1.0, 1.0, 1e-8)
    print(f"smallest N with eps_N <= 1e-8 at Rh/R = {q}: {n_needed}")
