# Plane-wave scattering by a U-shaped obstacle: corner singularities
# drive the refinement.
#
# No closed-form solution exists here.  A compressional plane wave with
# direction (1, 0) hits a U-shaped rigid obstacle inside the DtN circle
# R = 3 (Rh = 2.31, so the truncation order lands near a hundred).  The
# solution is singular at the re-entrant corners of the domain; the
# estimator must find them on its own, and the global estimate should
# still decay at the optimal DoF^{-1/2} rate.

import numpy as np

from elastodtn import adaptive_solve, example2_config, example2_mesh
from elastodtn.assembly import triangle_magnitudes
from elastodtn.verify import fit_rate

cfg = example2_config(tolerance=1e-12, max_iters=40)
print(f"selected truncation order N = {cfg.N} (Rh/R = {cfg.R_hat / cfg.R:.3f})")

mesh = example2_mesh()
print(f"start mesh: {len(mesh.vertices)} nodes, min angle {mesh.min_angle():.1f} deg")

history = adaptive_solve(cfg, mesh, max_dof=10_000)
print("\n  it    DoF     eps_h")
for r in history.records:
    print(f"  {r.iteration:2d} {r.dof:7d}  {r.eps_h:8.4f}")

fit = fit_rate(history, use="eps_h")
print(f"\neps_h ~ DoF^s with s = {fit.slope:.3f} (optimal -0.5)")

# --- where did the estimator put the effort? --------------------------------
report = history.report
final = history.field.mesh
corners = np.array(
    [(-2.0, -0.7), (2.2, -0.7), (2.2, -0.1), (-1.4, -0.1),
     (-1.4, 0.1), (2.2, 0.1), (2.2, 0.7), (-2.0, 0.7)]
)
order = np.argsort(report.eta)[::-1][:10]
print("\nten largest eta_K, distance from nearest obstacle corner:")
for t in order:
    c = final.vertices[final.triangles[t]].mean(axis=0)
    d = np.min(np.linalg.norm(corners - c, axis=1))
    print(f"  eta = {report.eta[t]:.4f}  at ({c[0]:+.3f}, {c[1]:+.3f})  corner dist {d:.3f}")

mags = triangle_magnitudes(history.field)
shadow = final.vertices[final.triangles].mean(axis=1)
behind = mags[shadow[:, 0] > 2.4].mean()
front = mags[shadow[:, 0] < -2.2].mean()
print(f"\nmean |u| ahead of the obstacle (x < -2.2): {front:.3f}")
print(f"mean |u| in the shadow zone    (x > 2.4): {behind:.3f}")
