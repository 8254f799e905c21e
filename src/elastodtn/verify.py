"""The analytic benchmark solution, its H1 error oracle, and
convergence-rate fitting.

The benchmark (a rigid disk of radius 0.5 inside the unit circle) is
built so the scattered field is exactly the negative of the incident
field: u = grad H_0(k1 r) + curl H_0(k2 r), a pure n = 0 Fourier mode.
``errors_vs_exact`` integrates the true difference between it and a P1
field, so the driver's e_h column measures the genuine error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .assembly import ProblemConfig, SolutionField, check_finite, point_radii
from .errors import InsufficientData, InvalidParameter
from .specfun import hankel01

# 7-point degree-5 rule on the reference triangle (barycentric, weights sum 1)
_Q7_W = np.array(
    [0.225]
    + [(155.0 - math.sqrt(15.0)) / 1200.0] * 3
    + [(155.0 + math.sqrt(15.0)) / 1200.0] * 3
)
_a1 = (6.0 - math.sqrt(15.0)) / 21.0
_a2 = (6.0 + math.sqrt(15.0)) / 21.0
_Q7_BARY = np.array(
    [
        [1 / 3, 1 / 3, 1 / 3],
        [_a1, _a1, 1 - 2 * _a1],
        [_a1, 1 - 2 * _a1, _a1],
        [1 - 2 * _a1, _a1, _a1],
        [_a2, _a2, 1 - 2 * _a2],
        [_a2, 1 - 2 * _a2, _a2],
        [1 - 2 * _a2, _a2, _a2],
    ]
)


@dataclass(frozen=True)
class ConvergenceFit:
    points: list[tuple[float, float]]
    slope: float
    intercept: float
    r_squared: float


def _h0_derivatives(z):
    """(H_0, H_0' = -H_1, H_0'' = -H_1' = -(H_0 - H_1/z)) at the arguments z."""
    h0, h1 = hankel01(z)
    return h0, -h1, -(h0 - h1 / z)


def exact_solution_example1(config: ProblemConfig, points):
    """Benchmark scattered field and its Jacobian.

    u(x) = [k1 H0'(k1 r)/r] (x, y)^T + [k2 H0'(k2 r)/r] (y, -x)^T,
    equal to -u_inc of the hankel0 incident wave.  Returns (values,
    jacobians) with shapes (n, 2) and (n, 2, 2).
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    field = "the benchmark solution"
    r = point_radii(pts, field)
    k1, k2 = config.kappa1, config.kappa2
    x, y = pts[:, 0], pts[:, 1]

    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        _, dh0_1, ddh0_1 = _h0_derivatives(k1 * r)
        _, dh0_2, ddh0_2 = _h0_derivatives(k2 * r)

        g = k1 * dh0_1 / r
        k = k2 * dh0_2 / r
        gp = (k1**2 * ddh0_1 - g) / r
        kp = (k2**2 * ddh0_2 - k) / r

        values = np.empty((len(pts), 2), dtype=np.complex128)
        values[:, 0] = g * x + k * y
        values[:, 1] = g * y - k * x

        jac = np.empty((len(pts), 2, 2), dtype=np.complex128)
        jac[:, 0, 0] = g + gp * x * x / r + kp * x * y / r
        jac[:, 0, 1] = gp * x * y / r + k + kp * y * y / r
        jac[:, 1, 0] = gp * x * y / r - k - kp * x * x / r
        jac[:, 1, 1] = g + gp * y * y / r - kp * x * y / r
    check_finite(field, pts, values, jac)
    return values, jac


def errors_vs_exact(field: SolutionField) -> float:
    """H1 error ||u - u_h||_H1 of a P1 field against the benchmark.

    Degree-5 quadrature of the true difference; the exact solution and
    gradient are evaluated at the quadrature points, so the result is
    the genuine ||u - u_h|| rather than an interpolant distance.
    """
    mesh, cfg = field.mesh, field.config
    areas = mesh.areas
    pts = mesh.vertices[mesh.triangles]  # (T, 3, 2)
    u_el = field.values[mesh.triangles]
    Gh = field.jacobians

    l2 = np.zeros(len(areas))
    h1 = np.zeros(len(areas))
    for w, bary in zip(_Q7_W, _Q7_BARY):
        qp = np.einsum("i,tia->ta", bary, pts)
        uh = np.einsum("i,tia->ta", bary, u_el)
        ue, je = exact_solution_example1(cfg, qp)
        l2 += w * np.sum(np.abs(ue - uh) ** 2, axis=1)
        h1 += w * np.sum(np.abs(je - Gh) ** 2, axis=(1, 2))
    return math.sqrt(float(np.sum(l2 * areas) + np.sum(h1 * areas)))


def fit_rate(history, use: str = "e_h") -> ConvergenceFit:
    """Least-squares slope of log(error) vs log(DoF), skipping the first
    (pre-asymptotic) record.  use selects 'e_h' or 'eps_h'."""
    if use not in ("e_h", "eps_h"):
        raise InvalidParameter("use must be 'e_h' or 'eps_h'")
    pairs = []
    for rec in history.records[1:]:
        err = getattr(rec, use)
        if err is None:
            continue
        pairs.append((math.log(rec.dof), math.log(err)))
    if len(pairs) < 3:
        raise InsufficientData(
            f"need at least 3 usable records after the first, got {len(pairs)}"
        )
    xs, ys = np.array(pairs).T
    slope, intercept = np.polyfit(xs, ys, 1)
    fit = slope * xs + intercept
    ss_res = float(np.sum((ys - fit) ** 2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else max(0.0, 1.0 - ss_res / ss_tot)
    return ConvergenceFit(pairs, float(slope), float(intercept), r2)
