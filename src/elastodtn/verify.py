"""Independent oracles: the analytic benchmark solution, Helmholtz
decomposition residual checks, and convergence-rate fitting.

The benchmark (a rigid disk of radius 0.5 inside the unit circle) is
built so the scattered field is exactly the negative of the incident
field: u = grad H_0(k1 r) + curl H_0(k2 r), a pure n = 0 Fourier mode.
Every differential check here uses finite differences rather than the
library's own derivative formulas, so the oracles stay independent of
the code paths they validate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .assembly import ProblemConfig, SolutionField
from .errors import InsufficientData, InvalidParameter, OriginEvaluation
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


@dataclass(frozen=True)
class HelmholtzReport:
    """Relative Helmholtz residuals of div u (kappa1) and curl u (kappa2),
    plus the largest |curl u| seen (for curl-free fields)."""

    div_residual: float
    curl_residual: float
    curl_max: float


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
    r = np.linalg.norm(pts, axis=1)
    if np.any(r == 0.0):
        raise OriginEvaluation("benchmark solution is singular at the origin")
    k1, k2 = config.kappa1, config.kappa2
    x, y = pts[:, 0], pts[:, 1]

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
    return values, jac


def exact_boundary_operator_example1(config: ProblemConfig):
    """Analytic boundary operator B u at r = R, polar components.

    Evaluated through the potential form: with phi = H0(k1 r) and
    psi = H0(k2 r), the n = 0 trace has u = phi' e_r - psi' e_theta,
    div u = Lap phi = -k1^2 phi, and

        (B u)_r = mu k1^2 H0''(k1 R) - (lam + mu) k1^2 H0(k1 R),
        (B u)_theta = -mu k2^2 H0''(k2 R).

    Returns ((Bu_r, Bu_theta), (u_r, u_theta)) so the DtN identity
    B u = M_0 u can be checked against the mode matrix.
    """
    k1, k2, R = config.kappa1, config.kappa2, config.R
    h0_1, dh0_1, ddh0_1 = _h0_derivatives(np.array([k1 * R]))
    _, dh0_2, ddh0_2 = _h0_derivatives(np.array([k2 * R]))
    bu = np.array(
        [
            config.mu * k1**2 * ddh0_1[0]
            - (config.lam + config.mu) * k1**2 * h0_1[0],
            -config.mu * k2**2 * ddh0_2[0],
        ]
    )
    u = np.array([k1 * dh0_1[0], -k2 * dh0_2[0]])
    return bu, u


def helmholtz_check(field_fn, config: ProblemConfig, points, step: float = 1e-3) -> HelmholtzReport:
    """Finite-difference Helmholtz residuals of div u and curl u.

    field_fn maps an (n, 2) point array to (n, 2) complex values.  The
    first derivatives use central differences at the given step; the
    Laplacian reuses the same step in a 5-point stencil, so rounding
    noise stays at eps/step^3 of the field scale.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    k1, k2 = config.kappa1, config.kappa2

    ex = np.array([step, 0.0])
    ey = np.array([0.0, step])

    def div_curl(q):
        fxp, fxm = field_fn(q + ex), field_fn(q - ex)
        fyp, fym = field_fn(q + ey), field_fn(q - ey)
        d = (fxp[:, 0] - fxm[:, 0] + fyp[:, 1] - fym[:, 1]) / (2 * step)
        c = (fxp[:, 1] - fxm[:, 1] - fyp[:, 0] + fym[:, 0]) / (2 * step)
        return d, c

    d0, c0 = div_curl(pts)
    dxp, cxp = div_curl(pts + ex)
    dxm, cxm = div_curl(pts - ex)
    dyp, cyp = div_curl(pts + ey)
    dym, cym = div_curl(pts - ey)
    lap_d = (dxp + dxm + dyp + dym - 4 * d0) / step**2
    lap_c = (cxp + cxm + cyp + cym - 4 * c0) / step**2

    def rel(residual, scale):
        top = float(np.max(np.abs(residual)))
        bottom = float(np.max(np.abs(scale)))
        return top / bottom if bottom > 0.0 else 0.0

    return HelmholtzReport(
        div_residual=rel(lap_d + k1**2 * d0, k1**2 * d0),
        curl_residual=rel(lap_c + k2**2 * c0, k2**2 * c0),
        curl_max=float(np.max(np.abs(c0))),
    )


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
