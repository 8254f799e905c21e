"""Reference functions that only the tests read.

They check the program from outside the package: none of them is called
by ``elastodtn``'s solver, CLI or benchmark paths.

* ``bessel_jy``: J_n by Miller's downward recurrence and Y_n by the
  forward recurrence from Y_0, Y_1.  Its Y_0, Y_1 seeds come from the
  program's ``specfun.hankel01``, so a Wronskian check over many orders
  also checks those seeds: the forward recurrence amplifies any error in
  them.
* ``hankel_ratio_gap``: the quantity whose decay makes the DtN truncation
  error exponentially small, formed from the program's ratio recurrence
  ``specfun._hankel_ratios``, which it therefore tests.
* The trace functions take a trace as node angles (strictly increasing in
  [0, 2pi)) and Cartesian complex values, one row per node.  They rotate
  to polar components first and integrate each arc with their own
  Gauss-Legendre rule, so they share neither the arithmetic nor the
  weights (``dtn.mode_weights``) of the program's ``outer_mode_basis``.
* ``exact_boundary_operator_example1`` and ``helmholtz_check``: the
  analytic boundary operator of the disk benchmark and finite-difference
  Helmholtz residuals of a field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from elastodtn.errors import InvalidParameter, OverflowRegime
from elastodtn.specfun import _RESCALE, _check_cap, _hankel_ratios, _orders, hankel01
from elastodtn.verify import _h0_derivatives

TWO_PI = 2.0 * math.pi


# -- Bessel functions of integer order ---------------------------------------


def _miller_start(n_hi: int, z: float) -> int:
    """Start order of Miller's recurrence for J_0..J_{n_hi} at argument z.

    The start order sits above both the requested order and the turning
    point |z|; below the turning point the backward recurrence no longer
    separates J from Y and the classical start rule based on the order
    alone returns garbage.
    """
    top = max(n_hi, 1, int(math.ceil(z)) + 44)
    return top + int(math.ceil(10.0 + 2.0 * math.sqrt(top)))


def _miller_j(n_hi: int, z: float) -> np.ndarray:
    """J_0..J_{n_hi} by downward recurrence with sum normalization."""
    start = _miller_start(n_hi, z)
    f = np.zeros(start + 2)
    f[start] = 1e-300
    # a step grows |f| at most 1 + 2 start / z times, so one that ends
    # below limit cannot overflow in the next
    limit = _RESCALE / (1.0 + 2.0 * start / z)
    for n in range(start, 0, -1):
        f[n - 1] = (2.0 * n / z) * f[n] - f[n + 1]
        if abs(f[n - 1]) > limit:
            f *= 2.0 ** -math.frexp(f[n - 1])[1]
    s = f[0] + 2.0 * f[2::2].sum()
    return f[: n_hi + 1] / s


def bessel_jy(n_max: int, z: float) -> tuple[np.ndarray, np.ndarray]:
    """(J, Y): J_n(z) and Y_n(z) for n = 0..n_max, order n at index n.

    Y_0 and Y_1 are the imaginary parts of the program's hankel01(z), so
    its errors for z <= 0 or a non-finite z are hankel01's.  Raises
    InvalidParameter for n_max < 0, OrderCapExceeded above order 1024 and
    OverflowRegime at the first order whose |Y_n(z)| is not a finite
    double.
    """
    if n_max < 0:
        raise InvalidParameter("n_max must be nonnegative")
    _check_cap(n_max)
    h0, h1 = hankel01(np.array([z]))
    Y = [float(h0[0].imag), float(h1[0].imag)][: n_max + 1]
    for n in range(1, n_max):
        y = (2.0 * n / z) * Y[n] - Y[n - 1]
        if not math.isfinite(y):
            raise OverflowRegime(
                f"|Y_{n + 1}({z})| is not representable as a double; "
                f"reduce the order (requested n_max={n_max})"
            )
        Y.append(y)
    return _miller_j(n_max, z), np.array(Y)


def hankel_ratio_gap(ns, kappa1: float, kappa2: float, R_hat: float, R: float) -> np.ndarray:
    """|H_n(k1 R)/H_n(k1 Rh) - H_n(k2 R)/H_n(k2 Rh)| at the integer orders
    ns >= 0 (a 1-d array, validated as in mode_scalar_arrays), from one
    ratio recurrence per argument."""
    if not (0.0 < R_hat < R):
        raise InvalidParameter("radii must satisfy 0 < R_hat < R")
    ns = _orders(ns)
    if kappa1 == kappa2:
        return np.zeros(ns.size)
    top = int(ns.max())
    ratios = []
    for kappa in (kappa1, kappa2):
        # H_n(a)/H_n(b) = [H_0(a)/H_0(b)] prod_{m=1..n} rho_m(b)/rho_m(a)
        a, b = kappa * R, kappa * R_hat
        h0 = hankel01(np.array([a, b]))[0]
        steps = _hankel_ratios(top, b)[1:] / _hankel_ratios(top, a)[1:]
        ratios.append((h0[0] / h0[1]) * np.concatenate([[1.0], np.cumprod(steps)])[ns])
    return np.abs(ratios[0] - ratios[1])


# -- traces on the outer circle ----------------------------------------------

# 20-point Gauss-Legendre rule on [0, 1]: on an arc of width d the integrand
# is a hat function times e^{-i n theta}, analytic with |n| d well below 20
# on every trace the tests build
_GL_T, _GL_W = np.polynomial.legendre.leggauss(20)
_GL_T, _GL_W = 0.5 * (_GL_T + 1.0), 0.5 * _GL_W


def _arc_widths(node_angles: np.ndarray) -> np.ndarray:
    """Width of the arc from each node to the next, the last closing the circle."""
    theta = np.asarray(node_angles, dtype=np.float64)
    return np.append(theta[1:], theta[0] + TWO_PI) - theta


def polar_components(node_angles: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Nodal values rotated to (radial, tangential) components."""
    c, s = np.cos(node_angles), np.sin(node_angles)
    vx, vy = values[:, 0], values[:, 1]
    return np.stack([vx * c + vy * s, -vx * s + vy * c], axis=1)


def fourier_coefficients(node_angles: np.ndarray, values: np.ndarray, N: int) -> np.ndarray:
    """(2N+1, 2) polar-component mode coefficients, mode n at row N + n:
    (1/2pi) times the integral of the piecewise-linear polar interpolant
    times e^{-i n theta}, by Gauss-Legendre quadrature on each arc."""
    theta = np.asarray(node_angles, dtype=np.float64)
    delta = _arc_widths(theta)
    p = polar_components(theta, values)
    ns = np.arange(-N, N + 1)
    phase = np.exp(-1j * ns[:, None, None] * (theta[:, None] + delta[:, None] * _GL_T))
    start = delta * (phase @ (_GL_W * (1.0 - _GL_T)))  # (2N+1, K): the hat of the arc's start
    end = delta * (phase @ (_GL_W * _GL_T))  # the hat of its end, the next node
    return (start @ p + end @ np.roll(p, -1, axis=0)) / TWO_PI


def trace_l2_sq(node_angles: np.ndarray, values: np.ndarray, radius: float) -> float:
    """Squared circle L2 norm of the piecewise-linear polar interpolant."""
    p = polar_components(node_angles, values)
    q = np.roll(p, -1, axis=0)
    arc = (
        np.sum(np.abs(p) ** 2 + np.abs(q) ** 2, axis=1)
        + np.sum((p * q.conj()).real, axis=1)
    ) / 3.0
    return radius * float(np.sum(_arc_widths(node_angles) * arc))


def dtn_boundary_form(spectrum, node_angles: np.ndarray, u: np.ndarray, v: np.ndarray) -> complex:
    """2 pi R sum_{|n|<=N} (M_n u_n) . conj(v_n) for two traces on the same
    nodes, M_n from the DtnSpectrum spectrum.

    This is the positive boundary integral; the variational form subtracts
    it.  Conjugate-linear in the second argument.
    """
    N = spectrum.truncation_n
    cu, cv = (fourier_coefficients(node_angles, t, N) for t in (u, v))
    total = np.einsum("mab,mb,ma->", spectrum.matrix_stack(), cu, cv.conj())
    return TWO_PI * spectrum.radius * complex(total)


# -- the disk benchmark and Helmholtz residuals ------------------------------


def exact_boundary_operator_example1(config):
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


@dataclass(frozen=True)
class HelmholtzReport:
    """Relative Helmholtz residuals of div u (kappa1) and curl u (kappa2),
    plus the largest |curl u| seen (for curl-free fields)."""

    div_residual: float
    curl_residual: float
    curl_max: float


def helmholtz_check(field_fn, config, points, step: float = 1e-3) -> HelmholtzReport:
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
