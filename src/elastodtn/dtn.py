r"""Truncated Dirichlet-to-Neumann operator on the outer circle.

The scattered displacement trace on the circle of radius R, expanded in
Fourier modes with polar components (u_n^r, u_n^theta), is mapped to the
boundary traction by 2x2 matrices

    M_n = (1/Lambda_n) [[ -(mu/R) L + a2 w^2,  -(i n mu/R) L + (i n/R) w^2 ],
                        [  (i n mu/R) L - (i n/R) w^2,  -(mu/R) L + a1 w^2 ]]

where a_j = alpha_{jn}(R), L = Lambda_n(R) and w the angular frequency.
Diagonal entries are even in n, off-diagonal odd, and M_21 = -M_12.

Fourier coefficients of finite element traces are computed in closed form
per boundary arc: the trace is piecewise linear in the angle, and
``int u(theta) exp(-i n theta) dtheta`` has an elementary antiderivative,
so no quadrature tolerance enters the operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import EmptyBoundary, InvalidParameter, InvalidRadii, NodeSetMismatch
from .specfun import ModeScalars, mode_scalars

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class DtnSpectrum:
    """Per-mode DtN matrices for |n| <= truncation_n, plus their scalars."""

    truncation_n: int
    radius: float
    omega: float
    lam: float
    mu: float
    kappa1: float
    kappa2: float
    modes: dict[int, np.ndarray]
    scalars: dict[int, ModeScalars]

    def mode_numbers(self) -> np.ndarray:
        return np.arange(-self.truncation_n, self.truncation_n + 1)

    def matrix_stack(self) -> np.ndarray:
        """(2N+1, 2, 2) array ordered n = -N..N."""
        return np.stack([self.modes[int(n)] for n in self.mode_numbers()])


@dataclass
class BoundaryTrace:
    """Displacement trace sampled at the mesh nodes of the outer circle.

    values are Cartesian complex 2-vectors per node; node_angles must be
    strictly increasing in [0, 2pi).  fourier holds polar-component mode
    coefficients once computed.
    """

    node_angles: np.ndarray
    values: np.ndarray
    fourier: dict[int, np.ndarray] | None = field(default=None)


def _mode_matrix(n: int, ms: ModeScalars, omega: float, mu: float, radius: float) -> np.ndarray:
    """M_n from the simplified entry formulas, given the scalars of |n|."""
    L = ms.lambda_n
    w2 = omega * omega
    R = radius
    n12 = -(1j * n * mu / R) * L + (1j * n / R) * w2
    M = np.array(
        [
            [-(mu / R) * L + ms.alpha2 * w2, n12],
            [-n12, -(mu / R) * L + ms.alpha1 * w2],
        ],
        dtype=np.complex128,
    )
    return M / L


def mode_matrix(n: int, omega: float, lam: float, mu: float, radius: float) -> np.ndarray:
    """Single DtN matrix M_n from the simplified entry formulas."""
    kappa1 = omega / math.sqrt(lam + 2.0 * mu)
    kappa2 = omega / math.sqrt(mu)
    ms = mode_scalars(n, kappa1, kappa2, radius)
    return _mode_matrix(n, ms, omega, mu, radius)


def build_spectrum(config) -> DtnSpectrum:
    """All mode matrices |n| <= config.N for the given material and radius.

    config only needs attributes omega, lam, mu, R and N.  The scalars
    depend on |n| only, so they are computed once for each pair +-n.
    """
    N = int(config.N)
    if N < 0:
        raise InvalidParameter("truncation order N must be nonnegative")
    omega, lam, mu, R = config.omega, config.lam, config.mu, config.R
    kappa1 = omega / math.sqrt(lam + 2.0 * mu)
    kappa2 = omega / math.sqrt(mu)
    # highest order first, so each argument's Bessel ladder is built once
    per_m = [mode_scalars(m, kappa1, kappa2, R) for m in range(N, -1, -1)][::-1]
    ns = range(-N, N + 1)
    modes = {n: _mode_matrix(n, per_m[abs(n)], omega, mu, R) for n in ns}
    scalars = {n: per_m[n] if n >= 0 else replace(per_m[-n], n=n) for n in ns}
    return DtnSpectrum(N, R, omega, lam, mu, kappa1, kappa2, modes, scalars)


def _exp_moments(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """E(s) = int_0^1 e^{st} dt and G(s) = int_0^1 t e^{st} dt.

    Closed forms cancel catastrophically as s -> 0, so a truncated power
    series takes over below |s| = 0.5.
    """
    s = np.asarray(s, dtype=np.complex128)
    small = np.abs(s) < 0.5
    safe = np.where(small, 1.0, s)
    es = np.exp(s)
    E_big = (es - 1.0) / safe
    G_big = (safe * es - es + 1.0) / (safe * safe)
    E_small = np.zeros_like(s)
    G_small = np.zeros_like(s)
    for k in range(18, -1, -1):
        E_small = E_small * s + 1.0 / math.factorial(k + 1)
        G_small = G_small * s + (k + 1.0) / math.factorial(k + 2)
    return np.where(small, E_small, E_big), np.where(small, G_small, G_big)


def mode_weights(node_angles: np.ndarray, ns: np.ndarray) -> np.ndarray:
    """Hat-function Fourier transform matrix W with W[k, j] the coefficient
    weight of node j in mode ns[k]:  u_hat_n = sum_j W[n, j] u_j.

    Exact for the piecewise-linear (in theta) interpolant on the closed
    circle; the n = 0 row reduces to the trapezoid rule.
    """
    theta = np.asarray(node_angles, dtype=np.float64)
    if theta.size < 3:
        raise EmptyBoundary(f"need at least 3 boundary nodes, got {theta.size}")
    if np.any(np.diff(theta) <= 0.0):
        raise ValueError("node angles must be strictly increasing")
    ns = np.asarray(ns, dtype=np.float64)
    delta = np.diff(np.concatenate([theta, [theta[0] + TWO_PI]]))
    s = -1j * ns[:, None] * delta[None, :]
    E, G = _exp_moments(s)
    phase = np.exp(-1j * ns[:, None] * theta[None, :])
    left = delta * phase * (E - G)
    right = delta * phase * G
    return (left + np.roll(right, 1, axis=1)) / TWO_PI


def polar_components(trace: BoundaryTrace) -> np.ndarray:
    """Nodal values rotated to (radial, tangential) components."""
    th = trace.node_angles
    c, s = np.cos(th), np.sin(th)
    vx, vy = trace.values[:, 0], trace.values[:, 1]
    return np.stack([vx * c + vy * s, -vx * s + vy * c], axis=1)


def fourier_coefficients(trace: BoundaryTrace, N: int) -> dict[int, np.ndarray]:
    """Polar-component mode coefficients of the trace for |n| <= N."""
    ns = np.arange(-N, N + 1)
    W = mode_weights(trace.node_angles, ns)
    coeffs = W @ polar_components(trace)
    out = {int(n): coeffs[i] for i, n in enumerate(ns)}
    trace.fourier = out
    return out


def trace_l2_sq(trace: BoundaryTrace, radius: float) -> float:
    """Squared circle L2 norm of the piecewise-linear polar interpolant."""
    p = polar_components(trace)
    q = np.roll(p, -1, axis=0)
    th = trace.node_angles
    delta = np.diff(np.concatenate([th, [th[0] + TWO_PI]]))
    arc = (
        np.sum(np.abs(p) ** 2 + np.abs(q) ** 2, axis=1)
        + np.sum((p * q.conj()).real, axis=1)
    ) / 3.0
    return radius * float(np.sum(delta * arc))


def dtn_boundary_form(
    spectrum: DtnSpectrum, trace_u: BoundaryTrace, trace_v: BoundaryTrace
) -> complex:
    """2 pi R sum_{|n|<=N} (M_n u_n) . conj(v_n).

    This is the positive boundary integral; the variational form subtracts
    it.  Conjugate-linear in the second argument.
    """
    if trace_u.node_angles.shape != trace_v.node_angles.shape or not np.allclose(
        trace_u.node_angles, trace_v.node_angles, rtol=0.0, atol=1e-12
    ):
        raise NodeSetMismatch("traces are sampled on different boundary node sets")
    N = spectrum.truncation_n
    cu = fourier_coefficients(trace_u, N)
    cv = fourier_coefficients(trace_v, N)
    total = 0.0 + 0.0j
    for n in range(-N, N + 1):
        total += np.dot(spectrum.modes[n] @ cu[n], cv[n].conj())
    return TWO_PI * spectrum.radius * complex(total)


def truncation_error(N: int, R_hat: float, R: float, u_inc_h1: float) -> float:
    """eps_N = max_{|n| >= N} |n| (R_hat/R)^{|n|} * ||u_inc||_{H1}.

    f(n) = n q^n peaks at n = 1/ln(1/q) and decays beyond, so scanning a
    window past both N and the peak finds the maximum exactly.
    """
    if not (0.0 < R_hat < R):
        raise InvalidRadii(f"need 0 < R_hat < R, got R_hat={R_hat}, R={R}")
    if u_inc_h1 < 0.0:
        raise InvalidParameter("u_inc_h1 must be nonnegative")
    q = R_hat / R
    width = int(math.ceil(2.0 / math.log(1.0 / q)))
    peak = int(math.ceil(1.0 / math.log(1.0 / q)))
    hi = max(N + width, peak + 1)
    n = np.arange(max(N, 0), hi + 1, dtype=np.float64)
    vals = n * q**n
    return float(vals.max(initial=0.0)) * u_inc_h1


def select_truncation(
    R_hat: float, R: float, u_inc_h1: float, tolerance: float = 1e-8
) -> int:
    """Smallest N >= 0 with truncation_error(N) <= tolerance."""
    if not tolerance > 0.0:
        raise InvalidParameter("tolerance must be positive")
    N = 0
    while truncation_error(N, R_hat, R, u_inc_h1) > tolerance:
        N += 1
    return N


def spectrum_table(spectrum: DtnSpectrum) -> str:
    """Plain-text dump of the mode matrices for cross-validation."""
    lines = [
        "# n  Re(M11) Im(M11)  Re(M12) Im(M12)  Re(M21) Im(M21)  Re(M22) Im(M22)"
        "  Re(Lambda) Im(Lambda)"
    ]
    for n in range(-spectrum.truncation_n, spectrum.truncation_n + 1):
        M = spectrum.modes[n]
        L = spectrum.scalars[n].lambda_n
        entries = " ".join(
            f"{M[i, j].real:+.12e} {M[i, j].imag:+.12e}"
            for i in range(2)
            for j in range(2)
        )
        lines.append(f"{n:d} {entries} {L.real:+.12e} {L.imag:+.12e}")
    return "\n".join(lines) + "\n"
