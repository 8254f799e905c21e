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
so no quadrature tolerance enters the operator.  ``outer_mode_basis`` is
the one map from the nodal values on the outer circle to those
coefficients; the dense DtN block, the Galerkin residual and the
estimator's outer-edge jumps all read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import EmptyBoundary, InvalidParameter, InvalidRadii
from .mesh import Mesh, format_rows
from .specfun import ModeScalars, mode_scalar_arrays

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class DtnSpectrum:
    """Truncated DtN operator of order N = truncation_n, as read-only arrays:
    matrices (2N+1, 2, 2) with M_n at row N + n, and alpha1, alpha2 and
    lambda_n of length N + 1 with the scalars of |n| = m at index m."""

    truncation_n: int
    radius: float
    omega: float
    lam: float
    mu: float
    kappa1: float
    kappa2: float
    matrices: np.ndarray
    alpha1: np.ndarray
    alpha2: np.ndarray
    lambda_n: np.ndarray

    def mode_numbers(self) -> np.ndarray:
        return np.arange(-self.truncation_n, self.truncation_n + 1)

    def matrix_stack(self) -> np.ndarray:
        """(2N+1, 2, 2) array ordered n = -N..N."""
        return self.matrices

    @cached_property
    def scalars(self) -> dict[int, ModeScalars]:
        """Per-mode view of the scalar arrays.  perfbench's spectrum_arrays is
        its only reader and indexes it once per mode, hence the cache."""
        ns = self.mode_numbers()
        cols = (a[np.abs(ns)].tolist() for a in (self.alpha1, self.alpha2, self.lambda_n))
        return {n: ModeScalars(n, self.kappa1, self.kappa2, self.radius, *s)
                for n, *s in zip(ns.tolist(), *cols)}


def _mode_matrices(ns, alpha1, alpha2, L, omega, mu, R) -> np.ndarray:
    """M_n for every n in ns from the simplified entry formulas, given
    alpha_1, alpha_2 and Lambda of each |n| in the same order."""
    w2 = omega * omega
    n12 = -(1j * ns * mu / R) * L + (1j * ns / R) * w2
    M = np.empty((len(ns), 2, 2), dtype=np.complex128)
    M[:, 0, 0] = -(mu / R) * L + alpha2 * w2
    M[:, 0, 1] = n12
    M[:, 1, 0] = -n12
    M[:, 1, 1] = -(mu / R) * L + alpha1 * w2
    return M / L[:, None, None]


def build_spectrum(config) -> DtnSpectrum:
    """All mode matrices |n| <= config.N for the given material and radius.

    config only needs attributes omega, lam, mu, R and N.  The scalars
    depend on |n| only: one Bessel ladder per wavenumber gives them for
    every m <= N, and each M_n reads the scalars of |n|.
    """
    N = int(config.N)
    if N < 0:
        raise InvalidParameter("truncation order N must be nonnegative")
    omega, lam, mu, R = config.omega, config.lam, config.mu, config.R
    kappa1 = omega / math.sqrt(lam + 2.0 * mu)
    kappa2 = omega / math.sqrt(mu)
    a1, a2, lambda_n = mode_scalar_arrays(np.arange(N + 1), kappa1, kappa2, R)
    ns = np.arange(-N, N + 1)
    m = np.abs(ns)
    M = _mode_matrices(ns, a1[m], a2[m], lambda_n[m], omega, mu, R)
    for a in (M, a1, a2, lambda_n):
        a.flags.writeable = False
    return DtnSpectrum(N, R, omega, lam, mu, kappa1, kappa2, M, a1, a2, lambda_n)


def _exp_moments(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """E(s) = int_0^1 e^{st} dt and G(s) = int_0^1 t e^{st} dt.

    Closed forms cancel catastrophically as s -> 0, so a truncated power
    series takes over below |s| = 0.5.
    """
    s = np.asarray(s, dtype=np.complex128)
    small = np.abs(s) < 0.5
    E = np.empty_like(s)
    G = np.empty_like(s)
    # each branch runs only where it is taken
    big, tiny = s[~small], s[small]
    es = np.exp(big)
    E[~small] = (es - 1.0) / big
    G[~small] = (big * es - es + 1.0) / (big * big)
    E_small = np.zeros_like(tiny)
    G_small = np.zeros_like(tiny)
    for k in range(18, -1, -1):
        E_small = E_small * tiny + 1.0 / math.factorial(k + 1)
        G_small = G_small * tiny + (k + 1.0) / math.factorial(k + 2)
    E[small] = E_small
    G[small] = G_small
    return E, G


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
        raise InvalidParameter("node angles must be strictly increasing")
    ns = np.asarray(ns, dtype=np.float64)
    delta = np.diff(np.concatenate([theta, [theta[0] + TWO_PI]]))
    s = -1j * ns[:, None] * delta[None, :]
    E, G = _exp_moments(s)
    phase = np.exp(-1j * ns[:, None] * theta[None, :])
    left = delta * phase * (E - G)
    right = delta * phase * G
    return (left + np.roll(right, 1, axis=1)) / TWO_PI


def outer_mode_basis(mesh: Mesh, ns: np.ndarray):
    """The trace map of the outer circle: (dofs, B) with B of shape
    (len(ns), 2, 2K) sending the Cartesian values at the K outer nodes,
    ``values.ravel()[dofs]``, to the polar coefficient pair of each mode,
    u_hat = B @ values.ravel()[dofs]."""
    idx, th = mesh.outer_vertex_order()
    W = mode_weights(th, ns)
    c, s = np.cos(th), np.sin(th)
    rot = np.empty((len(idx), 2, 2))
    rot[:, 0, 0] = c
    rot[:, 0, 1] = s
    rot[:, 1, 0] = -s
    rot[:, 1, 1] = c
    B = np.einsum("mj,jab->majb", W, rot).reshape(len(ns), 2, 2 * len(idx))
    dofs = np.column_stack([2 * idx, 2 * idx + 1]).ravel()
    return dofs, B


# Reference functions on a trace given as node angles (strictly increasing
# in [0, 2pi)) and Cartesian complex values, one row per node.  They rotate
# to polar components before the transform, so they check outer_mode_basis
# rather than share its arithmetic.


def polar_components(node_angles: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Nodal values rotated to (radial, tangential) components."""
    c, s = np.cos(node_angles), np.sin(node_angles)
    vx, vy = values[:, 0], values[:, 1]
    return np.stack([vx * c + vy * s, -vx * s + vy * c], axis=1)


def fourier_coefficients(node_angles: np.ndarray, values: np.ndarray, N: int) -> np.ndarray:
    """(2N+1, 2) polar-component mode coefficients, mode n at row N + n."""
    W = mode_weights(node_angles, np.arange(-N, N + 1))
    return W @ polar_components(node_angles, values)


def trace_l2_sq(node_angles: np.ndarray, values: np.ndarray, radius: float) -> float:
    """Squared circle L2 norm of the piecewise-linear polar interpolant."""
    p = polar_components(node_angles, values)
    q = np.roll(p, -1, axis=0)
    delta = np.diff(np.concatenate([node_angles, [node_angles[0] + TWO_PI]]))
    arc = (
        np.sum(np.abs(p) ** 2 + np.abs(q) ** 2, axis=1)
        + np.sum((p * q.conj()).real, axis=1)
    ) / 3.0
    return radius * float(np.sum(delta * arc))


def dtn_boundary_form(
    spectrum: DtnSpectrum, node_angles: np.ndarray, u: np.ndarray, v: np.ndarray
) -> complex:
    """2 pi R sum_{|n|<=N} (M_n u_n) . conj(v_n) for two traces on the same
    nodes.

    This is the positive boundary integral; the variational form subtracts
    it.  Conjugate-linear in the second argument.
    """
    N = spectrum.truncation_n
    cu, cv = (fourier_coefficients(node_angles, t, N) for t in (u, v))
    total = np.einsum("mab,mb,ma->", spectrum.matrix_stack(), cu, cv.conj())
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
    ns = spectrum.mode_numbers()
    L = spectrum.lambda_n[np.abs(ns)]
    # complex128 viewed as float64 interleaves Re and Im, in column order
    values = np.column_stack([spectrum.matrix_stack().reshape(-1, 4), L]).view(np.float64)
    header = ("# n  Re(M11) Im(M11)  Re(M12) Im(M12)  Re(M21) Im(M21)  Re(M22) Im(M22)"
              "  Re(Lambda) Im(Lambda)\n")
    return header + format_rows("%d" + " %+.12e" * 10 + "\n", ns, *values.T)
