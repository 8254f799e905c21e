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
coefficients; assembly's DtN coupling (B^H and M B, in either form),
the Galerkin residual and the estimator's outer-edge jumps all read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (EmptyBoundary, InvalidParameter, InvalidRadii, OrderCapExceeded,
                     OverflowRegime, check_count)
from .mesh import Mesh, format_rows
from .specfun import MAX_ORDER, ModeScalars, mode_scalar_arrays

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

    config is a ProblemConfig (omega, lam, mu, R, N and the wavenumbers
    kappa1, kappa2).  The scalars depend on |n| only: one Hankel ratio
    recurrence per wavenumber gives them for every m <= N, and each M_n
    reads the scalars of |n|.  Raises OverflowRegime, naming omega, where
    a scalar, omega^2 or an entry of M is not a finite normal double.
    """
    N = config.N
    omega, lam, mu, R = config.omega, config.lam, config.mu, config.R
    kappa1, kappa2 = config.kappa1, config.kappa2
    try:
        a1, a2, lambda_n = mode_scalar_arrays(np.arange(N + 1), kappa1, kappa2, R)
    except (InvalidParameter, OverflowRegime) as exc:  # out of range: name omega
        raise type(exc)(f"omega = {omega:g}: {exc}") from None
    ns = np.arange(-N, N + 1)
    m = np.abs(ns)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        M = _mode_matrices(ns, a1[m], a2[m], lambda_n[m], omega, mu, R)
    if not (np.isfinite(M).all() and omega * omega >= np.finfo(np.float64).tiny):
        raise OverflowRegime(f"the mode matrices at omega = {omega:g} are not "
                             f"representable in double precision")
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


def _arcs(theta: np.ndarray) -> np.ndarray:
    """Angular lengths of the arcs from each node to the next, the last
    closing the circle; the nodes must increase strictly within one turn."""
    if theta.size < 3:
        raise EmptyBoundary(f"need at least 3 boundary nodes, got {theta.size}")
    delta = np.diff(np.concatenate([theta, [theta[0] + TWO_PI]]))
    if np.any(delta <= 0.0):
        raise InvalidParameter("node angles must be strictly increasing within one turn")
    return delta


def mode_weights(node_angles: np.ndarray, ns: np.ndarray) -> np.ndarray:
    """Hat-function Fourier transform matrix W with W[k, j] the coefficient
    weight of node j in mode ns[k]:  u_hat_n = sum_j W[n, j] u_j.

    Exact for the piecewise-linear (in theta) interpolant on the closed
    circle; the n = 0 row reduces to the trapezoid rule.
    """
    theta = np.asarray(node_angles, dtype=np.float64)
    delta = _arcs(theta)
    ns = np.asarray(ns, dtype=np.float64)
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
    u_hat = B @ values.ravel()[dofs].

    The map is built once per mesh and mode set and kept, read-only, in
    ``mesh.trace_maps``, so assembly and the estimator share it."""
    ns = np.asarray(ns)
    key = (ns.dtype.str, ns.tobytes())
    if key not in mesh.trace_maps:
        mesh.trace_maps[key] = _outer_mode_basis(mesh, ns)
    return mesh.trace_maps[key]


def _outer_mode_basis(mesh: Mesh, ns: np.ndarray):
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
    dofs.setflags(write=False)
    B.setflags(write=False)
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
    delta = _arcs(np.asarray(node_angles, dtype=np.float64))
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

    f(x) = x q^x rises up to x* = 1/ln(1/q) and falls after it, so the
    maximum over n >= N is f at max(N, floor x*) or at max(N, ceil x*).
    """
    check_count("truncation order N", N, 0)
    if not (0.0 < R_hat < R):
        raise InvalidRadii(f"need 0 < R_hat < R, got R_hat={R_hat}, R={R}")
    if not (0.0 <= u_inc_h1 < math.inf):
        raise InvalidParameter(f"u_inc_h1 must be finite and nonnegative, got {u_inc_h1}")
    q = R_hat / R
    peak = -1.0 / math.log(q)
    n = np.array([max(N, math.floor(peak)), max(N, math.ceil(peak))], dtype=np.float64)
    return float((n * q**n).max()) * u_inc_h1


def select_truncation(
    R_hat: float, R: float, u_inc_h1: float, tolerance: float = 1e-8
) -> int:
    """Smallest N in 0..MAX_ORDER (1024) with truncation_error(N) <= tolerance;
    raises OrderCapExceeded when no such order exists."""
    if not tolerance > 0.0:
        raise InvalidParameter("tolerance must be positive")
    for N in range(MAX_ORDER + 1):
        if truncation_error(N, R_hat, R, u_inc_h1) <= tolerance:
            return N
    raise OrderCapExceeded(
        f"truncation error above {tolerance:g} for every order up to the "
        f"supported maximum {MAX_ORDER} (R_hat/R = {R_hat:.12g}/{R:.12g})"
    )


def spectrum_table(spectrum: DtnSpectrum) -> str:
    """Plain-text dump of the mode matrices for cross-validation."""
    ns = spectrum.mode_numbers()
    L = spectrum.lambda_n[np.abs(ns)]
    # complex128 viewed as float64 interleaves Re and Im, in column order
    values = np.column_stack([spectrum.matrix_stack().reshape(-1, 4), L]).view(np.float64)
    header = ("# n  Re(M11) Im(M11)  Re(M12) Im(M12)  Re(M21) Im(M21)  Re(M22) Im(M22)"
              "  Re(Lambda) Im(Lambda)\n")
    return header + format_rows("%d" + " %+.12e" * 10 + "\n", ns, *values.T)
