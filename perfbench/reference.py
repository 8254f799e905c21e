"""Reference computations that do not go through the program's own
special functions or oracles.

Every Bessel/Hankel value here comes from ``scipy.special`` (AMOS), so a
fault in ``elastodtn.specfun`` or ``elastodtn.verify`` cannot hide in a
comparison against these values.  P1 geometry is recomputed from the
vertex coordinates.

``scipy.special`` is imported where it is used, after the timed work: the
program does not import it, so importing it up front would add ~40 ms of
the benchmark's own work to ``setup_s``.
"""

from __future__ import annotations

import math

import numpy as np

# 7-point degree-5 rule on the reference triangle: barycentric points and
# weights summing to 1 (Radon's rule).
_S15 = math.sqrt(15.0)
_A1, _A2 = (6.0 - _S15) / 21.0, (6.0 + _S15) / 21.0
_W1, _W2 = (155.0 - _S15) / 1200.0, (155.0 + _S15) / 1200.0
QUAD_BARY = np.array(
    [[1 / 3, 1 / 3, 1 / 3]]
    + [np.roll([1 - 2 * _A1, _A1, _A1], k).tolist() for k in range(3)]
    + [np.roll([1 - 2 * _A2, _A2, _A2], k).tolist() for k in range(3)]
)
QUAD_W = np.array([9.0 / 40.0] + [_W1] * 3 + [_W2] * 3)


def wavenumbers(omega: float, lam: float, mu: float) -> tuple[float, float]:
    return omega / math.sqrt(lam + 2.0 * mu), omega / math.sqrt(mu)


# -- incident fields and the disk solution ---------------------------------


def disk_solution(points, omega, lam, mu):
    """Exact scattered field of the disk problem and its Jacobian.

    u = grad H0(k1 r) + curl H0(k2 r) with curl psi = (d_y psi, -d_x psi),
    which equals -u_inc for the hankel0 incident wave.  With
    g(r) = k1 H1(k1 r)/r and h(r) = k2 H1(k2 r)/r this is
    u = (-g x - h y, -g y + h x).  Returns values (n, 2) and
    J[:, a, b] = d u_a / d x_b, shape (n, 2, 2).
    """
    from scipy import special

    pts = np.asarray(points, dtype=np.float64)
    x, y = pts[:, 0], pts[:, 1]
    r = np.hypot(x, y)
    k1, k2 = wavenumbers(omega, lam, mu)

    def radial(k):
        z = k * r
        h0, h1 = special.hankel1(0, z), special.hankel1(1, z)
        f = k * h1 / r
        # d/dr [k H1(kr)/r] with H1'(z) = H0(z) - H1(z)/z
        df = (k * k * (h0 - h1 / z) - f) / r
        return f, df

    g, dg = radial(k1)
    h, dh = radial(k2)
    u = np.empty((len(pts), 2), dtype=np.complex128)
    u[:, 0] = -g * x - h * y
    u[:, 1] = -g * y + h * x
    xx, xy, yy = x * x / r, x * y / r, y * y / r
    J = np.empty((len(pts), 2, 2), dtype=np.complex128)
    J[:, 0, 0] = -g - dg * xx - dh * xy
    J[:, 0, 1] = -h - dg * xy - dh * yy
    J[:, 1, 0] = h - dg * xy + dh * xx
    J[:, 1, 1] = -g - dg * yy + dh * xy
    return u, J


def hankel0_incident(points, omega, lam, mu):
    """u_inc of the hankel0 wave, the negative of the disk solution:
    (g x + h y, g y - h x) with g, h as in ``disk_solution``."""
    from scipy import special

    pts = np.asarray(points, dtype=np.float64)
    x, y = pts[:, 0], pts[:, 1]
    r = np.hypot(x, y)
    k1, k2 = wavenumbers(omega, lam, mu)
    g = k1 * special.hankel1(1, k1 * r) / r
    h = k2 * special.hankel1(1, k2 * r) / r
    return np.column_stack([g * x + h * y, g * y - h * x])


def plane_incident(points, omega, lam, mu, direction=(1.0, 0.0)):
    """Compressional plane wave d exp(i k1 x.d)."""
    d = np.asarray(direction, dtype=np.float64)
    d = d / np.linalg.norm(d)
    k1, _ = wavenumbers(omega, lam, mu)
    phase = np.exp(1j * k1 * (np.asarray(points, dtype=np.float64) @ d))
    return phase[:, None] * d[None, :]


# -- P1 quantities ---------------------------------------------------------


def p1_gradients(vertices, triangles):
    """(areas, grads) with grads[t, i] the gradient of barycentric i."""
    p = vertices[triangles]
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    areas = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
    # grad lambda_i = rot90(p_{i+2} - p_{i+1}) / (2 A), rot90(v) = (-v_y, v_x)
    edge = np.roll(p, -2, axis=1) - np.roll(p, -1, axis=1)
    grads = np.stack([-edge[..., 1], edge[..., 0]], axis=-1)
    return areas, grads / (2.0 * areas)[:, None, None]


def p1_h1_norm(vertices, triangles, values) -> float:
    """H1 norm of the P1 interpolant with the given nodal values."""
    areas, grads = p1_gradients(vertices, triangles)
    u = values[triangles]  # (T, 3, 2)
    mass = (areas / 12.0) * (
        np.sum(np.abs(u.sum(axis=1)) ** 2, axis=1) + np.sum(np.abs(u) ** 2, axis=(1, 2))
    )
    G = np.einsum("tia,tib->tab", u, grads)
    return math.sqrt(float(np.sum(mass) + np.sum(areas * np.sum(np.abs(G) ** 2, axis=(1, 2)))))


def disk_h1_error(vertices, triangles, values, omega, lam, mu) -> float:
    """||u - u_h||_H1 against the exact disk solution, degree-5 quadrature."""
    areas, grads = p1_gradients(vertices, triangles)
    u_el = values[triangles]
    Gh = np.einsum("tia,tib->tab", u_el, grads)
    p = vertices[triangles]
    total = 0.0
    for w, bary in zip(QUAD_W, QUAD_BARY):
        ue, Je = disk_solution(np.einsum("i,tia->ta", bary, p), omega, lam, mu)
        uh = np.einsum("i,tia->ta", bary, u_el)
        local = np.sum(np.abs(ue - uh) ** 2, axis=1) + np.sum(np.abs(Je - Gh) ** 2, axis=(1, 2))
        total += w * float(np.sum(areas * local))
    return math.sqrt(total)


def truncation_bound(N: int, q: float, u_inc_h1: float) -> float:
    """eps_N = max_{n >= N} n q^n ||u_inc||, by a direct scan far past
    the peak of n q^n."""
    n = np.arange(N, N + 4000, dtype=np.float64)
    return float(np.max(n * q**n)) * u_inc_h1


# -- DtN mode quantities ---------------------------------------------------


def dtn_modes(ns, omega, lam, mu, R):
    """alpha_1n, alpha_2n, Lambda_n and the raw (unsimplified) M_n.

    alpha_jn = k_j H_n'(k_j R) / H_n(k_j R).  The matrix entries are the
    traction of the outgoing mode written out through H_n'' before any
    simplification; ``dtn.mode_matrix`` uses the reduced closed form, so
    agreement checks the algebra as well as the special functions.
    Returns (alpha1, alpha2, Lambda, M) with M of shape (len(ns), 2, 2).
    """
    from scipy import special

    n = np.asarray(ns, dtype=np.float64)
    k1, k2 = wavenumbers(omega, lam, mu)

    def ratios(k):
        z = k * R
        h = special.hankel1(n, z)
        return k * special.h1vp(n, z) / h, k * k * special.h1vp(n, z, 2) / h

    a1, d1 = ratios(k1)
    a2, d2 = ratios(k2)
    nR, nR2 = 1j * n / R, (n / R) ** 2
    lam_n = nR2 - a1 * a2
    # traction of the compressional potential along e_r
    p_rad = (lam + 2.0 * mu) * d1 + (lam + mu) * (a1 / R - nR2)
    M = np.empty((len(n), 2, 2), dtype=np.complex128)
    M[:, 0, 0] = mu * nR2 * (a2 - 1.0 / R) - a2 * p_rad
    M[:, 0, 1] = mu * nR * a1 * (a2 - 1.0 / R) - nR * p_rad
    M[:, 1, 0] = -mu * nR * a2 * (a1 - 1.0 / R) + mu * nR * d2
    M[:, 1, 1] = mu * nR2 * (a1 - 1.0 / R) - mu * a1 * d2
    return a1, a2, lam_n, M / lam_n[:, None, None]
