"""Vector P1 assembly and direct solve of the truncated variational problem.

The discrete form is

    b_N(u, v) = mu (grad u, grad v) + (lam + mu) (div u, div v)
                - omega^2 (u, v) - int_{dB_R} T_N u . conj(v) ds

with u = -u_inc on the obstacle boundary.  Stiffness and divergence terms
are closed-form for P1 (constant gradients); the mass term uses the
3-point edge-midpoint rule, exact for quadratics, so no quadrature
tolerance enters the chain.  The DtN term couples all outer-boundary
DOFs through the mode-weight matrix and is assembled as a dense block;
at desk scale the outer boundary carries O(sqrt(DoF)) nodes, so a sparse
direct factorization of the combined system stays cheap.

The assembled matrix is complex symmetric (A = A^T, not Hermitian):
every volume term is symmetric, and the DtN block inherits symmetry from
M_{-n} = M_n^T together with W_{-n} = conj(W_n).

solve() exploits the symmetric pattern: SuperLU orders the columns by
minimum degree on A^T + A and runs in symmetric mode, which builds its
elimination tree from A^T + A as well.  At 131 k free DoF this stores
20 M LU entries where the default COLAMD ordering stores 50 M.  The
ordering needs the mode: alone it filled 22 M entries at 33 k free DoF,
against 9.6 M for COLAMD and 4.2 M for both.  The matrix is indefinite
(the -omega^2 mass term and the complex DtN block), so threshold partial
pivoting keeps SuperLU's default threshold: without row interchanges the
relative residual grew with the frequency, to 2.6e-12 at omega = 8 pi
and 33 k free DoF, against 1e-13 with them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .dtn import BoundaryTrace, DtnSpectrum, mode_weights
from .errors import (
    InvalidRadii,
    MeshMismatch,
    OriginEvaluation,
    SingularElement,
    SingularSystem,
)
from .mesh import OBSTACLE, Mesh
from .specfun import hankel01

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class IncidentWave:
    """Incident-field descriptor.

    kind "hankel0": the axisymmetric combination of outgoing Hankel
    potentials used by the analytic benchmark (singular at the origin).
    kind "plane": compressional plane wave d exp(i kappa1 x.d).
    """

    kind: str = "plane"
    direction: tuple[float, float] = (1.0, 0.0)

    def __post_init__(self):
        if self.kind not in ("hankel0", "plane"):
            raise ValueError(f"unknown incident wave kind {self.kind!r}")


@dataclass(frozen=True)
class ProblemConfig:
    """Physical and algorithmic parameters of one scattering run."""

    omega: float
    lam: float
    mu: float
    R: float
    R_hat: float
    N: int
    incident: IncidentWave
    theta_mark: float = 0.5
    tolerance: float = 1e-2
    max_iters: int = 30

    def __post_init__(self):
        if not (self.mu > 0.0 and self.lam + self.mu > 0.0):
            raise ValueError("need mu > 0 and lam + mu > 0")
        if not self.omega > 0.0:
            raise ValueError("need omega > 0")
        if not (0.0 < self.R_hat < self.R):
            raise InvalidRadii(f"need 0 < R_hat < R, got R_hat={self.R_hat}, R={self.R}")

    @property
    def kappa1(self) -> float:
        return self.omega / math.sqrt(self.lam + 2.0 * self.mu)

    @property
    def kappa2(self) -> float:
        return self.omega / math.sqrt(self.mu)


@dataclass
class SolutionField:
    """Complex nodal displacement (Cartesian components) on a mesh."""

    mesh: Mesh
    config: ProblemConfig
    values: np.ndarray
    dirichlet_mask: np.ndarray

    @property
    def generation(self) -> int:
        return self.mesh.generation

    @property
    def dof(self) -> int:
        return len(self.mesh.vertices)


@dataclass
class LinearSystem:
    """Reduced system over the free (non-Dirichlet) DOFs."""

    matrix: sp.csc_matrix
    rhs: np.ndarray
    free_dofs: np.ndarray
    dirichlet_dofs: np.ndarray
    dirichlet_values: np.ndarray
    mesh: Mesh
    config: ProblemConfig


# -- incident fields -------------------------------------------------------


def incident_field(config: ProblemConfig, points) -> np.ndarray:
    """u_inc at an array of points, complex (n, 2) Cartesian."""
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if config.incident.kind == "plane":
        d = np.asarray(config.incident.direction, dtype=np.float64)
        d = d / np.linalg.norm(d)
        phase = np.exp(1j * config.kappa1 * (pts @ d))
        return phase[:, None] * d[None, :]
    r = np.linalg.norm(pts, axis=1)
    if np.any(r == 0.0):
        raise OriginEvaluation("hankel0 incident field is singular at the origin")
    k1, k2 = config.kappa1, config.kappa2
    _, _, dh0_1, _ = hankel01(k1 * r)
    _, _, dh0_2, _ = hankel01(k2 * r)
    a = -k1 * dh0_1 / r
    b = -k2 * dh0_2 / r
    out = np.empty((len(pts), 2), dtype=np.complex128)
    out[:, 0] = a * pts[:, 0] + b * pts[:, 1]
    out[:, 1] = a * pts[:, 1] - b * pts[:, 0]
    return out


def incident_h1(config: ProblemConfig, mesh: Mesh) -> float:
    """H1 norm of the P1 interpolant of the incident field."""
    values = incident_field(config, mesh.vertices)
    f = SolutionField(mesh, config, values, np.zeros(len(mesh.vertices), dtype=bool))
    return h1_norm(f)


# -- P1 building blocks ----------------------------------------------------


def p1_geometry(mesh: Mesh) -> tuple[np.ndarray, np.ndarray]:
    """(areas, grads) with grads[t, i] the constant gradient of the i-th
    barycentric basis function on triangle t."""
    p = mesh.vertices[mesh.triangles]
    areas = mesh.signed_areas()
    if np.any(areas < 1e-16):
        raise SingularElement("triangle area below 1e-16")
    grads = np.empty((len(areas), 3, 2))
    for i in range(3):
        pj = p[:, (i + 1) % 3]
        pk = p[:, (i + 2) % 3]
        grads[:, i, 0] = pj[:, 1] - pk[:, 1]
        grads[:, i, 1] = pk[:, 0] - pj[:, 0]
    grads /= 2.0 * areas[:, None, None]
    return areas, grads


def _mass3(areas: np.ndarray) -> np.ndarray:
    # 3-point midpoint rule, exact for degree 2; equals (A/12)(1 + delta_ij)
    return (areas / 12.0)[:, None, None] * (np.ones((3, 3)) + np.eye(3))


def element_matrices(mesh: Mesh, config: ProblemConfig) -> np.ndarray:
    """(T, 6, 6) complex element matrices of the volume part of b_N.

    Local DOF ordering is (v0x, v0y, v1x, v1y, v2x, v2y).
    """
    areas, grads = p1_geometry(mesh)
    T = len(areas)
    gg = np.einsum("tik,tjk->tij", grads, grads)
    m3 = _mass3(areas)
    scalar3 = config.mu * areas[:, None, None] * gg - config.omega**2 * m3
    out = np.zeros((T, 6, 6), dtype=np.complex128)
    out[:, 0::2, 0::2] = scalar3
    out[:, 1::2, 1::2] = scalar3
    div = (config.lam + config.mu) * areas[:, None, None, None, None] * np.einsum(
        "tia,tjb->tiajb", grads, grads
    )
    out += div.reshape(T, 6, 6)
    return out


def outer_trace(mesh: Mesh, values: np.ndarray) -> BoundaryTrace:
    """Boundary trace of a nodal field on the outer circle, angle-ordered."""
    idx, th = mesh.outer_vertex_order()
    return BoundaryTrace(th, np.asarray(values, dtype=np.complex128)[idx])


def _outer_mode_basis(mesh: Mesh, spectrum: DtnSpectrum):
    """B[m] maps outer nodal Cartesian DOFs to the polar coefficient pair
    of mode m; returns (outer DOF indices, B stack (2N+1, 2, 2K))."""
    idx, th = mesh.outer_vertex_order()
    ns = spectrum.mode_numbers()
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


def dtn_block(mesh: Mesh, spectrum: DtnSpectrum):
    """(outer DOF indices, dense matrix D) with v^H D u = int T_N u . conj(v) ds."""
    dofs, B = _outer_mode_basis(mesh, spectrum)
    MB = np.einsum("mab,mbk->mak", spectrum.matrix_stack(), B)
    K = B.shape[2]
    D = TWO_PI * spectrum.radius * (np.conj(B).reshape(-1, K).T @ MB.reshape(-1, K))
    return dofs, D


def check_consistent(mesh: Mesh, config: ProblemConfig, spectrum: DtnSpectrum):
    """Guard the 'spectrum built for this config and mesh' precondition."""
    if (
        spectrum.omega != config.omega
        or spectrum.lam != config.lam
        or spectrum.mu != config.mu
        or abs(spectrum.radius - config.R) > 1e-12 * config.R
    ):
        raise ValueError("spectrum was built for different material parameters")
    if abs(mesh.outer_radius - config.R) > 1e-12 * config.R:
        raise ValueError("mesh outer radius does not match the configured R")


def assemble(mesh: Mesh, config: ProblemConfig, spectrum: DtnSpectrum) -> LinearSystem:
    """Assemble b_N over all DOFs, then eliminate the obstacle-boundary
    DOFs by lifting (their columns move to the right-hand side)."""
    check_consistent(mesh, config, spectrum)
    n_dof = 2 * len(mesh.vertices)
    el = element_matrices(mesh, config)
    t = mesh.triangles
    gdof = np.empty((len(t), 6), dtype=np.int64)
    gdof[:, 0::2] = 2 * t
    gdof[:, 1::2] = 2 * t + 1
    rows = np.repeat(gdof, 6, axis=1).ravel()
    cols = np.tile(gdof, (1, 6)).ravel()
    data = el.ravel()

    ddofs, D = dtn_block(mesh, spectrum)
    rows_d = np.repeat(ddofs, len(ddofs))
    cols_d = np.tile(ddofs, len(ddofs))
    rows = np.concatenate([rows, rows_d])
    cols = np.concatenate([cols, cols_d])
    data = np.concatenate([data, (-D).ravel()])

    A = sp.coo_matrix((data, (rows, cols)), shape=(n_dof, n_dof)).tocsr()

    dir_vert = np.flatnonzero(mesh.vertex_tags == OBSTACLE)
    dir_dofs = np.column_stack([2 * dir_vert, 2 * dir_vert + 1]).ravel()
    g = -incident_field(config, mesh.vertices[dir_vert]).ravel()
    free = np.setdiff1d(np.arange(n_dof), dir_dofs, assume_unique=True)
    A_ff = A[free][:, free].tocsc()
    rhs = -A[free][:, dir_dofs] @ g
    return LinearSystem(A_ff, rhs, free, dir_dofs, g, mesh, config)


def solve(system: LinearSystem) -> SolutionField:
    """Direct sparse factorization; checks the relative residual."""
    try:
        lu = spla.splu(
            system.matrix,
            permc_spec="MMD_AT_PLUS_A",
            options=dict(SymmetricMode=True),
        )
        x = lu.solve(system.rhs)
    except (RuntimeError, ValueError) as exc:
        raise SingularSystem(f"factorization failed: {exc}") from exc
    if not np.all(np.isfinite(x)):
        raise SingularSystem("solution contains non-finite entries")
    rnorm = np.linalg.norm(system.matrix @ x - system.rhs)
    bnorm = np.linalg.norm(system.rhs)
    if bnorm > 0.0 and rnorm / bnorm > 1e-10:
        raise SingularSystem(f"relative residual {rnorm / bnorm:.3e} exceeds 1e-10")
    full = np.zeros(2 * len(system.mesh.vertices), dtype=np.complex128)
    full[system.free_dofs] = x
    full[system.dirichlet_dofs] = system.dirichlet_values
    mask = np.zeros(len(system.mesh.vertices), dtype=bool)
    mask[system.dirichlet_dofs[::2] // 2] = True
    return SolutionField(system.mesh, system.config, full.reshape(-1, 2), mask)


# -- norms -----------------------------------------------------------------


def _norm_pieces(field: SolutionField):
    mesh = field.mesh
    areas, grads = p1_geometry(mesh)
    u_el = field.values[mesh.triangles]
    total = u_el.sum(axis=1)
    l2_sq = areas / 12.0 * (
        np.sum(np.abs(total) ** 2, axis=1) + np.sum(np.abs(u_el) ** 2, axis=(1, 2))
    )
    G = np.einsum("tia,tib->tab", u_el, grads)
    grad_sq = areas * np.sum(np.abs(G) ** 2, axis=(1, 2))
    div_sq = areas * np.abs(G[:, 0, 0] + G[:, 1, 1]) ** 2
    return l2_sq, grad_sq, div_sq


def h1_norm(field: SolutionField) -> float:
    """(||u||_L2^2 + ||grad u||_L2^2)^{1/2}, exact for P1 fields."""
    l2_sq, grad_sq, _ = _norm_pieces(field)
    return math.sqrt(float(np.sum(l2_sq) + np.sum(grad_sq)))


def energy_norm(field: SolutionField) -> float:
    """(mu ||grad u||^2 + (lam+mu) ||div u||^2 + omega^2 ||u||^2)^{1/2}."""
    c = field.config
    l2_sq, grad_sq, div_sq = _norm_pieces(field)
    val = (
        c.mu * np.sum(grad_sq)
        + (c.lam + c.mu) * np.sum(div_sq)
        + c.omega**2 * np.sum(l2_sq)
    )
    return math.sqrt(float(val))


def difference(a: SolutionField, b: SolutionField) -> SolutionField:
    if a.mesh.generation != b.mesh.generation or len(a.values) != len(b.values):
        raise MeshMismatch("fields live on different mesh generations")
    return SolutionField(a.mesh, a.config, a.values - b.values, a.dirichlet_mask)


# -- independent residual evaluation --------------------------------------


def residual_vector(field: SolutionField, spectrum: DtnSpectrum) -> np.ndarray:
    """b_N(u, phi_i) for every nodal basis function, evaluated from the
    form term by term (no reuse of the assembled matrix).

    For the solved field this must vanish on the free DOFs (Galerkin
    orthogonality); obstacle-boundary entries carry the reaction forces.
    """
    mesh, config = field.mesh, field.config
    areas, grads = p1_geometry(mesh)
    u_el = field.values[mesh.triangles]
    G = np.einsum("tia,tib->tab", u_el, grads)
    div = G[:, 0, 0] + G[:, 1, 1]

    # mu (grad u, grad phi_(i,a)) = mu A (G[a,:] . grad lam_i)
    r_mu = config.mu * areas[:, None, None] * np.einsum("tab,tib->tia", G, grads)
    # (lam+mu)(div u, div phi_(i,a)) = (lam+mu) A div (grad lam_i)_a
    r_div = (config.lam + config.mu) * (areas * div)[:, None, None] * grads
    # -w^2 (u, phi_(i,a)) with int w lam_i = A/12 (sum_j w_j + w_i)
    w_sum = u_el.sum(axis=1, keepdims=True)
    r_mass = -(config.omega**2) * (areas / 12.0)[:, None, None] * (w_sum + u_el)

    contrib = (r_mu + r_div + r_mass).reshape(len(areas) * 3, 2)
    out = np.zeros(2 * len(mesh.vertices), dtype=np.complex128)
    flat_idx = mesh.triangles.ravel()
    np.add.at(out, 2 * flat_idx, contrib[:, 0])
    np.add.at(out, 2 * flat_idx + 1, contrib[:, 1])

    dofs, B = _outer_mode_basis(mesh, spectrum)
    u_hat = np.einsum("mak,k->ma", B, field.values.ravel()[dofs])
    Mu = np.einsum("mab,mb->ma", spectrum.matrix_stack(), u_hat)
    out[dofs] -= TWO_PI * spectrum.radius * np.einsum(
        "ma,mak->k", Mu, np.conj(B)
    )
    return out


# -- exports ---------------------------------------------------------------


def save_solution_csv(field: SolutionField, path):
    """vertex_index x y Re(u_x) Im(u_x) Re(u_y) Im(u_y)"""
    with open(path, "w") as fh:
        fh.write("vertex_index,x,y,re_ux,im_ux,re_uy,im_uy\n")
        for i, ((x, y), (ux, uy)) in enumerate(zip(field.mesh.vertices, field.values)):
            fh.write(
                f"{i},{x:.17g},{y:.17g},{ux.real:.17g},{ux.imag:.17g},"
                f"{uy.real:.17g},{uy.imag:.17g}\n"
            )


def triangle_magnitudes(field: SolutionField) -> np.ndarray:
    """|u| at triangle centroids, for heat-map plotting."""
    centroid_vals = field.values[field.mesh.triangles].mean(axis=1)
    return np.linalg.norm(np.abs(centroid_vals), axis=1)
