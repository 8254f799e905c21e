"""Vector P1 assembly and direct solve of the truncated variational problem.

The discrete form is

    b_N(u, v) = mu (grad u, grad v) + (lam + mu) (div u, div v)
                - omega^2 (u, v) - int_{dB_R} T_N u . conj(v) ds

with u = -u_inc on the obstacle boundary.  Stiffness and divergence terms
are closed-form for P1 (constant gradients); the mass term uses the
3-point edge-midpoint rule, exact for quadratics, so no quadrature
tolerance enters the chain.  The DtN term couples all outer-boundary
DOFs through the mode-weight matrix, a dense block; at desk scale the
outer boundary carries O(sqrt(DoF)) nodes, so a sparse direct
factorization of the combined system stays cheap.

assemble() works in one pass in free-DoF numbering.  A map sends each
global DOF to its free index (ascending, -1 on the obstacle), and the
volume triplets are written straight into that numbering.  The lifting
right-hand side comes from the obstacle columns of the element matrices
on the triangles that touch the obstacle, never from a full-size matrix.
The dense block is merged into the volume matrix already sorted by
column, and the CSC matrix is built once.  Its pattern is exactly that
of summing all triplets, explicit zeros included (sparse + would drop
them).  The minimum-degree ordering depends on the pattern and, mildly,
on the vertex numbering: numbering one adaptive ex1 mesh (13 952 free
DoF) lexicographically moves the nonzeros of L + U from 1.25 M to
1.17 M.  Dropping the explicit zeros moved the stored LU entries by
-3.5 % to +1.8 % over the systems of the benchmark runs.

The assembled matrix is complex symmetric (A = A^T, not Hermitian):
every volume term is symmetric, and the DtN block inherits symmetry from
M_{-n} = M_n^T together with W_{-n} = conj(W_n).

solve() exploits the symmetric pattern: SuperLU orders the columns by
minimum degree on A^T + A, and symmetric mode builds the elimination
tree from A^T + A as well, the graph that was ordered, and prefers
diagonal pivots.  At 131 k free DoF this stores 20 M LU entries where
the default COLAMD ordering stores 50 M.

relax=1 turns off SuperLU's relaxed supernodes.  By default SuperLU
merges small subtrees of the elimination tree into supernodes and stores
them as dense blocks, zeros included.  On an adaptive ex1 mesh (13 952
free DoF) that padding stored 5.70 M entries for 1.25 M nonzeros of
L + U (4.5x) and took 5.2 s to factor instead of 0.3 s; what earlier
looked like a sensitivity to the vertex numbering was this padding.
With relax=1 the stored entries exceed those nonzeros by 1 % to 2.3 %
on ex1 meshes of 512 to 13 952 free DoF, and are never more than the
default stored.  Values 3 to 8 padded worse than the default (19 M to
25 M entries against 4.4 M on one disk-adaptive system of 36 992 free
DoF), 2 equals 1, and 10 reproduces the default.  The mode stays
although, with relax=1, it no longer changes the stored entries:
without it the default relaxation stored 20.9 M entries on one U-shape
system (35 156 free DoF) against 6.4 M with it, so the mode keeps the
factor robust to the supernode setting.  panel_size is left at its
default: panel_size=32 corrupts the heap in scipy 1.17.1 (the process
aborts on exit, even at 512 free DoF).

The matrix is indefinite (the -omega^2 mass term and the complex DtN
block), so threshold partial pivoting keeps SuperLU's default
threshold: without row interchanges the relative residual grew with the
frequency, to 2.6e-12 at omega = 8 pi and 33 k free DoF, against 1e-13
with them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .dtn import DtnSpectrum, outer_mode_basis
from .errors import (
    InvalidParameter,
    InvalidRadii,
    MeshMismatch,
    OriginEvaluation,
    SingularSystem,
    ThetaOutOfRange,
)
from .mesh import OBSTACLE, Mesh, format_rows
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
            raise InvalidParameter(f"unknown incident wave kind {self.kind!r}")
        d = np.asarray(self.direction, dtype=np.float64)
        if d.shape != (2,) or not 0.0 < math.hypot(*d) < math.inf:
            raise InvalidParameter(
                f"direction must be two finite numbers with a finite nonzero length, "
                f"got {self.direction}"
            )


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
        if not all(map(math.isfinite, (self.omega, self.lam, self.mu, self.R, self.R_hat,
                                       self.tolerance))):
            raise InvalidParameter("omega, lam, mu, R, R_hat and tolerance must be finite")
        if not (self.mu > 0.0 and self.lam + self.mu > 0.0):
            raise InvalidParameter("need mu > 0 and lam + mu > 0")
        if not self.omega > 0.0:
            raise InvalidParameter("need omega > 0")
        if not (0.0 < self.R_hat < self.R):
            raise InvalidRadii(f"need 0 < R_hat < R, got R_hat={self.R_hat}, R={self.R}")
        if not (0.0 < self.theta_mark < 1.0):
            raise ThetaOutOfRange(f"theta must lie in (0, 1), got {self.theta_mark}")
        if not self.tolerance > 0.0:
            raise InvalidParameter(f"need tolerance > 0, got {self.tolerance}")
        if self.max_iters < 1:
            raise InvalidParameter(f"need max_iters >= 1, got {self.max_iters}")

    @property
    def kappa1(self) -> float:
        return self.omega / math.sqrt(self.lam + 2.0 * self.mu)

    @property
    def kappa2(self) -> float:
        return self.omega / math.sqrt(self.mu)


@dataclass(frozen=True)
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

    @cached_property
    def jacobians(self) -> np.ndarray:
        """(T, 2, 2): jacobians[t, a, b] = d u_a / d x_b, constant on
        triangle t; computed once per field and read-only."""
        u_el = self.values[self.mesh.triangles]
        G = np.einsum("tia,tib->tab", u_el, self.mesh.gradients)
        G.setflags(write=False)
        return G

    def element_l2_sq(self) -> np.ndarray:
        """||u||_{L2(K)}^2 for every triangle, exact for P1 fields."""
        u_el = self.values[self.mesh.triangles]
        total = u_el.sum(axis=1)
        return self.mesh.areas / 12.0 * (
            np.sum(np.abs(total) ** 2, axis=1) + np.sum(np.abs(u_el) ** 2, axis=(1, 2))
        )


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
        d = d / math.hypot(*d)
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


def _mass3(areas: np.ndarray) -> np.ndarray:
    # 3-point midpoint rule, exact for degree 2; equals (A/12)(1 + delta_ij)
    return (areas / 12.0)[:, None, None] * (np.ones((3, 3)) + np.eye(3))


def element_matrices(mesh: Mesh, config: ProblemConfig) -> np.ndarray:
    """(T, 6, 6) complex element matrices of the volume part of b_N.

    Local DOF ordering is (v0x, v0y, v1x, v1y, v2x, v2y).
    """
    areas, grads = mesh.areas, mesh.gradients
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


def dtn_block(mesh: Mesh, spectrum: DtnSpectrum):
    """(outer DOF indices, dense matrix D) with v^H D u = int T_N u . conj(v) ds."""
    dofs, B = outer_mode_basis(mesh, spectrum.mode_numbers())
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
        raise InvalidParameter("spectrum was built for different material parameters")
    if abs(mesh.outer_radius - config.R) > 1e-12 * config.R:
        raise InvalidParameter("mesh outer radius does not match the configured R")


def _add_dense_block(V: sp.csc_matrix, idx: np.ndarray, block: np.ndarray) -> sp.csc_matrix:
    """V with block[a, b] added at (idx[a], idx[b]), for distinct idx.

    V must be canonical CSC.  The result stores the union of V's pattern
    and idx x idx with sorted row indices, explicit zeros included, so it
    has the pattern that summing both as COO triplets would give.
    """
    n = V.shape[0]
    order = np.argsort(idx)
    o = idx[order]
    K = len(o)
    # the block in CSC order: column c holds rows o, read from column order[c]
    vals = np.take(block, order[None, :] * K + order[:, None])

    # entries of V in the block's columns, and the block rows above each
    start = V.indptr[o]
    cnt = V.indptr[o + 1] - start
    col = np.repeat(np.arange(K), cnt)
    ent = np.arange(cnt.sum()) + np.repeat(start - (np.cumsum(cnt) - cnt), cnt)
    rows = V.indices[ent]
    below = np.searchsorted(o, rows)
    shared = o[np.minimum(below, K - 1)] == rows
    shared_in_col = np.bincount(col[shared], minlength=K)
    # shared entries above each one in its own column
    shared_before = np.cumsum(shared) - shared
    shared_before -= (np.cumsum(shared_in_col) - shared_in_col)[col]

    grow = np.zeros(n, dtype=np.int64)
    grow[o] = K - shared_in_col
    indptr = V.indptr + np.concatenate(([0], np.cumsum(grow)))
    # each entry of V moves past the entries added to earlier columns and
    # past the block rows above it in its own column, less those it shares
    pos = np.arange(V.nnz) + np.repeat(indptr[:-1] - V.indptr[:-1], np.diff(V.indptr))
    pos[ent] += below - shared_before

    in_block = np.zeros(n, dtype=bool)
    in_block[o] = True
    slots = np.repeat(in_block, np.diff(indptr))
    slots[pos[ent[~shared]]] = False
    data = np.zeros(indptr[-1], dtype=np.result_type(V.dtype, block.dtype))
    indices = np.empty(indptr[-1], dtype=V.indices.dtype)
    data[slots] = vals.ravel()
    indices[slots] = np.tile(o, K)
    data[pos] += V.data
    indices[pos] = V.indices
    return sp.csc_matrix((data, indices, indptr), shape=V.shape)


def assemble(mesh: Mesh, config: ProblemConfig, spectrum: DtnSpectrum) -> LinearSystem:
    """Assemble b_N over the free DOFs, numbered in ascending global order.

    The obstacle-boundary DOFs are eliminated by lifting: their columns of
    the element matrices, times the Dirichlet data, move to the right-hand
    side.
    """
    check_consistent(mesh, config, spectrum)
    n_dof = 2 * len(mesh.vertices)
    dir_vert = np.flatnonzero(mesh.vertex_tags == OBSTACLE)
    dir_dofs = np.column_stack([2 * dir_vert, 2 * dir_vert + 1]).ravel()
    g = -incident_field(config, mesh.vertices[dir_vert]).ravel()
    # free index of each global DOF, -1 on the obstacle; 32-bit, as SuperLU
    # takes 32-bit indices anyway
    free_index = np.zeros(n_dof, dtype=np.int32)
    free_index[dir_dofs] = -1
    free = np.flatnonzero(free_index == 0)
    n = len(free)
    free_index[free] = np.arange(n)

    el = element_matrices(mesh, config)
    t = mesh.triangles
    gdof = np.empty((len(t), 6), dtype=np.int64)
    gdof[:, 0::2] = 2 * t
    gdof[:, 1::2] = 2 * t + 1
    fdof = free_index[gdof]

    # lifting: on the triangles that touch the obstacle, the obstacle
    # columns of the element matrices times the Dirichlet data
    g_full = np.zeros(n_dof, dtype=np.complex128)
    g_full[dir_dofs] = g
    touch = np.flatnonzero((fdof < 0).any(axis=1))
    f_t = fdof[touch]
    lift = np.einsum("tab,tb->ta", el[touch], np.where(f_t < 0, g_full[gdof[touch]], 0.0))
    on_free = f_t >= 0
    rhs = np.zeros(n, dtype=np.complex128)
    np.add.at(rhs, f_t[on_free], -lift[on_free])

    rows = np.repeat(fdof, 6, axis=1).ravel()
    cols = np.tile(fdof, (1, 6)).ravel()
    keep = (rows >= 0) & (cols >= 0)
    V = sp.coo_matrix((el.ravel()[keep], (rows[keep], cols[keep])), shape=(n, n)).tocsc()

    ddofs, D = dtn_block(mesh, spectrum)
    A = _add_dense_block(V, free_index[ddofs], np.negative(D, out=D))
    return LinearSystem(A, rhs, free, dir_dofs, g, mesh, config)


def solve(system: LinearSystem) -> SolutionField:
    """Direct sparse factorization; checks the relative residual."""
    try:
        lu = spla.splu(
            system.matrix,
            permc_spec="MMD_AT_PLUS_A",
            options=dict(SymmetricMode=True),
            relax=1,
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
    areas = field.mesh.areas
    G = field.jacobians
    l2_sq = field.element_l2_sq()
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
    areas, grads = mesh.areas, mesh.gradients
    u_el = field.values[mesh.triangles]
    G = field.jacobians
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

    dofs, B = outer_mode_basis(mesh, spectrum.mode_numbers())
    u_hat = B @ field.values.ravel()[dofs]
    Mu = np.einsum("mab,mb->ma", spectrum.matrix_stack(), u_hat)
    out[dofs] -= TWO_PI * spectrum.radius * np.einsum(
        "ma,mak->k", Mu, np.conj(B)
    )
    return out


# -- exports ---------------------------------------------------------------


def save_solution_csv(field: SolutionField, path):
    """vertex_index x y Re(u_x) Im(u_x) Re(u_y) Im(u_y)"""
    x, y = field.mesh.vertices.T
    ux, uy = field.values.T
    with open(path, "w") as fh:
        fh.write("vertex_index,x,y,re_ux,im_ux,re_uy,im_uy\n")
        fh.write(
            format_rows(
                "%d,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g\n",
                np.arange(len(x)), x, y, ux.real, ux.imag, uy.real, uy.imag,
            )
        )


def triangle_magnitudes(field: SolutionField) -> np.ndarray:
    """|u| at triangle centroids, for heat-map plotting."""
    centroid_vals = field.values[field.mesh.triangles].mean(axis=1)
    return np.linalg.norm(np.abs(centroid_vals), axis=1)
