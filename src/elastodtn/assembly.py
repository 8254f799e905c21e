"""Vector P1 assembly and direct solve of the truncated variational problem.

The discrete form is

    b_N(u, v) = mu (grad u, grad v) + (lam + mu) (div u, div v)
                - omega^2 (u, v) - int_{dB_R} T_N u . conj(v) ds

with u = -u_inc on the obstacle boundary.  Stiffness and divergence terms
are closed-form for P1 (constant gradients); the mass term uses the
3-point edge-midpoint rule, exact for quadratics, so no quadrature
tolerance enters the chain.  The DtN term couples all K outer-boundary
DOFs through the 2N+1 modes: with B the r x K trace map of
dtn.outer_mode_basis (r = 2(2N+1) polar coefficients) and M the block
diagonal of the mode matrices, it is D = 2 pi R B^H (M B), dense on the
outer DOFs.

assemble() works in one pass in free-DoF numbering.  A map sends each
global DOF to its free index (ascending, -1 on the obstacle), and the
volume triplets are written straight into that numbering.  The lifting
right-hand side comes from the obstacle columns of the element matrices
on the triangles that touch the obstacle, never from a full-size matrix.
The volume matrix V is summed once (COO -> CSC) after the element
arrays are released, and its triplets and those of the DtN coupling
make the CSC matrix in one more conversion (one conversion of all
triplets peaked higher).  No position gets two entries from either, so
the sums do not depend on their order, and the pattern is exactly that
of summing all triplets, explicit zeros included (sparse + would drop
them).  The minimum-degree ordering depends on the pattern and, mildly,
on the vertex numbering: numbering one adaptive ex1 mesh (13 952 free
DoF) lexicographically moves the nonzeros of L + U from 1.25 M to
1.17 M.  Dropping the explicit zeros moved the stored LU entries by
-3.5 % to +1.8 % over the systems of the benchmark runs.

The DtN coupling takes one of two forms, chosen from K and r; assemble()
builds both from B^H and M B, contracting M B once.  When
K < _BORDER_FROM * r, the system matrix A = V - D is one CSC matrix, with
the K x K product of the two written straight into the triplet array.
Otherwise assemble() stores the bordered matrix F = [[V, -2 pi R B^H],
[M B, -I]] of order n + r, with 2 K r + r coupling entries instead of K^2.
A is its Schur complement on the n free DOFs: F [x; y] = [b; 0] gives
A x = b, with y = M B x the traction modes, and LinearSystem.matrix is a
BorderedMatrix that applies A through F.  The modal unknowns couple every
outer DOF, so the bordered factor pays off only once K is large against r.
Factors of both forms on example 1 (N = 35, r = 142; the annulus of s
segments and L layers refined twice, and s = 64 three times), stored LU
entries and the bordered/dense ratio of the factor time (one thread,
minimum of 3; tools/coupling_crossover.py):

    K/r   s    L   free DoF   LU dense    LU bordered  time ratio
    3.61  64   4     8 192       844 696      892 490     0.77
    3.61  64   6    12 288     1 311 896    1 370 962     0.92
    3.61  64   8    16 384     1 764 856    1 922 970     1.24
    4.06  72   4     9 216       995 528      969 290     0.75
    4.06  72   8    18 432     2 040 952    2 018 962     0.87
    4.51  80   4    10 240     1 154 792    1 092 082     0.72
    4.51  80   8    20 480     2 325 240    2 263 266     0.85
    5.41  96   4    12 288     1 497 896    1 332 706     0.90
    5.41  96   8    24 576     2 918 392    2 743 682     0.74
    6.31  112  4    14 336     1 873 768    1 532 298     0.38
    6.31  112  8    28 672     3 544 312    3 178 906     0.74
    7.21  64   4    32 768     4 209 200    3 665 578     0.67
    7.21  64   8    65 536    10 038 576    9 054 162     0.75

At K/r = 3.61 the bordered factor stores more entries on every system,
and on the adaptive ex1 meshes of that ratio it took 0.94-1.31 times
the dense time; on the 17 adaptive U-shape meshes (N = 97, r = 390,
K/r from 0.56 to 2.9) it took 1.03-11.5 times the dense time.  From
K/r = 4.06 on, every measured system stored fewer entries and factored
faster bordered, hence _BORDER_FROM = 4.

A is complex symmetric (A = A^T, not Hermitian): every volume term is
symmetric, and D inherits symmetry from M_{-n} = M_n^T together with
W_{-n} = conj(W_n).  F is not symmetric, but its pattern is.

solve() factors F, which is A itself in the dense form, pads the
right-hand side with r zeros and keeps the first n entries; residuals
and refinement are taken on A.  It exploits the symmetric pattern:
SuperLU orders the columns by minimum degree on F^T + F, and symmetric
mode builds the elimination tree from F^T + F as well, the graph that
was ordered, and prefers diagonal pivots.  At 131 k free DoF, in the
dense form, this stores 20 M LU entries where the default COLAMD
ordering stores 50 M.

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
block), so rows may still be interchanged, but only when a diagonal
entry is below _PIVOT_THRESH = 0.01 times the largest entry of its
column.  SuperLU's default threshold of 1.0 interchanged rows far from
omega = pi and so broke the symmetric ordering: on the ex1 mesh refined
uniformly twice (8 192 free DoF) the factor stored 3.61 M entries at
omega = 50 and 30.8 M at omega = 200 (73 s), against 0.84 M at omega = pi.
At 0.01 it stores 0.90 M and 1.99 M.  Without any interchange
(threshold 0) a complex symmetric matrix with a zero diagonal is left
with a relative residual of order one.  The smaller threshold costs
digits away from omega = pi (8.1e-13 at omega = 50, 3.4e-11 at
omega = 200), so every solve makes one step of iterative refinement with
the same factors, whatever its first residual: a residual near 1e-14
does not bound the error.  At ex1 level 4, omega = pi, the bordered
solve starts at 1.7e-14, the step moves x by 1.7e-13, and the two
coupling forms then agree to 4.7e-14 (1.7e-13 without it).  On ex1 and
ex2 systems up to omega = 200 the step left a residual of at most
1.5e-14 and a second moved x by at most 3.8e-14, at about 5 % of the
factor time.
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
    OrderCapExceeded,
    OriginEvaluation,
    SingularSystem,
    ThetaOutOfRange,
    check_count,
)
from .mesh import OBSTACLE, Mesh
from .specfun import MAX_ORDER, hankel01

TWO_PI = 2.0 * math.pi
# solve(): SuperLU's diagonal pivot threshold; the digits it costs away
# from omega = pi are won back by one refinement step
_PIVOT_THRESH = 0.01
# assemble(): the DtN coupling of K outer DOFs through r = 2(2N+1) modal
# unknowns is bordered when K >= _BORDER_FROM * r, else a dense block
_BORDER_FROM = 4.0


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
        check_count("truncation order N", self.N, 0)
        if self.N > MAX_ORDER:
            raise OrderCapExceeded(f"order {self.N} exceeds the supported maximum "
                                   f"{MAX_ORDER} of the truncation order N")
        if not (0.0 < self.theta_mark < 1.0):
            raise ThetaOutOfRange(f"theta must lie in (0, 1), got {self.theta_mark}")
        if not self.tolerance > 0.0:
            raise InvalidParameter(f"need tolerance > 0, got {self.tolerance}")
        check_count("max_iters", self.max_iters, 1)

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


@dataclass(frozen=True)
class BorderedMatrix:
    """The n x n system matrix A = V - 2 pi R B^H M B, held as the bordered
    matrix F = [[V, -2 pi R B^H], [M B, -I]] of order n + r, whose Schur
    complement it is: F [x; M B x] = [A x; 0]."""

    F: sp.csc_matrix
    n: int

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n, self.n)

    @property
    def nnz(self) -> int:
        return self.F.nnz

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        # F [x; 0] = [V x; M B x], then F [x; M B x] = [A x; 0]
        MBx = (self.F @ np.concatenate([x, np.zeros(self.F.shape[0] - self.n)]))[self.n:]
        return (self.F @ np.concatenate([x, MBx]))[: self.n]


@dataclass
class LinearSystem:
    """Reduced system over the free (non-Dirichlet) DOFs."""

    matrix: sp.csc_matrix | BorderedMatrix
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
    _, h1_1 = hankel01(k1 * r)
    _, h1_2 = hankel01(k2 * r)
    a = k1 * h1_1 / r  # -k1 H_0'(k1 r) / r, as H_0' = -H_1
    b = k2 * h1_2 / r
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


def element_matrices(mesh: Mesh, config: ProblemConfig) -> np.ndarray:
    """(T, 6, 6) complex element matrices of the volume part of b_N.

    Local DOF ordering is (v0x, v0y, v1x, v1y, v2x, v2y).
    """
    areas, grads = mesh.areas, mesh.gradients
    T = len(areas)
    gg = np.einsum("tik,tjk->tij", grads, grads)
    # the 3-point midpoint rule, exact for degree 2, gives (A/12)(1 + delta_ij)
    m3 = (areas / 12.0)[:, None, None] * (np.ones((3, 3)) + np.eye(3))
    scalar3 = config.mu * areas[:, None, None] * gg - config.omega**2 * m3
    out = np.zeros((T, 6, 6), dtype=np.complex128)
    out[:, 0::2, 0::2] = scalar3
    out[:, 1::2, 1::2] = scalar3
    div = (config.lam + config.mu) * areas[:, None, None, None, None] * np.einsum(
        "tia,tjb->tiajb", grads, grads
    )
    out += div.reshape(T, 6, 6)
    return out


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


def _volume_triplets(el: np.ndarray, fdof: np.ndarray):
    """(data, (rows, cols)) of the element matrices between free DOFs."""
    rows = np.repeat(fdof, 6, axis=1).ravel()
    cols = np.tile(fdof, (1, 6)).ravel()
    keep = (rows >= 0) & (cols >= 0)
    return el.ravel()[keep], (rows[keep], cols[keep])


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

    # V with its duplicates summed, then its triplets next to those of the
    # DtN coupling: -D on the K x K outer positions, or the border of F
    V = sp.coo_matrix(_volume_triplets(el, fdof), shape=(n, n))
    del el
    V = V.tocsc().tocoo()
    dofs, B = outer_mode_basis(mesh, spectrum.mode_numbers())
    d = free_index[dofs]
    m, K, r = V.nnz, len(d), 2 * len(B)
    bordered = K >= _BORDER_FROM * r
    size, extra = (n + r, 2 * K * r + r) if bordered else (n, K * K)
    data = np.empty(m + extra, dtype=np.complex128)
    rows = np.empty(m + extra, dtype=np.int32)
    cols = np.empty(m + extra, dtype=np.int32)
    data[:m], rows[:m], cols[:m] = V.data, V.row, V.col
    del V  # copied: freed before the factors below are formed (a lower peak RSS)
    # the two factors of D = 2 pi R B^H (M B): M B (r x K) and B^H (K x r)
    MB = np.einsum("mab,mbk->mak", spectrum.matrix_stack(), B).reshape(r, K)
    BH = np.conj(B).reshape(r, K).T
    if bordered:
        modal = np.arange(n, size, dtype=np.int32)
        top, left = slice(m, m + K * r), slice(m + K * r, m + 2 * K * r)
        # -2 pi R B^H in the outer rows, M B in the outer columns, -I
        np.multiply(BH, -TWO_PI * spectrum.radius, out=data[top].reshape(K, r))
        rows[top].reshape(K, r)[:] = d[:, None]
        cols[top].reshape(K, r)[:] = modal[None, :]
        data[left] = MB.ravel()
        rows[left].reshape(r, K)[:] = modal[:, None]
        cols[left].reshape(r, K)[:] = d[None, :]
        data[m + 2 * K * r:] = -1.0
        rows[m + 2 * K * r:] = cols[m + 2 * K * r:] = modal
    else:
        block = data[m:].reshape(K, K)
        np.matmul(BH, MB, out=block)
        block *= -TWO_PI * spectrum.radius
        rows[m:].reshape(K, K)[:] = d[:, None]
        cols[m:].reshape(K, K)[:] = d[None, :]
    del MB, BH
    A = sp.csc_matrix((data, (rows, cols)), shape=(size, size))
    matrix = BorderedMatrix(A, n) if bordered else A
    return LinearSystem(matrix, rhs, free, dir_dofs, g, mesh, config)


def solve(system: LinearSystem) -> SolutionField:
    """Direct sparse factorization and one step of iterative refinement
    with the same factors; the relative residual must not exceed 1e-10."""
    A, b = system.matrix, system.rhs
    F = A.F if isinstance(A, BorderedMatrix) else A
    n = len(b)

    def inverse(v):
        # A^{-1} v: the first n entries of F^{-1} [v; 0].  The padded copy
        # is made per call: one made before the factor and kept across it
        # raised the peak RSS of the U-shape runs by about 15 MB.
        return lu.solve(np.concatenate([v, np.zeros(F.shape[0] - n)]))[:n]

    try:
        lu = spla.splu(
            F,
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=_PIVOT_THRESH,
            options=dict(SymmetricMode=True),
            relax=1,
        )
        x = inverse(b)
    except (RuntimeError, ValueError) as exc:
        raise SingularSystem(f"factorization failed: {exc}") from exc
    if not np.all(np.isfinite(x)):
        raise SingularSystem("solution contains non-finite entries")
    x += inverse(b - A @ x)
    bnorm = np.linalg.norm(b)
    rel = np.linalg.norm(b - A @ x) / bnorm if bnorm > 0.0 else 0.0
    if not rel <= 1e-10:
        raise SingularSystem(f"relative residual {rel:.3e} exceeds 1e-10")
    full = np.zeros(2 * len(system.mesh.vertices), dtype=np.complex128)
    full[system.free_dofs] = x
    full[system.dirichlet_dofs] = system.dirichlet_values
    mask = system.mesh.vertex_tags == OBSTACLE
    return SolutionField(system.mesh, system.config, full.reshape(-1, 2), mask)


# -- norms -----------------------------------------------------------------


def h1_norm(field: SolutionField) -> float:
    """(||u||_L2^2 + ||grad u||_L2^2)^{1/2}, exact for P1 fields."""
    grad_sq = field.mesh.areas * np.sum(np.abs(field.jacobians) ** 2, axis=(1, 2))
    return math.sqrt(float(np.sum(field.element_l2_sq()) + np.sum(grad_sq)))


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


def triangle_magnitudes(field: SolutionField) -> np.ndarray:
    """|u| at triangle centroids, for heat-map plotting."""
    centroid_vals = field.values[field.mesh.triangles].mean(axis=1)
    return np.linalg.norm(np.abs(centroid_vals), axis=1)
