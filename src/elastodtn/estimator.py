"""Residual-based a posteriori error indicators.

For P1 elements the strong residual mu Lap(u) + (lam+mu) grad(div u)
+ omega^2 u collapses to omega^2 u element-wise, so the volume part of
the indicator is h_K || omega^2 u ||_{L2(K)} exactly.  Interior edges
carry the traction flux jump

    J_e = -[ mu (grad u)|_1 nu_1 + (lam+mu)(div u)|_1 nu_1
           + mu (grad u)|_2 nu_2 + (lam+mu)(div u)|_2 nu_2 ],

constant per edge; outer-circle edges compare the discrete traction
against the truncated DtN operator applied to the current trace,

    J_e = 2 ( T_N u - mu (grad u) e_r - (lam+mu)(div u) e_r ),

evaluated at Gauss points in the angle.  Obstacle (Dirichlet) edges
contribute nothing.  The local indicator is

    eta_K = h_K ||R u||_{L2(K)} + ( 1/2 sum_{e in dK} h_e ||J_e||^2 )^{1/2}

and eps_h = (sum eta_K^2)^{1/2}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .assembly import SolutionField, check_consistent
from .dtn import DtnSpectrum, outer_mode_basis, truncation_error
from .mesh import OUTER, Mesh

_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(4)
_GAUSS_T = 0.5 * (_GAUSS_X + 1.0)  # nodes on (0, 1)
_GAUSS_W = 0.5 * _GAUSS_W  # weights summing to 1


@dataclass
class EstimateReport:
    """Per-element indicators and the global error split."""

    eta: np.ndarray
    eps_h: float
    eps_N: float
    dof: int


def element_residuals(field: SolutionField) -> np.ndarray:
    """h_K || omega^2 u ||_{L2(K)} for every triangle (exact integral)."""
    return field.mesh.diameters * field.config.omega**2 * np.sqrt(field.element_l2_sq())


def interior_jumps(field: SolutionField) -> np.ndarray:
    """|| J_e ||_{L2(e)} = |J_e| sqrt(h_e) per edge (0 on boundary edges)."""
    mesh = field.mesh
    c = field.config
    G = field.jacobians
    div = G[:, 0, 0] + G[:, 1, 1]
    out = np.zeros((len(mesh.edges), 2), dtype=np.complex128)
    interior = mesh.edge_tris[:, 1] >= 0
    t1 = mesh.edge_tris[interior, 0]
    t2 = mesh.edge_tris[interior, 1]

    # either unit normal will do: flipping it (or swapping the two
    # triangles) flips the sign of J_e, and only |J_e| is returned
    ends = mesh.vertices[mesh.edges[interior]]
    tang = ends[:, 1] - ends[:, 0]
    nu = np.stack([tang[:, 1], -tang[:, 0]], axis=1)
    nu /= mesh.edge_lengths[interior][:, None]

    dG = G[t1] - G[t2]
    ddiv = div[t1] - div[t2]
    flux = c.mu * np.einsum("eab,eb->ea", dG, nu) + (c.lam + c.mu) * ddiv[:, None] * nu
    out[interior] = -flux
    return np.linalg.norm(np.abs(out), axis=1) * np.sqrt(mesh.edge_lengths)


def _outer_edge_angles(mesh: Mesh, edge_ids: np.ndarray):
    """Start angle and positive angular width of each outer edge."""
    pa = mesh.vertices[mesh.edges[edge_ids, 0]]
    pb = mesh.vertices[mesh.edges[edge_ids, 1]]
    ta = np.arctan2(pa[:, 1], pa[:, 0])
    tb = np.arctan2(pb[:, 1], pb[:, 0])
    width = np.mod(tb - ta, 2.0 * math.pi)
    swap = width > math.pi
    start = np.where(swap, tb, ta)
    width = np.where(swap, 2.0 * math.pi - width, width)
    return start, width


def boundary_jumps(field: SolutionField, spectrum: DtnSpectrum) -> np.ndarray:
    """|| J_e ||_{L2(e)} per edge (0 off the outer circle).

    T_N u is evaluated from the global trace coefficients at 4 Gauss
    angles per edge; the edge integral uses ds = R dtheta on the circle.
    """
    mesh = field.mesh
    c = field.config
    out = np.zeros(len(mesh.edges))
    outer_ids = np.flatnonzero(mesh.edge_tags == OUTER)
    if outer_ids.size == 0:
        return out

    ns = spectrum.mode_numbers()
    dofs, B = outer_mode_basis(mesh, ns)
    u_hat = B @ field.values.ravel()[dofs]
    Mu = np.einsum("mab,mb->ma", spectrum.matrix_stack(), u_hat)

    start, width = _outer_edge_angles(mesh, outer_ids)
    theta = start[:, None] + width[:, None] * _GAUSS_T[None, :]
    phases = np.exp(1j * ns[None, None, :] * theta[:, :, None])
    P = np.einsum("eqm,ma->eqa", phases, Mu)  # polar components of T_N u

    ct, st = np.cos(theta), np.sin(theta)
    er = np.stack([ct, st], axis=2)
    et = np.stack([-st, ct], axis=2)
    tn_cart = P[:, :, 0:1] * er + P[:, :, 1:2] * et

    t_adj = mesh.edge_tris[outer_ids, 0]
    G = field.jacobians[t_adj]
    div = G[:, 0, 0] + G[:, 1, 1]
    traction = (c.mu * np.einsum("eab,eqb->eqa", G, er)
                + (c.lam + c.mu) * div[:, None, None] * er)

    J = 2.0 * (tn_cart - traction)
    sq = np.sum(np.abs(J) ** 2, axis=2)
    out[outer_ids] = np.sqrt(
        spectrum.radius * width * np.sum(_GAUSS_W[None, :] * sq, axis=1)
    )
    return out


def global_estimate(
    field: SolutionField, spectrum: DtnSpectrum, u_inc_h1: float
) -> EstimateReport:
    """Full indicator sweep: per-element eta_K, eps_h and eps_N.

    eps_N takes u_inc_h1, the incident norm the caller froze on the
    initial mesh.
    """
    cfg, mesh = field.config, field.mesh
    check_consistent(mesh, cfg, spectrum)
    jump_sq = (interior_jumps(field) + boundary_jumps(field, spectrum)) ** 2
    per_tri = 0.5 * np.sum((mesh.edge_lengths * jump_sq)[mesh.tri_edges], axis=1)
    eta = element_residuals(field) + np.sqrt(per_tri)
    eps_h = math.sqrt(float(np.sum(eta**2)))
    eps_N = truncation_error(spectrum.truncation_n, cfg.R_hat, cfg.R, u_inc_h1)
    return EstimateReport(eta, eps_h, eps_N, dof=len(mesh.vertices))
