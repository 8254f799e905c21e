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

from .assembly import (
    SolutionField,
    check_consistent,
    incident_h1,
    outer_trace,
    p1_geometry,
)
from .dtn import DtnSpectrum, mode_weights, polar_components, truncation_error
from .errors import NotInteriorEdge, NotOuterEdge
from .mesh import OBSTACLE, OUTER, Mesh, format_rows

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
    e_h: float | None = None
    energy_error: float | None = None


def _field_derivatives(field: SolutionField):
    mesh = field.mesh
    areas, grads = p1_geometry(mesh)
    u_el = field.values[mesh.triangles]
    G = np.einsum("tia,tib->tab", u_el, grads)
    div = G[:, 0, 0] + G[:, 1, 1]
    return areas, u_el, G, div


def element_residuals(field: SolutionField) -> np.ndarray:
    """h_K || omega^2 u ||_{L2(K)} for every triangle (exact integral)."""
    mesh = field.mesh
    areas, u_el, _, _ = _field_derivatives(field)
    total = u_el.sum(axis=1)
    l2_sq = areas / 12.0 * (
        np.sum(np.abs(total) ** 2, axis=1) + np.sum(np.abs(u_el) ** 2, axis=(1, 2))
    )
    h = mesh.triangle_diameters()
    return h * field.config.omega**2 * np.sqrt(l2_sq)


def element_residual(field: SolutionField, triangle: int) -> float:
    return float(element_residuals(field)[triangle])


def _interior_jump_vectors(field: SolutionField) -> np.ndarray:
    """(E, 2) complex jump vector per edge; zero rows on boundary edges."""
    mesh = field.mesh
    c = field.config
    _, _, G, div = _field_derivatives(field)
    E = len(mesh.edges)
    out = np.zeros((E, 2), dtype=np.complex128)
    interior = mesh.edge_tris[:, 1] >= 0
    t1 = mesh.edge_tris[interior, 0]
    t2 = mesh.edge_tris[interior, 1]

    pa = mesh.vertices[mesh.edges[interior, 0]]
    pb = mesh.vertices[mesh.edges[interior, 1]]
    tang = pb - pa
    nu = np.stack([tang[:, 1], -tang[:, 0]], axis=1)
    nu /= np.linalg.norm(nu, axis=1)[:, None]
    # orient nu outward from triangle 1
    centroid1 = mesh.vertices[mesh.triangles[t1]].mean(axis=1)
    mid = 0.5 * (pa + pb)
    flip = np.sum(nu * (centroid1 - mid), axis=1) > 0.0
    nu[flip] *= -1.0

    dG = G[t1] - G[t2]
    ddiv = div[t1] - div[t2]
    flux = c.mu * np.einsum("eab,eb->ea", dG, nu) + (c.lam + c.mu) * ddiv[:, None] * nu
    out[interior] = -flux
    return out


def interior_jumps(field: SolutionField) -> np.ndarray:
    """|| J_e ||_{L2(e)} = |J_e| sqrt(h_e) per edge (0 on boundary edges)."""
    J = _interior_jump_vectors(field)
    h = field.mesh.edge_lengths()
    return np.linalg.norm(np.abs(J), axis=1) * np.sqrt(h)


def interior_jump(field: SolutionField, edge: int) -> float:
    if field.mesh.edge_tris[edge, 1] < 0:
        raise NotInteriorEdge(f"edge {edge} is a boundary edge")
    return float(interior_jumps(field)[edge])


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
    _, _, G, div = _field_derivatives(field)
    E = len(mesh.edges)
    out = np.zeros(E)
    outer_ids = np.flatnonzero(mesh.edge_tags == OUTER)
    if outer_ids.size == 0:
        return out

    trace = outer_trace(mesh, field.values)
    ns = spectrum.mode_numbers()
    W = mode_weights(trace.node_angles, ns)
    u_hat = W @ polar_components(trace)
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
    traction = c.mu * np.einsum("eab,eqb->eqa", G[t_adj], er) + (
        c.lam + c.mu
    ) * div[t_adj][:, None, None] * er

    J = 2.0 * (tn_cart - traction)
    sq = np.sum(np.abs(J) ** 2, axis=2)
    out[outer_ids] = np.sqrt(
        spectrum.radius * width * np.sum(_GAUSS_W[None, :] * sq, axis=1)
    )
    return out


def boundary_jump(field: SolutionField, edge: int, spectrum: DtnSpectrum) -> float:
    if field.mesh.edge_tags[edge] != OUTER:
        raise NotOuterEdge(f"edge {edge} is not on the outer circle")
    return float(boundary_jumps(field, spectrum)[edge])


def _eta_array(field: SolutionField, spectrum: DtnSpectrum) -> np.ndarray:
    mesh = field.mesh
    resid = element_residuals(field)
    jump = interior_jumps(field) + boundary_jumps(field, spectrum)
    jump_sq = jump**2
    jump_sq[mesh.edge_tags == OBSTACLE] = 0.0
    h_e = mesh.edge_lengths()
    per_tri = 0.5 * np.sum((h_e * jump_sq)[mesh.tri_edges], axis=1)
    return resid + np.sqrt(per_tri)


def local_estimator(field: SolutionField, triangle: int, spectrum: DtnSpectrum) -> float:
    """eta_K for a single triangle."""
    return float(_eta_array(field, spectrum)[triangle])


def global_estimate(
    field: SolutionField,
    spectrum: DtnSpectrum,
    u_inc_h1: float | None = None,
) -> EstimateReport:
    """Full indicator sweep: per-element eta_K, eps_h and eps_N.

    u_inc_h1 lets the caller freeze the incident norm on the initial
    mesh; by default it is recomputed on the current one.
    """
    cfg = field.config
    check_consistent(field.mesh, cfg, spectrum)
    eta = _eta_array(field, spectrum)
    eps_h = math.sqrt(float(np.sum(eta**2)))
    if u_inc_h1 is None:
        u_inc_h1 = incident_h1(cfg, field.mesh)
    eps_N = truncation_error(spectrum.truncation_n, cfg.R_hat, cfg.R, u_inc_h1)
    return EstimateReport(eta, eps_h, eps_N, dof=len(field.mesh.vertices))


def save_eta_csv(report: EstimateReport, path):
    """Per-triangle export ``triangle_index eta`` for heat maps."""
    with open(path, "w") as fh:
        fh.write("triangle_index,eta\n")
        fh.write(format_rows("%d,%.17g\n", np.arange(len(report.eta)), report.eta))
