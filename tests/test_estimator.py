"""Error indicator pieces against hand computations and quadrature oracles."""

import copy
import functools
import math

import numpy as np
import pytest

from elastodtn import (
    adaptive_solve,
    build_spectrum,
    example1_config,
    example2_mesh,
    generate_annulus,
    global_estimate,
)
from elastodtn.assembly import SolutionField, incident_h1
from elastodtn.estimator import boundary_jumps, element_residuals, interior_jumps
from elastodtn import dtn
from elastodtn.dtn import fourier_coefficients
from elastodtn.mesh import OBSTACLE, OUTER, Mesh
from elastodtn.verify import exact_solution_example1


def make_field(mesh, cfg, values):
    return SolutionField(
        mesh, cfg, np.asarray(values, dtype=np.complex128),
        np.zeros(len(mesh.vertices), dtype=bool),
    )


def zero_field(mesh, cfg):
    return make_field(mesh, cfg, np.zeros((len(mesh.vertices), 2)))


class TestElementResidual:
    def test_zero_field(self):
        cfg = example1_config(N=0)
        mesh = generate_annulus(0.5, 1.0, 8, 1)
        assert np.all(element_residuals(zero_field(mesh, cfg)) == 0.0)

    def test_constant_field_closed_form(self):
        cfg = example1_config(N=0)
        mesh = generate_annulus(0.5, 1.0, 8, 1)
        c = np.array([0.3 - 1.1j, 2.0 + 0.5j])
        vals = np.tile(c, (len(mesh.vertices), 1))
        res = element_residuals(make_field(mesh, cfg, vals))
        areas = mesh.areas
        h = mesh.diameters
        want = h * cfg.omega**2 * np.linalg.norm(np.abs(c)) * np.sqrt(areas)
        assert np.allclose(res, want, rtol=1e-12)

    def test_linear_field_against_degree5_quadrature(self, rng):
        cfg = example1_config(N=0)
        mesh = generate_annulus(0.5, 1.0, 8, 1)
        A = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=2) + 1j * rng.normal(size=2)
        vals = mesh.vertices @ A.T + b
        res = element_residuals(make_field(mesh, cfg, vals))

        # independent 7-point degree-5 quadrature of ||w^2 u||_L2
        w7 = np.array(
            [0.225]
            + [(155 - math.sqrt(15)) / 1200] * 3
            + [(155 + math.sqrt(15)) / 1200] * 3
        )
        a1 = (6 - math.sqrt(15)) / 21
        a2 = (6 + math.sqrt(15)) / 21
        bary = np.array(
            [[1 / 3] * 3]
            + [np.roll([a1, a1, 1 - 2 * a1], k) for k in range(3)]
            + [np.roll([a2, a2, 1 - 2 * a2], k) for k in range(3)]
        )
        areas = mesh.areas
        h = mesh.diameters
        for t in range(0, len(mesh.triangles), 3):
            pts = mesh.vertices[mesh.triangles[t]]
            acc = 0.0
            for w, lam in zip(w7, bary):
                q = lam @ pts
                uq = q @ A.T + b
                acc += w * float(np.sum(np.abs(uq) ** 2))
            want = h[t] * cfg.omega**2 * math.sqrt(acc * areas[t])
            assert res[t] == pytest.approx(want, rel=1e-12)


class TestInteriorJump:
    def test_globally_linear_field_no_jump(self, rng):
        cfg = example1_config(N=0)
        mesh = generate_annulus(0.5, 1.0, 16, 2)
        A = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        vals = mesh.vertices @ A.T
        jumps = interior_jumps(make_field(mesh, cfg, vals))
        assert np.max(jumps) <= 1e-12 * (1 + np.abs(A).max())

    def test_divergence_free_linear_complex_field(self, rng):
        cfg = example1_config(N=0)
        mesh = generate_annulus(0.5, 1.0, 16, 2)
        a, b, c = rng.normal(size=3) + 1j * rng.normal(size=3)
        A = np.array([[a, b], [c, -a]])  # trace-free: div u = 0
        vals = mesh.vertices @ A.T
        assert np.max(interior_jumps(make_field(mesh, cfg, vals))) <= 1e-12

    def test_zero_field(self):
        cfg = example1_config(N=0)
        mesh = generate_annulus(0.5, 1.0, 8, 1)
        assert np.max(interior_jumps(zero_field(mesh, cfg))) == 0.0

    def test_hand_computed_two_triangle_jump(self):
        """Bump one vertex; compare against a by-hand flux difference
        across one specific interior edge."""
        cfg = example1_config(N=0)
        mesh = generate_annulus(0.5, 1.0, 8, 1)
        interior_edges = np.flatnonzero(mesh.edge_tris[:, 1] >= 0)
        e = int(interior_edges[0])
        t1, t2 = mesh.edge_tris[e]
        vals = np.zeros((len(mesh.vertices), 2), dtype=np.complex128)
        bump_vertex = mesh.triangles[t1][0]
        vals[bump_vertex] = (1.0 + 0.5j, -2.0)
        got = interior_jumps(make_field(mesh, cfg, vals))[e]

        def tri_gradient(t):
            idx = mesh.triangles[t]
            p = mesh.vertices[idx]
            d1, d2 = p[1] - p[0], p[2] - p[0]
            area = 0.5 * (d1[0] * d2[1] - d1[1] * d2[0])
            G = np.zeros((2, 2), dtype=np.complex128)
            for i in range(3):
                gi = np.array(
                    [p[(i + 1) % 3][1] - p[(i + 2) % 3][1],
                     p[(i + 2) % 3][0] - p[(i + 1) % 3][0]]
                ) / (2 * area)
                G += np.outer(vals[idx[i]], gi)
            return G

        G1, G2 = tri_gradient(t1), tri_gradient(t2)
        pa, pb = mesh.vertices[mesh.edges[e]]
        tang = pb - pa
        nu = np.array([tang[1], -tang[0]]) / np.linalg.norm(tang)
        mid = 0.5 * (pa + pb)
        if np.dot(nu, mesh.vertices[mesh.triangles[t1]].mean(axis=0) - mid) > 0:
            nu = -nu
        flux = cfg.mu * (G1 - G2) @ nu + (cfg.lam + cfg.mu) * (
            np.trace(G1) - np.trace(G2)
        ) * nu
        want = np.linalg.norm(np.abs(flux)) * math.sqrt(np.linalg.norm(tang))
        assert got == pytest.approx(want, rel=1e-12)

    def test_independent_of_edge_orientation(self, rng):
        """Swapping the two triangles of every interior edge flips the
        sign of J_e and nothing else, so the returned |J_e| sqrt(h_e) is
        bit-identical: no normal needs orienting."""
        cfg = example1_config(N=0)
        mesh = example2_mesh()
        vals = rng.normal(size=(len(mesh.vertices), 2)) + 1j * rng.normal(
            size=(len(mesh.vertices), 2)
        )
        swapped = copy.copy(mesh)
        swapped.edge_tris = mesh.edge_tris.copy()
        inner = swapped.edge_tris[:, 1] >= 0
        swapped.edge_tris[inner] = swapped.edge_tris[inner, ::-1]
        a = interior_jumps(make_field(mesh, cfg, vals))
        b = interior_jumps(make_field(swapped, cfg, vals))
        assert inner.sum() > 0 and np.max(a) > 0.0
        assert a.tobytes() == b.tobytes()


class TestBoundaryJump:
    def test_zero_field(self):
        cfg = example1_config(N=4)
        mesh = generate_annulus(0.5, 1.0, 8, 1)
        spec = build_spectrum(cfg)
        assert np.max(boundary_jumps(zero_field(mesh, cfg), spec)) == 0.0

    def test_exact_interpolant_jump_decays(self):
        """The benchmark satisfies B u = T u exactly, so interpolating it
        leaves only discretization error: per-edge jumps shrink at O(h)."""
        cfg = example1_config(N=8)
        spec = build_spectrum(cfg)
        maxima = []
        for segments in (64, 128, 256):
            mesh = generate_annulus(0.5, 1.0, segments, max(1, segments // 32))
            vals = exact_solution_example1(cfg, mesh.vertices)[0]
            jumps = boundary_jumps(make_field(mesh, cfg, vals), spec)
            maxima.append(np.max(jumps))
        # ||J_e||_{L2(e)} combines an O(h) jump with sqrt(h): expect ~2^{1.5}
        assert maxima[0] / maxima[1] >= 2.0
        assert maxima[1] / maxima[2] >= 2.0

    def test_truncation_insensitive_for_axisymmetric_trace(self):
        """N = 0 vs N = 35 differ only through spurious trace modes."""
        cfg0 = example1_config(N=0)
        cfg35 = example1_config(N=35)
        mesh = generate_annulus(0.5, 1.0, 128, 4)
        vals = exact_solution_example1(cfg0, mesh.vertices)[0]
        f = make_field(mesh, cfg0, vals)
        j0 = boundary_jumps(f, build_spectrum(cfg0))
        spec35 = build_spectrum(cfg35)
        j35 = boundary_jumps(make_field(mesh, cfg35, vals), spec35)

        # oracle: total non-axisymmetric content of the trace under T_N
        idx, th = mesh.outer_vertex_order()
        coeffs = fourier_coefficients(th, vals[idx], 35)
        spill = sum(
            float(np.linalg.norm(np.abs(spec35.matrix_stack()[35 + n] @ coeffs[35 + n])))
            for n in range(-35, 36)
            if n != 0
        )
        outer_ids = np.flatnonzero(mesh.edge_tags == OUTER)
        h_arc = 2 * math.pi / 128
        bound = 2.0 * spill * math.sqrt(cfg0.R * h_arc * cfg0.R)
        assert np.max(np.abs(j35[outer_ids] - j0[outer_ids])) <= bound


class TestGlobalEstimate:
    def test_zero_field_zero_estimate(self):
        cfg = example1_config(N=4)
        mesh = generate_annulus(0.5, 1.0, 8, 1)
        rep = global_estimate(zero_field(mesh, cfg), build_spectrum(cfg), incident_h1(cfg, mesh))
        assert np.all(rep.eta == 0.0)
        assert rep.eps_h == 0.0
        assert rep.eps_N > 0.0
        assert rep.dof == 16

    def test_accumulation_identity(self, rng):
        cfg = example1_config(N=4)
        mesh = generate_annulus(0.5, 1.0, 16, 2)
        vals = rng.normal(size=(len(mesh.vertices), 2)) + 1j * rng.normal(
            size=(len(mesh.vertices), 2)
        )
        rep = global_estimate(
            make_field(mesh, cfg, vals), build_spectrum(cfg), incident_h1(cfg, mesh)
        )
        assert rep.eps_h**2 == pytest.approx(float(np.sum(rep.eta**2)), rel=1e-12)
        assert np.all(rep.eta >= 0.0)

    def test_obstacle_edges_excluded(self):
        """A field supported on the obstacle ring only produces volume
        residual but no jump contribution from the Dirichlet edges'
        own flux (the jump sum skips them)."""
        cfg = example1_config(N=0)
        mesh = generate_annulus(0.5, 1.0, 8, 1)
        spec = build_spectrum(cfg)
        vals = np.zeros((len(mesh.vertices), 2), dtype=np.complex128)
        vals[mesh.vertex_tags == OBSTACLE] = (1.0, 0.0)
        f = make_field(mesh, cfg, vals)
        rep = global_estimate(f, spec, incident_h1(cfg, mesh))
        # reconstruct eta for one obstacle-adjacent triangle without any
        # obstacle-edge jump: interior + outer edges only
        t = int(np.flatnonzero((mesh.edge_tags[mesh.tri_edges] == OBSTACLE).any(axis=1))[0])
        resid = element_residuals(f)[t]
        ij = interior_jumps(f)
        bj = boundary_jumps(f, spec)
        h_e = mesh.edge_lengths
        acc = 0.0
        for e in mesh.tri_edges[t]:
            if mesh.edge_tags[e] == OBSTACLE:
                continue
            acc += 0.5 * h_e[e] * (ij[e] + bj[e]) ** 2
        assert rep.eta[t] == pytest.approx(resid + math.sqrt(acc), rel=1e-12)

    def test_eta_composes_the_public_terms(self, rng, monkeypatch):
        """eta equals the composition of the three public per-term
        functions to the bit, and the field's Jacobians are evaluated once
        per estimate."""
        cfg = example1_config(N=4)
        mesh = generate_annulus(0.5, 1.0, 16, 2)
        spec = build_spectrum(cfg)
        vals = rng.normal(size=(len(mesh.vertices), 2)) + 1j * rng.normal(
            size=(len(mesh.vertices), 2)
        )
        f = make_field(mesh, cfg, vals)
        jump_sq = (interior_jumps(f) + boundary_jumps(f, spec)) ** 2
        jump_sq[mesh.edge_tags == OBSTACLE] = 0.0
        per_tri = 0.5 * np.sum((mesh.edge_lengths * jump_sq)[mesh.tri_edges], axis=1)
        want = element_residuals(f) + np.sqrt(per_tri)

        calls = []
        jacobians = SolutionField.jacobians.func

        def count(field):
            calls.append(field)
            return jacobians(field)

        counted = functools.cached_property(count)
        counted.__set_name__(SolutionField, "jacobians")
        monkeypatch.setattr(SolutionField, "jacobians", counted)
        # a given incident norm keeps the incident field's Jacobians out
        rep = global_estimate(make_field(mesh, cfg, vals), spec, u_inc_h1=1.0)
        assert len(calls) == 1
        assert np.array_equal(rep.eta, want)

    def test_one_trace_map_per_iteration(self, monkeypatch):
        """Assembly and the estimator share one outer-circle trace map per
        mesh and mode set, and the estimate is the same to the bit as one
        that builds its own map on a fresh copy of the mesh."""
        calls = []
        build = dtn._outer_mode_basis
        monkeypatch.setattr(
            dtn, "_outer_mode_basis", lambda mesh, ns: calls.append(mesh) or build(mesh, ns)
        )
        cfg = example1_config(tolerance=1e-12)
        hist = adaptive_solve(cfg, generate_annulus(0.5, 1.0, 16, 1), max_dof=600)
        assert len(hist.records) >= 3
        assert len(calls) == len(hist.records) == len(set(map(id, calls)))

        m = hist.field.mesh
        fresh = Mesh(m.vertices, m.triangles, m.vertex_tags, 0,
                     outer_radius=cfg.R, obstacle_radius=cfg.R_hat)
        field = SolutionField(fresh, cfg, hist.field.values, hist.field.dirichlet_mask)
        again = global_estimate(field, hist.spectrum, u_inc_h1=hist.u_inc_h1)
        assert len(calls) == len(hist.records) + 1
        assert np.array_equal(again.eta, hist.report.eta)
        assert again.eps_h == hist.report.eps_h
