"""Assembly, solve, norms, and incident fields.

The strongest checks: a manufactured pure-Dirichlet solve built in the
test from the public element matrices converges to the analytic
benchmark at O(h), and Galerkin orthogonality of the full solve is
re-verified by a term-by-term evaluation of the variational form.
"""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
import scipy.special as sc

from elastodtn import (
    IncidentWave,
    adaptive_solve,
    assemble,
    build_spectrum,
    energy_norm,
    example1_config,
    example1_mesh,
    example2_config,
    example2_mesh,
    generate_annulus,
    h1_norm,
    incident_field,
    solve,
)
from elastodtn import assembly
from elastodtn.assembly import (
    LinearSystem,
    SolutionField,
    difference,
    dtn_block,
    element_matrices,
    residual_vector,
    triangle_magnitudes,
)
from elastodtn.errors import InvalidRadii, MeshMismatch, OriginEvaluation
from elastodtn.mesh import OBSTACLE, refine, refine_all
from elastodtn.verify import errors_vs_exact, exact_solution_example1


class TestProblemConfig:
    def test_wavenumber_ordering(self):
        cfg = example1_config()
        assert cfg.kappa1 == pytest.approx(math.pi / 2)
        assert cfg.kappa2 == pytest.approx(math.pi)
        assert cfg.kappa1 < cfg.kappa2

    def test_invalid_radii(self):
        with pytest.raises(InvalidRadii):
            example1_config(R_hat=2.0, R=1.0)

    def test_invalid_material(self):
        with pytest.raises(ValueError):
            example1_config(mu=-1.0)


class TestIncidentField:
    def test_plane_wave_at_origin(self):
        cfg = example1_config(incident=IncidentWave(kind="plane"))
        v = incident_field(cfg, [(0.0, 0.0)])
        assert v[0, 0] == pytest.approx(1.0)
        assert v[0, 1] == pytest.approx(0.0)

    def test_plane_wave_unimodular(self, rng):
        cfg = example1_config(incident=IncidentWave(kind="plane"))
        pts = rng.uniform(-1, 1, size=(50, 2))
        v = incident_field(cfg, pts)
        assert np.allclose(np.linalg.norm(np.abs(v), axis=1), 1.0)

    def test_hankel0_matches_direct_composition(self):
        """Composition oracle at a point on r = 1 plus the polar split."""
        cfg = example1_config()
        k1, k2 = cfg.kappa1, cfg.kappa2
        theta = 0.73
        p = np.array([[math.cos(theta), math.sin(theta)]])
        v = incident_field(cfg, p)[0]
        dh0_1 = sc.h1vp(0, k1)
        dh0_2 = sc.h1vp(0, k2)
        want = -k1 * dh0_1 * p[0] - k2 * dh0_2 * np.array([p[0][1], -p[0][0]])
        assert np.allclose(v, want, rtol=1e-12)
        er = p[0]
        et = np.array([-er[1], er[0]])
        assert np.dot(v, er) == pytest.approx(-k1 * dh0_1, rel=1e-12)
        assert np.dot(v, et) == pytest.approx(k2 * dh0_2, rel=1e-12)

    def test_origin_evaluation(self):
        with pytest.raises(OriginEvaluation):
            incident_field(example1_config(), [(0.0, 0.0)])


class TestAssemble:
    def test_dimension_and_counting(self):
        cfg = example1_config(N=0)
        mesh = generate_annulus(0.5, 1.0, 8, 1)
        system = assemble(mesh, cfg, build_spectrum(cfg))
        n_free = 2 * (16 - 8)  # all vertices minus obstacle ring
        assert system.matrix.shape == (n_free, n_free)
        assert len(system.dirichlet_dofs) == 16

    def test_complex_symmetry(self):
        cfg = example1_config(N=12)
        mesh = example1_mesh(32, 2)
        A = assemble(mesh, cfg, build_spectrum(cfg)).matrix
        gap = abs(A - A.T).max()
        assert gap <= 1e-12 * abs(A).max()

    def test_patch_kernel_of_stiffness(self):
        """Constants lie in the kernel once mass and DtN are removed.

        K(omega) = S - omega^2 M elementwise, so S = (4 K(1) - K(2)) / 3.
        """
        mesh = example1_mesh(16, 2)
        cfg1 = example1_config(omega=1.0, N=0)
        cfg2 = example1_config(omega=2.0, N=0)
        el1 = element_matrices(mesh, cfg1)
        el2 = element_matrices(mesh, cfg2)
        stiff = (4.0 * el1 - el2) / 3.0
        const = np.tile(np.array([1.0, 2.0]), 3)  # u = (1, 2) at all nodes
        worst = np.abs(stiff @ const).max()
        assert worst <= 1e-12 * np.abs(stiff).max()

    def test_identity_system_smoke(self):
        mesh = generate_annulus(0.5, 1.0, 8, 1)
        cfg = example1_config(N=0)
        n = 2 * len(mesh.vertices)
        rhs = np.arange(1, n + 1, dtype=np.complex128)
        system = LinearSystem(
            matrix=sp.identity(n, format="csc", dtype=np.complex128),
            rhs=rhs,
            free_dofs=np.arange(n),
            dirichlet_dofs=np.array([], dtype=np.int64),
            dirichlet_values=np.array([], dtype=np.complex128),
            mesh=mesh,
            config=cfg,
        )
        field = solve(system)
        assert np.allclose(field.values.ravel(), rhs)

    def test_mismatched_spectrum_rejected(self):
        cfg = example1_config(N=3)
        other = example1_config(N=3, omega=2.0)
        mesh = generate_annulus(0.5, 1.0, 8, 1)
        with pytest.raises(ValueError, match="different material"):
            assemble(mesh, cfg, build_spectrum(other))

    def test_full_solve_postconditions(self):
        cfg = example1_config()
        mesh = example1_mesh(32, 2)
        system = assemble(mesh, cfg, build_spectrum(cfg))
        field = solve(system)
        assert np.all(np.isfinite(field.values))
        x = field.values.ravel()[system.free_dofs]
        rel = np.linalg.norm(system.matrix @ x - system.rhs) / np.linalg.norm(system.rhs)
        assert rel <= 1e-10
        assert np.allclose(
            field.values[mesh.vertex_tags == OBSTACLE],
            -incident_field(cfg, mesh.vertices[mesh.vertex_tags == OBSTACLE]),
        )

    def test_manufactured_dirichlet_problem_rate(self):
        """Pure Dirichlet solve (no DtN, exact traces on both boundaries)
        converges at O(h) in H1."""
        cfg = example1_config(N=0)
        errs = []
        mesh = example1_mesh(16, 1)
        for _ in range(3):
            el = element_matrices(mesh, cfg)
            n_dof = 2 * len(mesh.vertices)
            gdof = np.empty((len(mesh.triangles), 6), dtype=np.int64)
            gdof[:, 0::2] = 2 * mesh.triangles
            gdof[:, 1::2] = 2 * mesh.triangles + 1
            A = sp.coo_matrix(
                (
                    el.ravel(),
                    (np.repeat(gdof, 6, axis=1).ravel(), np.tile(gdof, (1, 6)).ravel()),
                ),
                shape=(n_dof, n_dof),
            ).tocsr()
            bdry = np.flatnonzero(mesh.vertex_tags != 0)
            bdofs = np.column_stack([2 * bdry, 2 * bdry + 1]).ravel()
            gvals = exact_solution_example1(cfg, mesh.vertices[bdry])[0].ravel()
            free = np.setdiff1d(np.arange(n_dof), bdofs)
            x = spla.spsolve(A[free][:, free].tocsc(), -A[free][:, bdofs] @ gvals)
            full = np.zeros(n_dof, dtype=np.complex128)
            full[free] = x
            full[bdofs] = gvals
            fld = SolutionField(
                mesh, cfg, full.reshape(-1, 2), mesh.vertex_tags != 0
            )
            errs.append(errors_vs_exact(fld)[0])
            mesh = refine_all(mesh)
        rate1 = math.log2(errs[0] / errs[1])
        rate2 = math.log2(errs[1] / errs[2])
        assert rate1 == pytest.approx(1.0, abs=0.25)
        assert rate2 == pytest.approx(1.0, abs=0.15)

    def test_truncation_saturation_norm_on_irregular_mesh(self):
        """Beyond the selected truncation order, adding modes no longer
        moves the solution norm, even without mesh symmetry."""
        from elastodtn.mesh import refine

        mesh = example1_mesh(64, 4)
        mesh = refine(mesh, np.array([3]))
        mesh = refine(mesh, np.array([17, 250]))
        norms = {}
        for n in (35, 45):
            cfg = example1_config(N=n)
            norms[n] = h1_norm(solve(assemble(mesh, cfg, build_spectrum(cfg))))
        assert abs(norms[35] - norms[45]) <= 1e-6 * norms[35]

    def test_galerkin_orthogonality(self):
        cfg = example1_config()
        mesh = example1_mesh(32, 2)
        spectrum = build_spectrum(cfg)
        field = solve(assemble(mesh, cfg, spectrum))
        r = residual_vector(field, spectrum)
        dir_dofs = np.flatnonzero(np.repeat(mesh.vertex_tags == OBSTACLE, 2))
        free = np.setdiff1d(np.arange(len(r)), dir_dofs)
        scale = np.abs(r[dir_dofs]).max()
        assert np.abs(r[free]).max() <= 1e-9 * scale


def full_matrix(mesh, cfg, spectrum):
    """b_N over all DOFs, obstacle ones included: the volume triplets of
    the element matrices and the dense DtN block in one COO, as CSR."""
    el = element_matrices(mesh, cfg)
    n_dof = 2 * len(mesh.vertices)
    gdof = np.empty((len(mesh.triangles), 6), dtype=np.int64)
    gdof[:, 0::2] = 2 * mesh.triangles
    gdof[:, 1::2] = 2 * mesh.triangles + 1
    rows = np.repeat(gdof, 6, axis=1).ravel()
    cols = np.tile(gdof, (1, 6)).ravel()
    data = el.ravel()
    ddofs, D = dtn_block(mesh, spectrum)
    rows = np.concatenate([rows, np.repeat(ddofs, len(ddofs))])
    cols = np.concatenate([cols, np.tile(ddofs, len(ddofs))])
    data = np.concatenate([data, (-D).ravel()])
    return sp.coo_matrix((data, (rows, cols)), shape=(n_dof, n_dof)).tocsr()


def reference_system(mesh, cfg, spectrum):
    """(A_ff, rhs) the slicing way: full matrix, then its free rows and
    columns, with the lifting taken from its obstacle columns."""
    A = full_matrix(mesh, cfg, spectrum)
    dir_vert = np.flatnonzero(mesh.vertex_tags == OBSTACLE)
    dir_dofs = np.column_stack([2 * dir_vert, 2 * dir_vert + 1]).ravel()
    g = -incident_field(cfg, mesh.vertices[dir_vert]).ravel()
    free = np.setdiff1d(np.arange(A.shape[0]), dir_dofs)
    return A[free][:, free].tocsc(), -A[free][:, dir_dofs] @ g


def exact_mode_field(n, cfg, pts):
    """Outgoing pure-mode solution u = grad(H_n(k1 r) e^{in t})
    + curl(H_n(k2 r) e^{in t}), the closed-form field whose boundary
    traction the mode matrix M_n reproduces exactly."""
    pts = np.asarray(pts, dtype=float)
    r = np.linalg.norm(pts, axis=1)
    th = np.arctan2(pts[:, 1], pts[:, 0])
    k1, k2 = cfg.kappa1, cfg.kappa2
    h1, dh1 = sc.hankel1(n, k1 * r), sc.h1vp(n, k1 * r)
    h2, dh2 = sc.hankel1(n, k2 * r), sc.h1vp(n, k2 * r)
    phase = np.exp(1j * n * th)
    a = (k1 * dh1 + 1j * n / r * h2) * phase  # radial component
    b = (1j * n / r * h1 - k2 * dh2) * phase  # tangential component
    out = np.empty((len(pts), 2), dtype=np.complex128)
    c, s = np.cos(th), np.sin(th)
    out[:, 0] = a * c - b * s
    out[:, 1] = a * s + b * c
    return out


class TestModeManufactured:
    """End-to-end oracle for the angular modes: a pure mode-n outgoing
    field satisfies the DtN condition exactly, so the discrete solve with
    its obstacle trace as Dirichlet data must converge to it.  Any sign
    or rotation slip in the mode matrices or the trace transform stalls
    this convergence; the axisymmetric benchmark cannot see those."""

    @pytest.mark.parametrize("n_mode", [1, 3, -2])
    def test_discrete_solution_converges_to_mode(self, n_mode):
        cfg = example1_config(N=8)
        spectrum = build_spectrum(cfg)
        errs = []
        mesh = example1_mesh(16, 1)
        for _ in range(4):
            A = full_matrix(mesh, cfg, spectrum)
            n_dof = A.shape[0]
            bdry = np.flatnonzero(mesh.vertex_tags == OBSTACLE)
            bdofs = np.column_stack([2 * bdry, 2 * bdry + 1]).ravel()
            g = exact_mode_field(n_mode, cfg, mesh.vertices[bdry]).ravel()
            free = np.setdiff1d(np.arange(n_dof), bdofs)
            x = spla.spsolve(A[free][:, free].tocsc(), -A[free][:, bdofs] @ g)
            full = np.zeros(n_dof, dtype=np.complex128)
            full[free] = x
            full[bdofs] = g

            exact = exact_mode_field(n_mode, cfg, mesh.vertices)
            err = np.abs(full.reshape(-1, 2) - exact)
            errs.append(float(np.sqrt(np.mean(err**2))) / float(np.abs(exact).max()))
            mesh = refine_all(mesh)
        # nodal rms error shrinks ~4x per split once resolved; a wrong
        # sign anywhere in the mode coupling stalls this at O(1)
        assert errs[-2] / errs[-1] >= 2.8
        assert errs[0] / errs[-1] >= 20.0
        assert errs[-1] <= 0.02


class TestSolve:
    """The symmetric-mode factorization against SuperLU's defaults."""

    @staticmethod
    def _system(cfg, mesh, levels=0):
        for _ in range(levels):
            mesh = refine_all(mesh)
        return assemble(mesh, cfg, build_spectrum(cfg))

    @pytest.mark.parametrize("case", ["ex1", "ex2", "ex1-omega-8pi"])
    def test_matches_default_splu(self, case):
        if case == "ex1":
            system = self._system(example1_config(), example1_mesh(), levels=1)
        elif case == "ex2":
            system = self._system(example2_config(), example2_mesh())
        else:
            system = self._system(
                example1_config(omega=8.0 * math.pi), example1_mesh(), levels=2
            )
        x_ref = spla.splu(system.matrix).solve(system.rhs)
        x = solve(system).values.ravel()[system.free_dofs]
        assert np.linalg.norm(x - x_ref) <= 1e-12 * np.linalg.norm(x_ref)

    def test_zero_diagonal_needs_pivoting(self):
        """Complex symmetric, zero diagonal, condition number 67.  Taking
        the diagonal pivots without row interchanges
        (diag_pivot_thresh=0) leaves a relative residual of 25 here."""
        mesh = generate_annulus(0.5, 1.0, 8, 1)
        n = 2 * len(mesh.vertices)
        rng = np.random.default_rng(6)
        M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        M[rng.random((n, n)) > 0.2] = 0.0
        M = np.triu(M, 1)
        M = M + M.T
        system = LinearSystem(
            matrix=sp.csc_matrix(M),
            rhs=np.ones(n, dtype=np.complex128),
            free_dofs=np.arange(n),
            dirichlet_dofs=np.array([], dtype=np.int64),
            dirichlet_values=np.array([], dtype=np.complex128),
            mesh=mesh,
            config=example1_config(N=0),
        )
        x = solve(system).values.ravel()
        assert np.allclose(M @ x, system.rhs, rtol=0.0, atol=1e-12)

    @staticmethod
    def _keep_factors(monkeypatch) -> list:
        """Every factor solve() makes from now on, in order."""
        factors = []
        splu = assembly.spla.splu

        def keep(*args, **kwargs):
            factors.append(splu(*args, **kwargs))
            return factors[-1]

        monkeypatch.setattr(assembly.spla, "splu", keep)
        return factors

    def test_lu_fill_below_colamd(self, monkeypatch):
        """ex1 uniform level 2 (8 192 free DoF): 844 696 stored LU entries
        against 1 893 928 with the default COLAMD ordering."""
        system = self._system(example1_config(), example1_mesh(), levels=2)
        colamd = spla.splu(system.matrix).nnz
        factors = self._keep_factors(monkeypatch)
        solve(system)
        assert len(factors) == 1
        assert factors[0].nnz <= 0.6 * colamd

    @pytest.mark.parametrize("case", ["ex1-adaptive-step5", "ex1-level2"])
    def test_factor_stores_no_padding(self, case, monkeypatch):
        """The factor stores little beyond the nonzeros of L + U.  SuperLU's
        default relaxed supernodes stored 4.54 times them on the adaptive
        step-5 mesh (7 232 vertices, 13 952 free DoF)."""
        factors = self._keep_factors(monkeypatch)
        if case == "ex1-level2":
            solve(self._system(example1_config(), example1_mesh(), levels=2))
        else:
            history = adaptive_solve(
                example1_config(tolerance=1e-12), example1_mesh(), max_dof=7000
            )
            assert history.records[-1].dof == 7232
        lu = factors[-1]
        n = lu.shape[0]
        assert lu.nnz <= 1.05 * (lu.L.nnz + lu.U.nnz - n)


class TestFreeDofAssembly:
    """assemble() writes straight into free-DoF numbering.  SuperLU's
    minimum-degree ordering depends on the stored pattern, so it must be
    the slicing way's exactly, explicit zeros included."""

    @staticmethod
    def _case(case):
        if case == "ex1":
            return refine_all(example1_mesh()), example1_config()
        if case == "ex2":
            return example2_mesh(), example2_config()
        mesh = refine(example1_mesh(), np.array([3, 100, 200]))
        return refine(mesh, np.arange(0, len(mesh.triangles), 7)), example1_config()

    @pytest.mark.parametrize("case", ["ex1", "ex2", "ex1-adaptive"])
    def test_matches_full_matrix_slices(self, case):
        mesh, cfg = self._case(case)
        spectrum = build_spectrum(cfg)
        system = assemble(mesh, cfg, spectrum)
        A_ref, rhs_ref = reference_system(mesh, cfg, spectrum)
        A = system.matrix
        assert A.format == "csc" and A.shape == A_ref.shape
        assert np.array_equal(A.indptr, A_ref.indptr)
        assert np.array_equal(A.indices, A_ref.indices)
        assert np.abs(A.data - A_ref.data).max() <= 1e-14 * np.abs(A_ref.data).max()
        assert np.linalg.norm(system.rhs - rhs_ref) <= 1e-14 * np.linalg.norm(rhs_ref)
        on_obstacle = np.repeat(mesh.vertex_tags == OBSTACLE, 2)
        assert np.array_equal(system.free_dofs, np.flatnonzero(~on_obstacle))

    def test_explicit_zeros_kept(self):
        """ex1 level 1 stores exact zeros that sparse + would drop."""
        mesh, cfg = self._case("ex1")
        A = assemble(mesh, cfg, build_spectrum(cfg)).matrix
        assert np.count_nonzero(A.data == 0) > 0

    def test_memory_peak(self):
        """One assembly at ex1 level 2 (8 192 free DoF) peaks below 42 MB
        of traced allocations; forming the full matrix and slicing it
        peaked at 57.6 MB."""
        mesh = refine_all(refine_all(example1_mesh()))
        cfg = example1_config()
        spectrum = build_spectrum(cfg)
        tracemalloc.start()
        try:
            assemble(mesh, cfg, spectrum)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 42e6


class TestNorms:
    def test_constant_field_h1_is_area(self):
        mesh = example1_mesh(64, 4)
        cfg = example1_config()
        ones = np.zeros((len(mesh.vertices), 2), dtype=np.complex128)
        ones[:, 0] = 1.0
        f = SolutionField(mesh, cfg, ones, np.zeros(len(mesh.vertices), dtype=bool))
        mesh_area = float(np.sum(mesh.areas))
        assert h1_norm(f) ** 2 == pytest.approx(mesh_area, rel=1e-12)
        # polygonal area approaches the annulus area 3 pi / 4
        assert mesh_area == pytest.approx(3 * math.pi / 4, rel=5e-3)
        assert energy_norm(f) ** 2 == pytest.approx(
            cfg.omega**2 * mesh_area, rel=1e-12
        )

    def test_norm_equivalence_bounds(self, rng):
        mesh = example1_mesh(16, 2)
        cfg = example1_config()
        lo = min(cfg.mu, cfg.omega**2)
        hi = max(2 * cfg.lam + 3 * cfg.mu, cfg.omega**2)
        for _ in range(100):
            vals = rng.normal(size=(len(mesh.vertices), 2)) + 1j * rng.normal(
                size=(len(mesh.vertices), 2)
            )
            f = SolutionField(mesh, cfg, vals, np.zeros(len(mesh.vertices), dtype=bool))
            h1 = h1_norm(f) ** 2
            en = energy_norm(f) ** 2
            assert lo * h1 <= en * (1 + 1e-12)
            assert en <= hi * h1 * (1 + 1e-12)

    def test_interpolated_exact_field_rate(self):
        """P1 interpolation error of the benchmark decays at O(h)."""
        cfg = example1_config()
        errs = []
        mesh = example1_mesh(16, 1)
        for _ in range(3):
            vals = exact_solution_example1(cfg, mesh.vertices)[0]
            f = SolutionField(mesh, cfg, vals, np.zeros(len(mesh.vertices), dtype=bool))
            errs.append(errors_vs_exact(f)[0])
            mesh = refine_all(mesh)
        assert math.log2(errs[0] / errs[1]) == pytest.approx(1.0, abs=0.2)
        assert math.log2(errs[1] / errs[2]) == pytest.approx(1.0, abs=0.1)

    def test_difference_mesh_mismatch(self):
        cfg = example1_config()
        m1 = example1_mesh(16, 1)
        m2 = refine_all(m1)
        z1 = np.zeros((len(m1.vertices), 2), dtype=complex)
        z2 = np.zeros((len(m2.vertices), 2), dtype=complex)
        f1 = SolutionField(m1, cfg, z1, np.zeros(len(m1.vertices), dtype=bool))
        f2 = SolutionField(m2, cfg, z2, np.zeros(len(m2.vertices), dtype=bool))
        with pytest.raises(MeshMismatch):
            difference(f1, f2)


class TestTraceAndExports:
    def test_outer_trace_angles_sorted(self):
        mesh = example1_mesh(16, 1)
        idx, th = mesh.outer_vertex_order()
        assert np.all(np.diff(th) > 0)
        assert len(th) == 16
        assert np.allclose(np.linalg.norm(mesh.vertices[idx], axis=1), 1.0)

    def test_solution_csv_round_numbers(self, tmp_path):
        cfg = example1_config(N=2)
        mesh = generate_annulus(0.5, 1.0, 8, 1)
        field = solve(assemble(mesh, cfg, build_spectrum(cfg)))
        from elastodtn.assembly import save_solution_csv

        path = tmp_path / "solution.csv"
        save_solution_csv(field, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "vertex_index,x,y,re_ux,im_ux,re_uy,im_uy"
        assert len(lines) == 1 + len(mesh.vertices)

    def test_triangle_magnitudes_shape(self):
        cfg = example1_config(N=2)
        mesh = generate_annulus(0.5, 1.0, 8, 1)
        field = solve(assemble(mesh, cfg, build_spectrum(cfg)))
        mags = triangle_magnitudes(field)
        assert mags.shape == (len(mesh.triangles),)
        assert np.all(mags >= 0)
