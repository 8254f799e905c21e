"""DtN operator construction and the boundary form.

The mode matrices are checked against an independently coded oracle
that assembles the raw (unsimplified) entries through the second
derivative of the Hankel function, obtained from the Bessel ODE.  The
closed-form arc integrals behind the Fourier coefficients are checked
against dense numerical quadrature.
"""

import math
import time

import numpy as np
import pytest
import scipy.sparse as sp

from elastodtn.dtn import (
    _exp_moments,
    build_spectrum,
    mode_weights,
    outer_mode_basis,
    select_truncation,
    spectrum_table,
    truncation_error,
)
import scipy.special as sc

from elastodtn import specfun
from elastodtn.errors import DegenerateMode, EmptyBoundary, InvalidRadii, OrderCapExceeded
from elastodtn.specfun import mode_scalar_arrays
from elastodtn import example1_config, example1_mesh, example2_config, example2_mesh
from elastodtn.mesh import OUTER, refine

from oracles import dtn_boundary_form, fourier_coefficients, polar_components, trace_l2_sq


def unsimplified_mode_matrix(n, omega, lam, mu, R):
    """Oracle: raw matrix entries via H'' from the Bessel ODE, with H_n and
    H_n' from scipy (AMOS), independent of the library's recurrences."""
    k1 = omega / math.sqrt(lam + 2 * mu)
    k2 = omega / math.sqrt(mu)

    def ratios(kappa):
        z = kappa * R
        h, hp = sc.hankel1(n, z), sc.h1vp(n, z)
        alpha = kappa * hp / h
        hdd = -hp / z - (1 - n**2 / z**2) * h
        return alpha, hdd / h

    a1, dd1 = ratios(k1)
    a2, dd2 = ratios(k2)
    lam_n = (n / R) ** 2 - a1 * a2
    nR2 = (n / R) ** 2
    bracket = (lam + 2 * mu) * k1**2 * dd1 + (lam + mu) * (a1 / R - nR2)
    N11 = mu * nR2 * (a2 - 1 / R) - a2 * bracket
    N12 = mu * (1j * n / R) * a1 * (a2 - 1 / R) - (1j * n / R) * bracket
    N21 = -mu * (1j * n / R) * a2 * (a1 - 1 / R) + mu * (1j * n / R) * k2**2 * dd2
    N22 = mu * nR2 * (a1 - 1 / R) - mu * a1 * k2**2 * dd2
    return np.array([[N11, N12], [N21, N22]]) / lam_n


class TestModeMatrices:
    def test_n0_has_zero_offdiagonals(self):
        cfg = example1_config(N=0)
        spec = build_spectrum(cfg)
        M0 = spec.matrix_stack()[0]  # row N + n, N = n = 0
        assert M0[0, 1] == 0 and M0[1, 0] == 0

    def test_simplified_equals_unsimplified_n5(self):
        got = build_spectrum(example1_config(N=5)).matrix_stack()[10]  # row N + n
        want = unsimplified_mode_matrix(5, math.pi, 2.0, 1.0, 1.0)
        assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))

    def test_parity_structure(self):
        M = build_spectrum(example1_config(N=5)).matrix_stack()
        Mp, Mm = M[10], M[0]  # n = 5 and n = -5
        assert Mm[0, 0] == Mp[0, 0] and Mm[1, 1] == Mp[1, 1]
        assert Mm[0, 1] == -Mp[0, 1] and Mm[1, 0] == -Mp[1, 0]

    def test_m21_is_minus_m12(self):
        M = build_spectrum(example1_config(N=8)).matrix_stack()
        for n in (1, 3, 8):
            assert M[8 + n][1, 0] == pytest.approx(-M[8 + n][0, 1], rel=1e-14)

    @pytest.mark.parametrize("omega", [1.0, math.pi, 2 * math.pi])
    def test_simplified_vs_unsimplified_sweep(self, omega):
        M = build_spectrum(example1_config(omega=omega, N=20)).matrix_stack()
        for n in range(0, 21, 4):
            got = M[20 + n]
            want = unsimplified_mode_matrix(n, omega, 2.0, 1.0, 1.0)
            assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))

    def test_build_spectrum_covers_signed_modes(self):
        spec = build_spectrum(example1_config(N=7))
        assert spec.mode_numbers().tolist() == list(range(-7, 8))
        assert spec.matrix_stack().shape == (15, 2, 2)

    def test_build_spectrum_matches_single_modes_exactly(self):
        """M_n and the scalars of |n| do not depend on the truncation order:
        the spectrum cut at N = |n| has the same row bit for bit."""
        spec = build_spectrum(example1_config(N=12))
        for n in range(-12, 13):
            single = build_spectrum(example1_config(N=abs(n)))
            assert np.array_equal(spec.matrix_stack()[12 + n], single.matrix_stack()[abs(n) + n])
            assert spec.scalars[n] == single.scalars[n]
        assert list(spec.scalars) == list(range(-12, 13))

    def test_arrays_are_read_only_and_the_view_is_cached(self):
        spec = build_spectrum(example1_config(N=4))
        assert spec.matrix_stack().shape == (9, 2, 2)
        for a in (spec.matrix_stack(), spec.alpha1, spec.alpha2, spec.lambda_n):
            with pytest.raises(ValueError):
                a[0] = 0
        assert spec.scalars is spec.scalars
        assert list(spec.scalars) == list(range(-4, 5))
        for n, s in spec.scalars.items():
            assert (s.n, s.kappa1, s.kappa2, s.radius) == (n, spec.kappa1, spec.kappa2, 1.0)
            m = abs(n)
            assert (s.alpha1, s.alpha2, s.lambda_n) == (
                spec.alpha1[m], spec.alpha2[m], spec.lambda_n[m])



class TestDegenerateMode:
    """At R = 1, beta_13 = beta_23 = 6 makes Lambda_3 = 3 * 12 - 6 * 6 = 0."""

    @pytest.fixture
    def lambda3_zero(self, monkeypatch):
        ratios = specfun._hankel_ratios

        def patched(m_max, z):
            r = ratios(m_max, z)
            if m_max >= 3:
                r[3] = 6.0 / z  # beta = kappa rho = 6 at R = 1
            return r

        monkeypatch.setattr(specfun, "_hankel_ratios", patched)

    def test_build_spectrum_raises(self, lambda3_zero):
        with pytest.raises(DegenerateMode, match="Lambda_3 "):
            build_spectrum(example1_config(N=5))

    def test_mode_scalars_raise_only_for_their_own_order(self, lambda3_zero):
        k1, k2 = math.pi / 2, math.pi
        with pytest.raises(DegenerateMode, match="Lambda_3 "):
            mode_scalar_arrays(np.array([0, 3, 5]), k1, k2, 1.0)
        # order 3 sits in the recurrences but is not requested
        lam = mode_scalar_arrays(np.array([0, 2, 4, 5]), k1, k2, 1.0)[2]
        assert np.all(lam != 0)
        assert np.isfinite(build_spectrum(example1_config(N=2)).matrix_stack()).all()

    def test_small_lambda_of_a_low_frequency_is_not_degenerate(self):
        """At omega = 3e-8, Lambda_2 is about 1.1e-15 (mpmath: 1.125e-15):
        small in absolute terms, but not against the terms it is formed from."""
        lam = mode_scalar_arrays(np.arange(3), 1.5e-8, 3e-8, 1.0)[2]
        assert lam[2] == pytest.approx(1.125e-15, rel=1e-3)


def reference_spectrum_table(spectrum):
    """The per-mode f-string loop that spectrum_table replaced."""
    lines = [
        "# n  Re(M11) Im(M11)  Re(M12) Im(M12)  Re(M21) Im(M21)  Re(M22) Im(M22)"
        "  Re(Lambda) Im(Lambda)"
    ]
    N = spectrum.truncation_n
    for n in range(-N, N + 1):
        M = spectrum.matrix_stack()[N + n]
        L = spectrum.lambda_n[abs(n)]
        entries = " ".join(
            f"{M[i, j].real:+.12e} {M[i, j].imag:+.12e}"
            for i in range(2)
            for j in range(2)
        )
        lines.append(f"{n:d} {entries} {L.real:+.12e} {L.imag:+.12e}")
    return "\n".join(lines) + "\n"


class TestSpectrumTable:
    @pytest.mark.parametrize(
        "cfg", [example1_config(), example1_config(omega=1000.0, N=1024)], ids=["ex1", "k1000"]
    )
    def test_bytes_match_the_per_mode_loop(self, cfg):
        spec = build_spectrum(cfg)
        M0 = spec.matrix_stack()[cfg.N]
        assert M0[0, 1] == 0 and M0[1, 0] == 0
        assert spectrum_table(spec) == reference_spectrum_table(spec)


def equispaced_trace(n_nodes, values_fn):
    """(node angles, Cartesian values) of a trace on equally spaced nodes."""
    th = 2 * np.pi * np.arange(n_nodes) / n_nodes
    return th, np.asarray(values_fn(th), dtype=np.complex128)


class TestFourierCoefficients:
    def test_constant_cartesian_trace(self):
        # (1, 0) in Cartesian is a pure |n| = 1 pattern in polar components
        tr = equispaced_trace(64, lambda th: np.stack(
            [np.ones_like(th), np.zeros_like(th)], axis=1))
        c = fourier_coefficients(*tr, 4)  # mode n at row 4 + n
        assert c.shape == (9, 2)
        assert c[5, 0] == pytest.approx(0.5, abs=1e-3)
        assert c[3, 0] == pytest.approx(0.5, abs=1e-3)
        assert c[5, 1] == pytest.approx(0.5j, abs=1e-3)
        assert c[3, 1] == pytest.approx(-0.5j, abs=1e-3)
        for n in (0, 2, 3, 4):
            assert np.max(np.abs(c[4 + n])) <= 1e-3
            assert np.max(np.abs(c[4 - n])) <= 1e-3

    def test_pure_mode_decays_quadratically(self):
        # radial trace e^{i 3 theta}: coefficient error is O(h^2)
        def values(th):
            radial = np.exp(3j * th)
            return np.stack([radial * np.cos(th), radial * np.sin(th)], axis=1)

        errs = []
        for n_nodes in (32, 64, 128):
            c = fourier_coefficients(*equispaced_trace(n_nodes, values), 5)
            errs.append(abs(c[5 + 3, 0] - 1.0))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.15)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.15)

    def test_zero_trace(self):
        tr = equispaced_trace(16, lambda th: np.zeros((len(th), 2)))
        assert np.all(fourier_coefficients(*tr, 6) == 0)

    def test_too_few_nodes(self):
        # the program's node check, in mode_weights; the oracle has none
        with pytest.raises(EmptyBoundary):
            mode_weights(np.array([0.0, 2.0]), np.arange(-3, 4))

    def test_weights_match_dense_quadrature(self, rng):
        """Closed-form arc integrals vs brute-force trapezoid refinement."""
        th = np.sort(rng.uniform(0, 2 * np.pi, size=17))
        ns = np.array([-9, -2, 0, 1, 5])
        W = mode_weights(th, ns)
        fine = 4000
        for j in (0, 5, 16):
            hat = np.zeros(len(th))
            hat[j] = 1.0
            for k, n in enumerate(ns):
                total = 0.0 + 0.0j
                for a in range(len(th)):
                    t0, t1 = th[a], th[(a + 1) % len(th)] + (2 * np.pi if a + 1 == len(th) else 0)
                    ts = np.linspace(t0, t1, fine + 1)
                    va = hat[a] * (1 - (ts - t0) / (t1 - t0)) + hat[(a + 1) % len(th)] * (
                        (ts - t0) / (t1 - t0)
                    )
                    f = va * np.exp(-1j * n * ts)
                    total += np.trapezoid(f, ts)
                assert W[k, j] == pytest.approx(total / (2 * np.pi), abs=3e-8)

    def test_parseval_inequality(self, rng):
        vals = rng.normal(size=(24, 2)) + 1j * rng.normal(size=(24, 2))
        tr = equispaced_trace(24, lambda th: vals)
        c = fourier_coefficients(*tr, 40)
        lhs = 2 * np.pi * 1.0 * float(np.sum(np.abs(c) ** 2))
        assert lhs <= (1 + 1e-10) * trace_l2_sq(*tr, 1.0)

    def test_polar_conversion_per_node(self, rng):
        vals = rng.normal(size=(12, 2)) + 1j * rng.normal(size=(12, 2))
        tr = equispaced_trace(12, lambda th: vals)
        th = tr[0]
        p = polar_components(*tr)
        for j in (0, 4, 11):
            ur = vals[j, 0] * np.cos(th[j]) + vals[j, 1] * np.sin(th[j])
            ut = -vals[j, 0] * np.sin(th[j]) + vals[j, 1] * np.cos(th[j])
            assert p[j, 0] == pytest.approx(ur, rel=1e-14)
            assert p[j, 1] == pytest.approx(ut, rel=1e-14)


def where_exp_moments(s):
    """The reference: both branches evaluated everywhere, then selected."""
    s = np.asarray(s, dtype=np.complex128)
    small = np.abs(s) < 0.5
    safe = np.where(small, 1.0, s)
    es = np.exp(s)
    E_big = (es - 1.0) / safe
    G_big = (safe * es - es + 1.0) / (safe * safe)
    E_small = np.zeros_like(s)
    G_small = np.zeros_like(s)
    for k in range(18, -1, -1):
        E_small = E_small * s + 1.0 / math.factorial(k + 1)
        G_small = G_small * s + (k + 1.0) / math.factorial(k + 2)
    return np.where(small, E_small, E_big), np.where(small, G_small, G_big)


class TestExpMoments:
    @pytest.mark.parametrize("K, N", [(565, 97), (1024, 35), (2048, 35), (300, 1024)])
    def test_matches_where_version_on_mode_weight_arguments(self, rng, K, N):
        th = np.sort(rng.uniform(0, 2 * np.pi, size=K))
        delta = np.diff(np.concatenate([th, [th[0] + 2 * np.pi]]))
        ns = np.arange(-N, N + 1)
        s = -1j * ns[:, None] * delta[None, :]
        E, G = _exp_moments(s)
        E_ref, G_ref = where_exp_moments(s)
        assert np.array_equal(E, E_ref)
        assert np.array_equal(G, G_ref)

    def test_matches_where_version_across_the_branch_switch(self, rng):
        radius = 0.5 * (1.0 + np.concatenate(
            [[0.0, -1e-16, 1e-16, -1.0], np.linspace(-0.2, 0.2, 401)]
        ))
        angle = rng.uniform(-np.pi, np.pi, size=len(radius))
        s = radius * np.exp(1j * angle)
        s = np.concatenate([s, -1j * radius, radius])
        assert np.any(np.abs(s) < 0.5) and np.any(np.abs(s) >= 0.5)
        for got, want in zip(_exp_moments(s), where_exp_moments(s)):
            assert np.array_equal(got, want)


class TestBoundaryForm:
    def setup_method(self):
        self.spec = build_spectrum(example1_config(N=6))

    def test_direct_summation_oracle(self, rng):
        th = 2 * np.pi * np.arange(48) / 48
        vals_u = rng.normal(size=(48, 2)) + 1j * rng.normal(size=(48, 2))
        vals_v = rng.normal(size=(48, 2)) + 1j * rng.normal(size=(48, 2))
        got = dtn_boundary_form(self.spec, th, vals_u, vals_v)
        cu = fourier_coefficients(th, vals_u, 6)
        cv = fourier_coefficients(th, vals_v, 6)
        want = 0.0 + 0.0j
        for n in range(-6, 7):
            Mu = self.spec.matrix_stack()[6 + n] @ cu[6 + n]
            want += Mu[0] * np.conj(cv[6 + n, 0]) + Mu[1] * np.conj(cv[6 + n, 1])
        want *= 2 * np.pi * self.spec.radius
        assert got == pytest.approx(want, rel=1e-12)

    def test_zero_u_gives_zero(self, rng):
        th, zero = equispaced_trace(32, lambda th: np.zeros((len(th), 2)))
        vals_v = rng.normal(size=(32, 2)) + 1j * rng.normal(size=(32, 2))
        assert dtn_boundary_form(self.spec, th, zero, vals_v) == 0

    def test_linearity_in_first_argument(self, rng):
        th = 2 * np.pi * np.arange(32) / 32
        vals_u = rng.normal(size=(32, 2)) + 1j * rng.normal(size=(32, 2))
        vals_v = rng.normal(size=(32, 2)) + 1j * rng.normal(size=(32, 2))
        alpha = 0.7 - 2.1j
        a = dtn_boundary_form(self.spec, th, alpha * vals_u, vals_v)
        b = dtn_boundary_form(self.spec, th, vals_u, vals_v)
        assert a == pytest.approx(alpha * b, rel=1e-12)

    @pytest.mark.parametrize("example", ["ex1", "ushape"])
    def test_matches_dense_assembly_block(self, rng, example):
        """The mode-sum form and the assembled dense DtN coupling are two
        routes to the same sesquilinear form: v^H D u = form(u, v), with
        D = V - A on the outer DOFs, V the volume part summed from the
        element matrices and A the assembled system matrix.  The U-shape
        start mesh has a polygonal obstacle, R = 3 and N = 97."""
        from elastodtn.assembly import assemble, element_matrices
        from elastodtn.verify import exact_solution_example1

        if example == "ex1":
            mesh, cfg, spec = example1_mesh(24, 2), example1_config(N=6), self.spec
            u_nodal = exact_solution_example1(cfg, mesh.vertices)[0]
        else:
            mesh, cfg = example2_mesh(), example2_config()
            spec = build_spectrum(cfg)
            u_nodal = rng.normal(size=(len(mesh.vertices), 2)) + 1j * rng.normal(
                size=(len(mesh.vertices), 2))
        system = assemble(mesh, cfg, spec)
        assert system.matrix.format == "csc"  # the dense form of the coupling
        gdof = np.repeat(2 * mesh.triangles, 2, axis=1) + np.tile([0, 1], 3)
        rows, cols = np.repeat(gdof, 6, axis=1).ravel(), np.tile(gdof, (1, 6)).ravel()
        n_dof = 2 * len(mesh.vertices)
        V = sp.coo_matrix((element_matrices(mesh, cfg).ravel(), (rows, cols)),
                          shape=(n_dof, n_dof)).tocsr()
        dofs, _ = outer_mode_basis(mesh, spec.mode_numbers())
        at = np.searchsorted(system.free_dofs, dofs)
        D = V[dofs][:, dofs].toarray() - system.matrix[at][:, at].toarray()

        v_nodal = rng.normal(size=u_nodal.shape) + 1j * rng.normal(size=u_nodal.shape)
        idx, th = mesh.outer_vertex_order()
        got = dtn_boundary_form(spec, th, u_nodal[idx], v_nodal[idx])
        want = np.conj(v_nodal.ravel()[dofs]) @ (D @ u_nodal.ravel()[dofs])
        assert got == pytest.approx(complex(want), rel=1e-12)

    def test_single_mode_reduction(self):
        """A pure Fourier mode trace reduces the form to one mode product."""
        n_mode, n_nodes = 3, 4 * 4 * 6  # >= 4N nodes
        spec = self.spec

        def values(th):
            radial = np.exp(1j * n_mode * th)
            return np.stack([radial * np.cos(th), radial * np.sin(th)], axis=1)

        th, vals = equispaced_trace(n_nodes, values)
        got = dtn_boundary_form(spec, th, vals, vals)
        cu = fourier_coefficients(th, vals, 6)[6 + n_mode]
        single = 2 * np.pi * spec.radius * np.dot(
            spec.matrix_stack()[6 + n_mode] @ cu, np.conj(cu)
        )
        # off-mode content is interpolation spill-over, quadratically small
        assert abs(got - single) <= 5e-3 * abs(got)


class TestOuterModeBasis:
    def test_matches_reference_coefficients_on_uneven_nodes(self, rng):
        """B @ v[dofs] against the reference W @ polar route, on an ex1 mesh
        whose outer triangles in the first quadrant were refined twice, so
        the outer nodes there lie twice as close as elsewhere."""
        mesh = example1_mesh(32, 2)
        for _ in range(2):
            outer = mesh.edge_tris[mesh.edge_tags == OUTER, 0]
            centroid = mesh.vertices[mesh.triangles[outer]].mean(axis=1)
            mesh = refine(mesh, outer[(centroid[:, 0] > 0) & (centroid[:, 1] > 0)])
        idx, th = mesh.outer_vertex_order()
        gaps = np.diff(np.concatenate([th, [th[0] + 2 * np.pi]]))
        assert gaps.max() > 1.5 * gaps.min()

        N = 35
        v = rng.normal(size=(len(mesh.vertices), 2)) + 1j * rng.normal(
            size=(len(mesh.vertices), 2))
        dofs, B = outer_mode_basis(mesh, np.arange(-N, N + 1))
        assert B.shape == (2 * N + 1, 2, 2 * len(idx))
        got = B @ v.ravel()[dofs]
        want = fourier_coefficients(th, v[idx], N)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


class TestTruncationError:
    def test_half_ratio_closed_forms(self):
        assert truncation_error(4, 0.5, 1.0, 1.0) == pytest.approx(4 / 16)
        assert truncation_error(30, 0.5, 1.0, 1.0) == pytest.approx(30 * 2.0**-30)

    def test_peak_below_n(self):
        # q = 0.5: f peaks at n = 1/ln 2 ~ 1.44, so N = 0 sees the peak at n = 1 or 2
        v = truncation_error(0, 0.5, 1.0, 1.0)
        assert v == pytest.approx(max(1 * 0.5, 2 * 0.25))

    @staticmethod
    def window_scan(N, q):
        """The earlier implementation: n q^n over every order from N to past
        both N + 2/ln(1/q) and the peak."""
        width = int(math.ceil(2.0 / math.log(1.0 / q)))
        peak = int(math.ceil(1.0 / math.log(1.0 / q)))
        n = np.arange(N, max(N + width, peak + 1) + 1, dtype=np.float64)
        return float(np.max(n * q**n))

    def test_brute_force_scan_example2_ratio(self, rng):
        """Bit for bit, on a grid of ratios (example 2's among them) and of
        orders on both sides of every peak."""
        qs = [*rng.uniform(0.001, 0.9999, 40), 0.5, 0.77, 2.31 / 3.0, 0.975, 0.976, 1 / math.e]
        Ns = [*range(40), 97, 200, 1000, 1024]
        for q in map(float, qs):
            for N in Ns:
                assert truncation_error(N, q, 1.0, 1.0) == self.window_scan(N, q), (q, N)
        for N in (0, 5, 40, 80, 97):
            want = 8.907 * self.window_scan(N, 2.31 / 3.0)
            assert truncation_error(N, 2.31, 3.0, 8.907) == want

    def test_ratio_next_to_one(self):
        """At R_hat/R = 1 - 1e-12 the peak sits near n = 1e12: the value is
        f there, x*/e, and no order up to the cap meets the tolerance."""
        q = 0.999999999999
        peak = -1.0 / math.log(q)
        t0 = time.process_time()
        got = truncation_error(0, q, 1.0, 1.0)
        assert time.process_time() - t0 < 0.05
        assert got == pytest.approx(peak / math.e, rel=1e-15)
        assert truncation_error(1024, q, 1.0, 10.21) == pytest.approx(10.21 * got, rel=1e-15)
        t0 = time.process_time()
        with pytest.raises(OrderCapExceeded, match=r"\(R_hat/R = 0\.999999999999/1\)"):
            select_truncation(q, 1.0, 10.21, 1e-8)
        assert time.process_time() - t0 < 0.05

    def test_ratio_that_underflows(self):
        """R_hat/R = 1e-300/1e300 is 0 in doubles, and n q^n is 0 at every
        order, so eps_N = 0 and the first order, 0, meets any tolerance."""
        assert truncation_error(0, 1e-300, 1e300, 1.0) == 0.0
        assert truncation_error(40, 1e-300, 1e300, 8.907) == 0.0
        assert select_truncation(1e-300, 1e300, 1.0) == 0

    def test_invalid_radii(self):
        with pytest.raises(InvalidRadii):
            truncation_error(4, 1.0, 0.5, 1.0)

    def test_scaling_in_norm(self):
        assert truncation_error(10, 0.5, 1.0, 7.0) == pytest.approx(
            7.0 * truncation_error(10, 0.5, 1.0, 1.0)
        )


class TestSelectTruncation:
    def test_crossover_half_ratio(self):
        """Independent brute force over a wide window finds the crossover."""

        def brute_eps(N, q):
            n = np.arange(N, N + 2000, dtype=float)
            return float(np.max(n * q**n))

        want = 0
        while brute_eps(want, 0.5) > 1e-8:
            want += 1
        got = select_truncation(0.5, 1.0, 1.0, 1e-8)
        assert got == want
        assert truncation_error(got, 0.5, 1.0, 1.0) <= 1e-8
        assert truncation_error(got - 1, 0.5, 1.0, 1.0) > 1e-8

    def test_order_above_the_cap_raises(self):
        with pytest.raises(OrderCapExceeded, match=r"1e-08 .* maximum 1024 \(R_hat/R = 2.99/3\)"):
            select_truncation(2.99, 3.0, 1.0, 1e-8)
        # orders near the cap are still found: 1001 at q = 0.975, while
        # q = 0.976 would need more than 1024
        assert select_truncation(0.975, 1.0, 1.0, 1e-8) == 1001
        with pytest.raises(OrderCapExceeded):
            select_truncation(0.976, 1.0, 1.0, 1e-8)

    def test_loose_tolerance_gives_zero(self):
        eps0 = truncation_error(0, 0.5, 1.0, 1.0)
        assert select_truncation(0.5, 1.0, 1.0, eps0) == 0

    def test_brute_force_on_random_pairs(self, rng):
        for _ in range(20):
            q = float(rng.uniform(0.2, 0.9))
            tol = 10.0 ** float(rng.uniform(-9, -2))
            got = select_truncation(q, 1.0, 1.0, tol)
            # exhaustive check of minimality
            assert truncation_error(got, q, 1.0, 1.0) <= tol
            if got > 0:
                assert truncation_error(got - 1, q, 1.0, 1.0) > tol

    def test_norm_doubling_increment(self):
        base = select_truncation(0.5, 1.0, 1.0, 1e-8)
        doubled = select_truncation(0.5, 1.0, 2.0, 1e-8)
        assert 0 <= doubled - base <= math.ceil(1 / math.log(2.0)) + 1

    def test_eps_decay_is_exponential(self):
        """log eps_N affine in N with slope log(R_hat/R) within 5%."""
        ns = np.arange(20, 61)
        vals = np.array([truncation_error(int(n), 0.5, 1.0, 1.0) for n in ns])
        slope = np.polyfit(ns, np.log(vals), 1)[0]
        assert slope == pytest.approx(math.log(0.5), rel=0.05)
