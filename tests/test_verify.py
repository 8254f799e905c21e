"""The analytic benchmark and its differential/spectral identities."""

import math
import re
import types

import numpy as np
import pytest

from elastodtn import IncidentWave, build_spectrum, example1_config, incident_field
from elastodtn.errors import (InsufficientData, InvalidParameter, OriginEvaluation,
                              OverflowRegime)
from elastodtn.verify import ConvergenceFit, exact_solution_example1, fit_rate

from oracles import exact_boundary_operator_example1, helmholtz_check


def sample_points(rng, n=100, r_lo=0.55, r_hi=0.95):
    r = rng.uniform(r_lo, r_hi, size=n)
    th = rng.uniform(0, 2 * math.pi, size=n)
    return np.stack([r * np.cos(th), r * np.sin(th)], axis=1)


class TestExactSolution:
    def test_is_negative_incident_field(self, rng):
        cfg = example1_config()
        pts = sample_points(rng)
        u, _ = exact_solution_example1(cfg, pts)
        assert np.max(np.abs(u + incident_field(cfg, pts))) <= 1e-14 * np.max(np.abs(u))

    def test_polar_form(self, rng):
        cfg = example1_config()
        pts = sample_points(rng, n=20)
        u, _ = exact_solution_example1(cfg, pts)
        r = np.linalg.norm(pts, axis=1)
        er = pts / r[:, None]
        et = np.stack([-er[:, 1], er[:, 0]], axis=1)
        from elastodtn.specfun import hankel01

        _, h1_1 = hankel01(cfg.kappa1 * r)
        _, h1_2 = hankel01(cfg.kappa2 * r)
        assert np.allclose(np.sum(u * er, axis=1), cfg.kappa1 * -h1_1, rtol=1e-12)
        assert np.allclose(np.sum(u * et, axis=1), -cfg.kappa2 * -h1_2, rtol=1e-12)

    def test_origin_rejected(self):
        with pytest.raises(OriginEvaluation):
            exact_solution_example1(example1_config(), [(0.0, 0.0)])

    @pytest.mark.parametrize("x, error", [
        (1e-152, OverflowRegime),  # the Jacobian's 1/r^3 terms overflow
        (1e-170, InvalidParameter),  # r^2 underflows to 0 away from the origin
        (1e155, InvalidParameter),  # r^2 overflows
    ])
    def test_extreme_points_are_refused_by_name(self, x, error):
        with pytest.raises(error, match=re.escape(f"point 1 {[x, 0.0]}")):
            exact_solution_example1(example1_config(), [(0.7, 0.0), (x, 0.0)])

    def test_jacobian_against_finite_differences(self, rng):
        cfg = example1_config()
        pts = sample_points(rng, n=20)
        _, jac = exact_solution_example1(cfg, pts)
        delta = 1e-6
        for axis in range(2):
            step = np.zeros(2)
            step[axis] = delta
            up, _ = exact_solution_example1(cfg, pts + step)
            um, _ = exact_solution_example1(cfg, pts - step)
            fd = (up - um) / (2 * delta)
            assert np.max(np.abs(jac[:, :, axis] - fd)) <= 1e-7 * np.max(np.abs(jac))

    def test_navier_residual_by_finite_differences(self, rng):
        """mu Lap u + (lam+mu) grad div u + omega^2 u = 0 pointwise."""
        cfg = example1_config()
        pts = sample_points(rng, n=20, r_lo=0.6, r_hi=0.9)
        u0, _ = exact_solution_example1(cfg, pts)
        d = 3e-4

        def u_at(q):
            return exact_solution_example1(cfg, q)[0]

        ex, ey = np.array([d, 0.0]), np.array([0.0, d])
        uxp, uxm = u_at(pts + ex), u_at(pts - ex)
        uyp, uym = u_at(pts + ey), u_at(pts - ey)
        lap = (uxp + uxm + uyp + uym - 4 * u0) / d**2

        def div_at(q):
            vxp, vxm = u_at(q + ex), u_at(q - ex)
            vyp, vym = u_at(q + ey), u_at(q - ey)
            return (vxp[:, 0] - vxm[:, 0] + vyp[:, 1] - vym[:, 1]) / (2 * d)

        graddiv = np.stack(
            [
                (div_at(pts + ex) - div_at(pts - ex)) / (2 * d),
                (div_at(pts + ey) - div_at(pts - ey)) / (2 * d),
            ],
            axis=1,
        )
        resid = cfg.mu * lap + (cfg.lam + cfg.mu) * graddiv + cfg.omega**2 * u0
        assert np.max(np.abs(resid)) <= 1e-5 * np.max(np.abs(u0)) * cfg.omega**2


class TestDtnIdentity:
    @pytest.mark.parametrize("omega", [math.pi, 1.0, 2 * math.pi])
    def test_boundary_operator_matches_mode_matrix(self, omega):
        """B u = M_0 (u_r, u_theta) at r = R for the pure n = 0 benchmark."""
        cfg = example1_config(omega=omega, N=0)
        spec = build_spectrum(cfg)
        bu, u_polar = exact_boundary_operator_example1(cfg)
        got = spec.matrix_stack()[0] @ u_polar  # row N + n, N = n = 0
        assert np.max(np.abs(got - bu)) <= 1e-8 * np.max(np.abs(bu))


class TestHelmholtzCheck:
    def test_exact_solution_residuals(self, rng):
        cfg = example1_config()
        pts = sample_points(rng, n=20, r_lo=0.6, r_hi=0.9)
        rep = helmholtz_check(
            lambda q: exact_solution_example1(cfg, q)[0], cfg, pts
        )
        assert rep.div_residual <= 1e-4
        assert rep.curl_residual <= 1e-4

    def test_plane_wave_is_curl_free(self, rng):
        cfg = example1_config(incident=IncidentWave(kind="plane"))
        pts = sample_points(rng, n=20)
        rep = helmholtz_check(
            lambda q: incident_field(cfg, q), cfg, pts, step=1e-6
        )
        assert rep.curl_max <= 1e-8

    def test_plane_wave_div_satisfies_helmholtz(self, rng):
        cfg = example1_config(incident=IncidentWave(kind="plane"))
        pts = sample_points(rng, n=20)
        rep = helmholtz_check(lambda q: incident_field(cfg, q), cfg, pts)
        assert rep.div_residual <= 1e-4

    def test_zero_field(self, rng):
        cfg = example1_config()
        pts = sample_points(rng, n=5)
        rep = helmholtz_check(lambda q: np.zeros((len(q), 2)), cfg, pts)
        assert rep.div_residual == 0.0
        assert rep.curl_residual == 0.0
        assert rep.curl_max == 0.0


def synthetic_history(dofs, errs):
    recs = [
        types.SimpleNamespace(dof=d, e_h=e, eps_h=e * 8.0, iteration=i)
        for i, (d, e) in enumerate(zip(dofs, errs))
    ]
    return types.SimpleNamespace(records=recs)


class TestFitRate:
    def test_exact_power_law(self):
        dofs = [100, 400, 1600, 6400, 25600]
        errs = [3.0 * d**-0.5 for d in dofs]
        fit = fit_rate(synthetic_history(dofs, errs), use="e_h")
        assert isinstance(fit, ConvergenceFit)
        assert fit.slope == pytest.approx(-0.5, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_insufficient_data(self):
        with pytest.raises(InsufficientData):
            fit_rate(synthetic_history([10, 20, 40], [1, 0.7, 0.5]), use="e_h")

    def test_eps_h_channel(self):
        dofs = [100, 400, 1600, 6400, 25600]
        errs = [2.0 * d**-0.5 for d in dofs]
        fit = fit_rate(synthetic_history(dofs, errs), use="eps_h")
        assert fit.slope == pytest.approx(-0.5, abs=1e-12)

    def test_unknown_channel(self):
        with pytest.raises(ValueError):
            fit_rate(synthetic_history([1, 2, 3, 4], [1, 1, 1, 1]), use="energy")


class TestRunCorrelation:
    def test_estimator_tracks_error(self, run_example1_adaptive):
        """e_h and eps_h positively correlated across iterations."""
        e = np.array([r.e_h for r in run_example1_adaptive.records])
        eps = np.array([r.eps_h for r in run_example1_adaptive.records])
        r = np.corrcoef(e, eps)[0, 1]
        assert r >= 0.9
