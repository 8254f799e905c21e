"""Acceptance gate: every exit criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass line
per criterion.  The two long-running criteria (benchmark convergence
and the adaptive-vs-uniform comparison) share the session fixtures.
"""

import math
import time
import types

import numpy as np

from elastodtn import (
    adaptive_solve,
    assemble,
    build_spectrum,
    example1_config,
    example1_mesh,
    example2_config,
    example2_mesh,
    generate_annulus,
    global_estimate,
    h1_norm,
    hankel_ratio_gap,
    mark,
    mode_scalar_arrays,
    refine,
    select_truncation,
    solve,
    truncation_error,
)
from elastodtn.assembly import SolutionField, incident_h1
from elastodtn.driver import _write_run_outputs
from elastodtn.specfun import bessel_jy
from elastodtn.verify import exact_boundary_operator_example1, fit_rate

from test_dtn import unsimplified_mode_matrix
from test_specfun import max_feasible_order

K1, K2 = math.pi / 2, math.pi

U_CORNERS = np.array(
    [
        (-2.0, -0.7),
        (2.2, -0.7),
        (2.2, -0.1),
        (-1.4, -0.1),
        (-1.4, 0.1),
        (2.2, 0.1),
        (2.2, 0.7),
        (-2.0, 0.7),
    ]
)


def report(num, elapsed, text):
    print(f"criterion {num:2d} PASS ({elapsed:6.2f} s): {text}")


def test_criterion_01_dtn_algebra():
    t0 = time.perf_counter()
    worst = 0.0
    M = build_spectrum(example1_config(N=40)).matrix_stack()
    for n in range(0, 41):
        got = M[40 + n]
        want = unsimplified_mode_matrix(n, math.pi, 2.0, 1.0, 1.0)
        worst = max(worst, float(np.max(np.abs(got - want)) / np.max(np.abs(want))))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-9
    assert elapsed < 1.0
    report(1, elapsed, f"simplified vs raw M_n for |n| <= 40, worst rel {worst:.2e}")


def test_criterion_02_lambda_asymptotics():
    t0 = time.perf_counter()
    target = 5 * math.pi**2 / 8
    ns = np.arange(64, 513)
    gaps = np.abs(mode_scalar_arrays(ns, K1, K2, 1.0)[2] - target)
    assert np.all(gaps <= 10.0 / ns)
    scaled = ns * gaps
    windows = [
        float(scaled[(ns >= a) & (ns < b)].max())
        for a, b in ((64, 128), (128, 256), (256, 513))
    ]
    assert windows[0] + 1e-9 >= windows[1] + 1e-9 >= windows[2]
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(
        2,
        elapsed,
        "|Lambda_n - 5pi^2/8| <= 10/n on [64,512], windowed n*gap "
        + " >= ".join(f"{w:.3f}" for w in windows),
    )


def test_criterion_03_hankel_ratio_bound():
    t0 = time.perf_counter()
    ns = np.arange(30, 121)
    gap = hankel_ratio_gap(ns, K1, K2, 0.5, 1.0)
    bound = K2 * (K2 - K1) * (1 - 0.25) * 0.5**ns / (ns - 1)
    assert np.all(gap <= bound)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    margin = np.max(gap / bound)
    report(3, elapsed, f"ratio-gap bound holds on [30,120], max gap/bound {margin:.3f}")


def test_criterion_04_exact_dtn_identity():
    t0 = time.perf_counter()
    worst = 0.0
    for omega in (math.pi, 1.0, 2 * math.pi):
        cfg = example1_config(omega=omega, N=0)
        bu, u_polar = exact_boundary_operator_example1(cfg)
        got = build_spectrum(cfg).matrix_stack()[0] @ u_polar  # row N + n, N = n = 0
        worst = max(worst, float(np.max(np.abs(got - bu)) / np.max(np.abs(bu))))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-8
    assert elapsed < 1.0
    report(4, elapsed, f"analytic B u = M_0 u at n=0 for three materials, worst {worst:.2e}")


def test_criterion_05_truncation_selection():
    t0 = time.perf_counter()
    ns = np.arange(20, 61)
    vals = np.array([truncation_error(int(n), 0.5, 1.0, 1.0) for n in ns])
    slope = float(np.polyfit(ns, np.log(vals), 1)[0])
    assert abs(slope - math.log(0.5)) <= 0.05 * abs(math.log(0.5))

    rng = np.random.default_rng(7)
    for _ in range(20):
        q = float(rng.uniform(0.2, 0.9))
        tol = 10.0 ** float(rng.uniform(-9, -2))
        got = select_truncation(q, 1.0, 1.0, tol)
        window = np.arange(got, got + 2000, dtype=float)
        assert float(np.max(window * q**window)) <= tol
        if got > 0:
            prev = np.arange(got - 1, got + 2000, dtype=float)
            assert float(np.max(prev * q**prev)) > tol
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(5, elapsed, f"eps_N slope {slope:.4f} ~ ln(1/2); selection = brute force x20")


def test_criterion_06_benchmark_convergence(run_example1_adaptive):
    t0 = time.perf_counter()
    hist = run_example1_adaptive
    recs = hist.records
    assert len(recs) >= 5
    assert recs[-1].dof >= 10_000  # "DoF ~ 15k": the stop fires crossing 15000

    fit = fit_rate(hist, use="e_h")
    assert -0.65 <= fit.slope <= -0.35

    eps = [r.eps_h for r in recs]
    plateaus = sum(1 for a, b in zip(eps, eps[1:]) if b >= a)
    assert plateaus <= 1

    ratios = [r.eps_h / r.e_h for r in recs]
    assert all(2.0 <= rho <= 30.0 for rho in ratios)
    elapsed = time.perf_counter() - t0
    report(
        6,
        elapsed,
        f"slope {fit.slope:.3f} in [-0.65,-0.35]; {len(recs)} iterations to "
        f"DoF {recs[-1].dof}; eps_h/e_h in [{min(ratios):.1f}, {max(ratios):.1f}]",
    )


def test_criterion_07_adaptive_beats_uniform(run_example1_adaptive, run_example1_uniform):
    t0 = time.perf_counter()
    target = 0.18

    def closest(hist):
        return min(hist.records, key=lambda r: abs(r.e_h - target))

    a = closest(run_example1_adaptive)
    u = closest(run_example1_uniform)
    assert a.dof <= u.dof
    elapsed = time.perf_counter() - t0
    report(
        7,
        elapsed,
        f"at e_h ~ {target}: adaptive {a.dof} DoF (e_h {a.e_h:.3f}) <= "
        f"uniform {u.dof} DoF (e_h {u.e_h:.3f})",
    )


def test_criterion_08_ushape_corner_concentration():
    t0 = time.perf_counter()
    cfg = example2_config(tolerance=1e-12)
    mesh = example2_mesh()
    spectrum = build_spectrum(cfg)
    u_inc = incident_h1(cfg, mesh)

    records = []
    corner_hits = []
    for it in range(7):
        field = solve(assemble(mesh, cfg, spectrum))
        rep = global_estimate(field, spectrum, u_inc_h1=u_inc)
        records.append(
            types.SimpleNamespace(iteration=it, dof=rep.dof, eps_h=rep.eps_h, e_h=None)
        )
        centroid = mesh.vertices[mesh.triangles[int(np.argmax(rep.eta))]].mean(axis=0)
        corner_hits.append(
            float(np.min(np.linalg.norm(U_CORNERS - centroid, axis=1))) <= 0.3
        )
        if it < 6:
            mesh = refine(mesh, mark(rep.eta, cfg.theta_mark))

    fit = fit_rate(types.SimpleNamespace(records=records), use="eps_h")
    assert -0.65 <= fit.slope <= -0.35
    assert len(records) >= 5
    assert sum(corner_hits[-5:]) >= 3
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    report(
        8,
        elapsed,
        f"eps_h slope {fit.slope:.3f}; max-eta within 0.3 of a corner in "
        f"{sum(corner_hits[-5:])}/5 final iterations",
    )


def test_criterion_09_truncation_saturation():
    t0 = time.perf_counter()
    mesh = example1_mesh(64, 4)
    fields = {}
    for n in (35, 45):
        cfg = example1_config(N=n)
        fields[n] = solve(assemble(mesh, cfg, build_spectrum(cfg)))
    a, b = fields[35], fields[45]
    diff = SolutionField(mesh, a.config, a.values - b.values, a.dirichlet_mask)
    gap = h1_norm(diff) / h1_norm(a)
    elapsed = time.perf_counter() - t0
    assert gap <= 1e-6
    assert elapsed < 60.0
    report(9, elapsed, f"N=35 vs N=45 relative H1 difference {gap:.2e} <= 1e-6")


def test_criterion_10_infrastructure(tmp_path):
    t0 = time.perf_counter()
    # complex symmetry of the assembled matrix
    cfg = example1_config(N=10)
    A = assemble(example1_mesh(32, 2), cfg, build_spectrum(cfg)).matrix
    assert abs(A - A.T).max() <= 1e-12 * abs(A).max()

    # Wronskian sweep at 1e-10 over the representable range
    for z in (0.5, 1.0, math.pi, 10.0, 19.0):
        n_max = max_feasible_order(z)
        J, Y = bessel_jy(n_max, z)
        target = 2 / (math.pi * z)
        worst = max(abs(J[n + 1] * Y[n] - J[n] * Y[n + 1] - target) for n in range(n_max))
        assert worst <= 1e-10 * target

    # conformity + Euler characteristic across 6 refinement rounds
    rng = np.random.default_rng(3)
    m = generate_annulus(0.5, 1.0, 16, 2)
    for _ in range(6):
        marked = rng.choice(len(m.triangles), size=len(m.triangles) // 4 + 1, replace=False)
        m = refine(m, marked)
        assert m.euler_characteristic() == 0

    # bit-identical history CSVs across two runs
    paths = []
    for tag in ("a", "b"):
        hist = adaptive_solve(example1_config(tolerance=6.0), example1_mesh(32, 2))
        _write_run_outputs(hist, tmp_path / tag)
        paths.append(tmp_path / tag / "history.csv")
    assert paths[0].read_bytes() == paths[1].read_bytes()
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(10, elapsed, "symmetry, Wronskian suite, mesh invariants, determinism")
