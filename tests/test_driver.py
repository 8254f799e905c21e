"""Adaptive loop mechanics, run artifacts, determinism, and the CLI."""

import math
import sys
import types

import numpy as np
import pytest

from elastodtn import (
    adaptive_solve,
    assembly,
    build_spectrum,
    estimator,
    example1_config,
    example1_mesh,
    example2_config,
    example2_mesh,
    uniform_solve,
)
from elastodtn import driver, verify
from elastodtn.driver import _write_run_outputs, cli, load_config_file, write_history_csv
from elastodtn.dtn import spectrum_table
from elastodtn.errors import InvalidParameter, InvalidRadii, IterationCapReached
from elastodtn.mesh import Mesh, generate_annulus, refine_all, save_mesh, save_triangle_scalars

LOOSEST = sys.float_info.max  # a tolerance every estimate meets


class TestAdaptiveLoop:
    def test_infinite_tolerance_single_iteration(self):
        # an infinite tolerance is rejected; the largest finite one stops
        # the loop after the first solve
        with pytest.raises(InvalidParameter, match="finite"):
            example1_config(tolerance=math.inf)
        cfg = example1_config(tolerance=LOOSEST)
        hist = adaptive_solve(cfg, example1_mesh(16, 1))
        assert len(hist.records) == 1
        assert hist.records[0].iteration == 0

    def test_loose_tolerance_terminates_quickly(self):
        # tolerance sits above the second-iteration eps_h, so the loop
        # stops within three solves with monotone eps_h
        cfg = example1_config(tolerance=8.5)
        hist = adaptive_solve(cfg, example1_mesh(64, 4))
        assert 2 <= len(hist.records) <= 3
        eps = [r.eps_h for r in hist.records]
        assert all(a > b for a, b in zip(eps, eps[1:]))
        assert eps[-1] <= 8.5

    def test_iteration_cap_carries_partial_history(self):
        cfg = example1_config(tolerance=1e-9, max_iters=2)
        with pytest.raises(IterationCapReached) as err:
            adaptive_solve(cfg, example1_mesh(16, 1))
        hist = err.value.history
        assert hist is not None
        assert len(hist.records) == 2

    def test_dof_strictly_increasing_and_eps_n_constant(self, run_example1_adaptive):
        recs = run_example1_adaptive.records
        dofs = [r.dof for r in recs]
        assert all(a < b for a, b in zip(dofs, dofs[1:]))
        eps_n = {r.eps_N for r in recs}
        assert len(eps_n) == 1
        # Table-1 step 3 budget, relative to the incident norm
        assert recs[0].eps_N <= 1e-8 * run_example1_adaptive.u_inc_h1

    def test_obstacle_outside_r_hat_rejected(self):
        cfg = example1_config(R_hat=0.4)
        for run in (
            lambda: adaptive_solve(cfg, example1_mesh(16, 1)),
            lambda: uniform_solve(cfg, example1_mesh(16, 1), rounds=0),
        ):
            with pytest.raises(InvalidRadii, match="obstacle vertex lies at r = 0.5"):
                run()

    def test_outer_radius_must_equal_r(self):
        cfg = example1_config()
        mesh = generate_annulus(0.5, 1.25, 16, 1)
        for run in (
            lambda: adaptive_solve(cfg, mesh),
            lambda: uniform_solve(cfg, mesh, rounds=0),
        ):
            with pytest.raises(InvalidRadii, match="outer radius 1.25 differs from R = 1"):
                run()

    def test_shipped_examples_fit_their_radii(self):
        # the disk touches R_hat = 0.5 exactly; the U-shape reaches 2.309 < 2.31
        adaptive_solve(example1_config(tolerance=LOOSEST), example1_mesh(16, 1))
        uniform_solve(example2_config(N=8), example2_mesh(), rounds=0)

    def test_max_dof_stop(self):
        cfg = example1_config(tolerance=1e-12, max_iters=40)
        hist = adaptive_solve(cfg, example1_mesh(16, 1), max_dof=400)
        assert hist.records[-1].dof >= 400
        assert hist.records[-2].dof < 400


class TestRunArtifacts:
    @pytest.fixture()
    def estimate_calls(self, monkeypatch):
        calls = []
        estimate = estimator.global_estimate

        def counting(*args, **kwargs):
            calls.append(1)
            return estimate(*args, **kwargs)

        monkeypatch.setattr(estimator, "global_estimate", counting)
        return calls

    @staticmethod
    def fresh_eta_csv(hist, path):
        spectrum = build_spectrum(hist.config)
        report = estimator.global_estimate(hist.field, spectrum, u_inc_h1=hist.u_inc_h1)
        estimator.save_eta_csv(report, path)
        return path.read_bytes()

    def test_one_estimate_per_iteration_and_none_in_writer(self, tmp_path, estimate_calls):
        cfg = example1_config(tolerance=1e-12, max_iters=40)
        hist = adaptive_solve(cfg, example1_mesh(16, 1), max_dof=400)
        assert len(estimate_calls) == len(hist.records) >= 3
        _write_run_outputs(hist, tmp_path / "run")
        assert len(estimate_calls) == len(hist.records)
        eta = (tmp_path / "run" / "eta_final.csv").read_bytes()
        assert eta == self.fresh_eta_csv(hist, tmp_path / "fresh.csv")

    def test_capped_history_carries_final_report(self, tmp_path, estimate_calls):
        cfg = example1_config(tolerance=1e-9, max_iters=2)
        with pytest.raises(IterationCapReached) as err:
            adaptive_solve(cfg, example1_mesh(16, 1))
        hist = err.value.history
        assert len(estimate_calls) == 2
        assert len(hist.report.eta) == len(hist.mesh.triangles)
        _write_run_outputs(hist, tmp_path / "run", dump_spectrum=True)
        assert len(estimate_calls) == 2
        assert (tmp_path / "run" / "spectrum.txt").exists()
        eta = (tmp_path / "run" / "eta_final.csv").read_bytes()
        assert eta == self.fresh_eta_csv(hist, tmp_path / "fresh.csv")

    def test_one_spectrum_per_run_and_none_in_writer(self, tmp_path, monkeypatch):
        calls = []

        def counting(config):
            calls.append(config)
            return build_spectrum(config)

        monkeypatch.setattr(driver, "build_spectrum", counting)
        cfg = example1_config(tolerance=LOOSEST, N=12)
        hist = adaptive_solve(cfg, example1_mesh(16, 1))
        _write_run_outputs(hist, tmp_path / "run", dump_spectrum=True)
        assert calls == [cfg]
        written = (tmp_path / "run" / "spectrum.txt").read_text()
        assert written == spectrum_table(build_spectrum(cfg))


class TestArtifactBytes:
    """The one-format writers against the row-by-row f-string loops they
    replaced, on a random complex field with signed zeros and values
    from 1e-20 to 1e4."""

    @pytest.fixture(scope="class")
    def field(self):
        mesh = refine_all(example1_mesh(16, 1))
        rng = np.random.default_rng(11)
        shape = (len(mesh.vertices), 2)
        scale = 10.0 ** rng.uniform(-20, 4, size=shape)
        values = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * scale
        values[:4] = 0.0
        values[4:8] = complex(-0.0, -0.0)
        values[8, 0] = complex(-0.0, 0.0)
        values[9, 1] = complex(0.0, -0.0)
        return assembly.SolutionField(
            mesh, example1_config(), values, np.zeros(len(mesh.vertices), dtype=bool)
        )

    @staticmethod
    def loop_solution(field):
        out = "vertex_index,x,y,re_ux,im_ux,re_uy,im_uy\n"
        for i, ((x, y), (ux, uy)) in enumerate(zip(field.mesh.vertices, field.values)):
            out += (
                f"{i},{x:.17g},{y:.17g},{ux.real:.17g},{ux.imag:.17g},"
                f"{uy.real:.17g},{uy.imag:.17g}\n"
            )
        return out

    @staticmethod
    def loop_mesh(mesh):
        out = f"vertices {len(mesh.vertices)} triangles {len(mesh.triangles)}\n"
        for (x, y), tag in zip(mesh.vertices, mesh.vertex_tags):
            out += f"{x:.17g} {y:.17g} {int(tag)}\n"
        for i, j, k in mesh.triangles:
            out += f"{i} {j} {k}\n"
        return out

    def test_solution_csv(self, field, tmp_path):
        assembly.save_solution_csv(field, tmp_path / "s.csv")
        assert (tmp_path / "s.csv").read_text() == self.loop_solution(field)

    def test_mesh(self, field, tmp_path):
        save_mesh(field.mesh, tmp_path / "m.txt")
        assert (tmp_path / "m.txt").read_text() == self.loop_mesh(field.mesh)

    def test_eta_csv(self, field, tmp_path):
        eta = np.abs(field.values[: len(field.mesh.triangles), 0])
        estimator.save_eta_csv(types.SimpleNamespace(eta=eta), tmp_path / "e.csv")
        want = "triangle_index,eta\n" + "".join(f"{i},{v:.17g}\n" for i, v in enumerate(eta))
        assert (tmp_path / "e.csv").read_text() == want

    def test_triangle_scalars(self, field, tmp_path):
        values = field.values[: len(field.mesh.triangles), 1].real
        save_triangle_scalars(tmp_path / "t.txt", values)
        want = "".join(f"{i} {v:.17g}\n" for i, v in enumerate(values))
        assert (tmp_path / "t.txt").read_text() == want


class TestUniformLoop:
    def test_zero_rounds_initial_solve_only(self):
        cfg = example1_config()
        hist = uniform_solve(cfg, example1_mesh(16, 1), rounds=0)
        assert len(hist.records) == 1

    def test_two_rounds_quadruple_triangles(self):
        cfg = example1_config(N=4)
        hist = uniform_solve(cfg, example1_mesh(8, 1), rounds=2)
        assert hist.records[-1].n_triangles == 256
        assert [r.n_triangles for r in hist.records] == [16, 64, 256]


class TestDeterminism:
    def test_double_run_bit_identical_history(self, tmp_path):
        cfg = example1_config(tolerance=6.0)
        paths = []
        for tag in ("a", "b"):
            hist = adaptive_solve(cfg, example1_mesh(32, 2))
            p = tmp_path / f"history_{tag}.csv"
            write_history_csv(hist, p)
            paths.append(p)
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestConfigFile:
    def test_parse_values_and_comments(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text(
            "# benchmark setup\n"
            "omega = 3.14159\n"
            "lambda = 2.0\n"
            "theta = 0.4   # marking fraction\n"
            "N = 12\n"
            "example = 1\n"
            "\n"
        )
        got = load_config_file(p)
        assert got == {
            "omega": 3.14159,
            "lambda": 2.0,
            "theta": 0.4,
            "N": 12,
            "example": 1,
        }

    def test_malformed_line_rejected(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("omega 3.14\n")
        with pytest.raises(Exception, match="key = value"):
            load_config_file(p)


class TestCli:
    def test_solve_example1_loose(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = cli(
            [
                "solve",
                "--example",
                "1",
                "--tol",
                "0.2",
                "--max-dof",
                "900",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = (out / "history.csv").read_text().splitlines()
        assert lines[0] == "iter,dof,eps_h,eps_N,e_h"
        assert len(lines) >= 3  # header + at least 2 iterations
        for name in ("mesh_final.txt", "solution_final.csv", "eta_final.csv"):
            assert (out / name).exists()

    def test_invalid_radii_nonzero_exit(self, tmp_path, capsys):
        code = cli(
            ["solve", "--example", "1", "--R-hat", "2", "--R", "1", "--out", str(tmp_path)]
        )
        assert code != 0
        assert "InvalidRadii" in capsys.readouterr().err

    def test_r_hat_inside_obstacle_is_an_error(self, tmp_path, capsys):
        code = cli(["solve", "--example", "1", "--R-hat", "0.4", "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: InvalidRadii: an obstacle vertex lies at r = 0.5")
        assert not (tmp_path / "history.csv").exists()

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--omega", "-1", "need omega > 0"),
            ("--N", "-1", "truncation order N must be nonnegative"),
            ("--mu", "0", "need mu > 0 and lam + mu > 0"),
            ("--lambda", "-1", "need mu > 0 and lam + mu > 0"),
        ],
    )
    def test_bad_numeric_input_is_a_library_error(self, tmp_path, capsys, flag, value, message):
        code = cli(["solve", "--example", "1", flag, value, "--out", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err == f"error: InvalidParameter: {message}\n"
        assert not (tmp_path / "history.csv").exists()

    @pytest.mark.parametrize(
        "flag, value, line",
        [
            ("--theta", "0", "ThetaOutOfRange: theta must lie in (0, 1), got 0.0"),
            ("--theta", "1", "ThetaOutOfRange: theta must lie in (0, 1), got 1.0"),
            ("--max-iters", "0", "InvalidParameter: need max_iters >= 1, got 0"),
            ("--tol", "-1", "InvalidParameter: need tolerance > 0, got -1.0"),
            ("--tol", "nan",
             "InvalidParameter: omega, lam, mu, R, R_hat and tolerance must be finite"),
        ],
    )
    def test_bad_loop_parameter_fails_before_solving(
        self, tmp_path, capsys, monkeypatch, flag, value, line
    ):
        solves = []
        monkeypatch.setattr(assembly, "solve", lambda system: solves.append(system))
        code = cli(["solve", "--example", "1", flag, value, "--out", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {line}\n"
        assert solves == []
        assert not (tmp_path / "history.csv").exists()

    def test_spectrum_dump_rows(self, capsys):
        code = cli(["spectrum-dump", "--N", "5"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        rows = [l for l in lines if not l.startswith("#")]
        assert len(rows) == 11  # n = -5..5

    def test_order_cap_is_a_library_error(self, capsys):
        code = cli(["spectrum-dump", "--N", "1100"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: OrderCapExceeded: order 1100")

    def test_mesh_info(self, capsys):
        code = cli(["mesh-info", "--example", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "vertices 320" in out
        assert "euler_characteristic 0" in out

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        p = tmp_path / "run.cfg"
        p.write_text("example = 1\nN = 3\ntol = 99.0\n")
        out = tmp_path / "o"
        code = cli(["solve", "--config", str(p), "--N", "4", "--out", str(out)])
        assert code == 0
        # tol 99 stops after one iteration; the N=4 override wins
        lines = (out / "history.csv").read_text().splitlines()
        assert len(lines) == 2

    def test_uniform_rounds_flag(self, tmp_path):
        out = tmp_path / "u"
        code = cli(
            ["solve", "--example", "1", "--N", "2", "--tol", "99",
             "--uniform-rounds", "1", "--out", str(out)]
        )
        assert code == 0

    def test_dump_spectrum_flag(self, tmp_path):
        out = tmp_path / "s"
        code = cli(
            ["solve", "--example", "1", "--N", "2", "--tol", "99",
             "--dump-spectrum", "--out", str(out)]
        )
        assert code == 0
        assert (out / "spectrum.txt").exists()

    def test_convergence_table(self, capsys):
        code = cli(
            ["convergence", "--example", "1", "--N", "4",
             "--max-dof", "700", "--rounds", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Adaptive mesh" in out and "Uniform mesh" in out
        assert "DoF" in out and "e_h" in out and "eps_h" in out
        # side-by-side rows carry numbers for both runs
        assert "320" in out


class TestExample2Setup:
    def test_fixture_mesh_valid(self):
        m = example2_mesh()
        assert m.euler_characteristic() == 0
        assert m.min_angle() >= 18.0
        assert m.obstacle_radius is None  # polygonal obstacle
        assert m.outer_radius == pytest.approx(3.0)

    def test_auto_truncation_selection(self):
        cfg = example2_config()
        assert cfg.N >= 60  # R_hat/R = 0.77 decays slowly
        assert cfg.R == 3.0 and cfg.R_hat == 2.31


class TestTracedEntryPoints:
    """The benchmark tracer (perfbench/tracer.py) times the layers by
    rebinding these names in the namespaces the program looks them up
    from.  A refactor that stops calling through one of them makes its
    traced metric read 0 without an error, so each must see a call."""

    NAMES = [
        (driver, "build_spectrum"),
        (driver, "select_truncation"),
        (driver, "load_mesh"),
        (driver, "generate_annulus"),
        (driver, "mark"),
        (driver, "refine"),
        (driver, "refine_all"),
        (driver, "adaptive_solve"),
        (driver, "uniform_solve"),
        (driver, "_write_run_outputs"),
        (assembly, "assemble"),
        (assembly, "solve"),
        (assembly, "incident_h1"),
        (assembly, "hankel01"),
        (verify, "hankel01"),
        (verify, "errors_vs_exact"),
        (estimator, "global_estimate"),
        (Mesh, "__post_init__"),
    ]

    def test_every_traced_name_is_called(self, tmp_path, monkeypatch):
        calls = {}

        def counted(key, fn):
            calls[key] = 0

            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        for owner, name in self.NAMES:
            key = f"{owner.__name__}.{name}"
            monkeypatch.setattr(owner, name, counted(key, getattr(owner, name)))
        # the tracer swaps assembly's scipy.sparse.linalg for a copy
        spla = types.ModuleType("spla_counted")
        spla.__dict__.update(vars(assembly.spla))
        spla.splu = counted("assembly.spla.splu", assembly.spla.splu)
        monkeypatch.setattr(assembly, "spla", spla)

        base = ["solve", "--example", "1", "--max-dof", "400"]
        assert cli(base + ["--out", str(tmp_path / "adaptive")]) == 0
        assert cli(base + ["--uniform-rounds", "1", "--out", str(tmp_path / "uniform")]) == 0
        example2_config()
        example2_mesh()
        assert [key for key, n in calls.items() if n == 0] == []
