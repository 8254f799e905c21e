"""Adaptive refinement loop, run configuration, CLI and run artifacts.

The loop follows the standard estimate/mark/refine cycle: fix the DtN
truncation order up front from the truncation-error budget, then solve,
estimate, stop once eps_h <= tolerance, otherwise refine every triangle
whose indicator exceeds theta times the maximum and repeat.  eps_N stays
constant across iterations because N and the frozen incident-field norm
are chosen once on the initial mesh.
"""

from __future__ import annotations

import argparse
import importlib.resources
import math
import sys
import time
from dataclasses import dataclass, replace

from . import assembly, estimator, mesh as meshmod, verify
from .assembly import IncidentWave, ProblemConfig
from .dtn import build_spectrum, select_truncation, spectrum_table
from .errors import ElastoDtnError, IterationCapReached
from .mesh import Mesh, generate_annulus, load_mesh, mark, refine, refine_all, save_mesh


@dataclass(frozen=True)
class RunRecord:
    iteration: int
    dof: int
    n_triangles: int
    eps_h: float
    eps_N: float
    e_h: float | None
    wall_time: float


@dataclass
class RunHistory:
    records: list[RunRecord]
    config: ProblemConfig
    mesh: Mesh
    field: assembly.SolutionField
    u_inc_h1: float
    report: estimator.EstimateReport  # indicators of the final field

    @property
    def final(self) -> RunRecord:
        return self.records[-1]


def example1_config(**overrides) -> ProblemConfig:
    """Benchmark disk-obstacle problem: omega=pi, lam=2, mu=1, annulus
    0.5 < r < 1, hankel0 incident wave."""
    base = dict(
        omega=math.pi,
        lam=2.0,
        mu=1.0,
        R=1.0,
        R_hat=0.5,
        N=35,
        incident=IncidentWave(kind="hankel0"),
        theta_mark=0.5,
        tolerance=1e-2,
    )
    base.update(overrides)
    return ProblemConfig(**base)


def example1_mesh(angular_segments: int = 64, radial_layers: int = 4) -> Mesh:
    return generate_annulus(0.5, 1.0, angular_segments, radial_layers)


def example2_config(**overrides) -> ProblemConfig:
    """U-shaped obstacle hit by a compressional plane wave; R=3, R_hat=2.31.

    When N is not given it is the smallest order whose truncation error
    on the shipped start mesh falls below 1e-8.
    """
    base = dict(
        omega=math.pi,
        lam=2.0,
        mu=1.0,
        R=3.0,
        R_hat=2.31,
        N=None,
        incident=IncidentWave(kind="plane", direction=(1.0, 0.0)),
        theta_mark=0.5,
        tolerance=1e-2,
    )
    base.update(overrides)
    if base["N"] is None:
        probe = ProblemConfig(**{**base, "N": 0})
        u_inc = assembly.incident_h1(probe, example2_mesh())
        base["N"] = select_truncation(probe.R_hat, probe.R, u_inc, 1e-8)
    return ProblemConfig(**base)


def example2_mesh() -> Mesh:
    path = importlib.resources.files("elastodtn") / "data" / "ushape_mesh.txt"
    return load_mesh(str(path))


def _solve_once(config, mesh_, spectrum):
    system = assembly.assemble(mesh_, config, spectrum)
    field = assembly.solve(system)
    return field


def _record(it, field, report, t0) -> RunRecord:
    e_h = None
    if field.config.incident.kind == "hankel0":
        e_h, energy = verify.errors_vs_exact(field)
        report.e_h, report.energy_error = e_h, energy
    return RunRecord(
        iteration=it,
        dof=report.dof,
        n_triangles=len(field.mesh.triangles),
        eps_h=report.eps_h,
        eps_N=report.eps_N,
        e_h=e_h,
        wall_time=time.perf_counter() - t0,
    )


def adaptive_solve(
    config: ProblemConfig, initial_mesh: Mesh, max_dof: int | None = None
) -> RunHistory:
    """Solve/estimate/mark/refine until eps_h <= tolerance.

    Raises IterationCapReached (with the partial history attached) if
    config.max_iters solves did not reach the tolerance; an optional
    max_dof turns the DoF budget into a regular stopping rule.  Raises
    InvalidRadii if the mesh does not fit config.R and config.R_hat.
    """
    meshmod.check_radii(initial_mesh, config.R_hat, config.R)
    t0 = time.perf_counter()
    spectrum = build_spectrum(config)
    u_inc_h1 = assembly.incident_h1(config, initial_mesh)
    current = initial_mesh
    records: list[RunRecord] = []
    while True:
        field = _solve_once(config, current, spectrum)
        report = estimator.global_estimate(field, spectrum, u_inc_h1=u_inc_h1)
        records.append(_record(len(records), field, report, t0))
        if report.eps_h <= config.tolerance:
            break
        if max_dof is not None and report.dof >= max_dof:
            break
        if len(records) >= config.max_iters:
            raise IterationCapReached(
                f"eps_h = {report.eps_h:.4g} > tolerance after "
                f"{config.max_iters} iterations",
                history=RunHistory(records, config, current, field, u_inc_h1, report),
            )
        marked = mark(report.eta, config.theta_mark)
        current = refine(current, marked)
    return RunHistory(records, config, current, field, u_inc_h1, report)


def uniform_solve(config: ProblemConfig, initial_mesh: Mesh, rounds: int) -> RunHistory:
    """Same pipeline with full refinement (every edge split) each round."""
    meshmod.check_radii(initial_mesh, config.R_hat, config.R)
    t0 = time.perf_counter()
    spectrum = build_spectrum(config)
    u_inc_h1 = assembly.incident_h1(config, initial_mesh)
    current = initial_mesh
    records: list[RunRecord] = []
    for it in range(rounds + 1):
        field = _solve_once(config, current, spectrum)
        report = estimator.global_estimate(field, spectrum, u_inc_h1=u_inc_h1)
        records.append(_record(it, field, report, t0))
        if it < rounds:
            current = refine_all(current)
    return RunHistory(records, config, current, field, u_inc_h1, report)


# -- run artifacts ----------------------------------------------------------


def write_history_csv(history: RunHistory, path):
    """Deterministic iteration log: iter, dof, eps_h, eps_N, e_h."""
    with open(path, "w") as fh:
        fh.write("iter,dof,eps_h,eps_N,e_h\n")
        for r in history.records:
            e_h = f"{r.e_h:.17g}" if r.e_h is not None else ""
            fh.write(f"{r.iteration},{r.dof},{r.eps_h:.17g},{r.eps_N:.17g},{e_h}\n")


def _write_run_outputs(history: RunHistory, out_dir, dump_spectrum=False):
    import os

    os.makedirs(out_dir, exist_ok=True)
    write_history_csv(history, os.path.join(out_dir, "history.csv"))
    save_mesh(history.mesh, os.path.join(out_dir, "mesh_final.txt"))
    assembly.save_solution_csv(history.field, os.path.join(out_dir, "solution_final.csv"))
    estimator.save_eta_csv(history.report, os.path.join(out_dir, "eta_final.csv"))
    meshmod.save_triangle_scalars(
        os.path.join(out_dir, "magnitude_final.txt"),
        assembly.triangle_magnitudes(history.field),
    )
    if dump_spectrum:
        with open(os.path.join(out_dir, "spectrum.txt"), "w") as fh:
            fh.write(spectrum_table(build_spectrum(history.config)))


# -- configuration plumbing -------------------------------------------------

_FLOAT_KEYS = {"omega", "lambda", "mu", "R", "R_hat", "theta", "tol"}
_INT_KEYS = {"N", "max_iters", "example", "max_dof", "rounds"}
# CLI flag (argparse dest, also the config-file key) -> ProblemConfig field
_CONFIG_FIELDS = {
    "omega": "omega",
    "lambda": "lam",
    "mu": "mu",
    "R": "R",
    "R_hat": "R_hat",
    "N": "N",
    "theta": "theta_mark",
    "tol": "tolerance",
    "max_iters": "max_iters",
}


def load_config_file(path) -> dict:
    """key = value lines; # starts a comment; keys mirror the CLI flags."""
    out = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ElastoDtnError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            if key in _FLOAT_KEYS:
                out[key] = float(value)
            elif key in _INT_KEYS:
                out[key] = int(value)
            else:
                out[key] = value
    return out


def _build_config(ns) -> tuple[ProblemConfig, Mesh]:
    settings = {}
    if ns.config:
        settings.update(load_config_file(ns.config))
    for key in (*_CONFIG_FIELDS, "example", "mesh"):
        val = getattr(ns, key, None)
        if val is not None:
            settings[key] = val

    example = int(settings.get("example", 1))
    maker = example1_config if example == 1 else example2_config
    overrides = {
        field: settings[key] for key, field in _CONFIG_FIELDS.items() if key in settings
    }
    cfg = maker(**overrides)
    if "mesh" in settings and settings["mesh"]:
        msh = load_mesh(settings["mesh"])
    elif example == 1:
        msh = example1_mesh()
    else:
        msh = example2_mesh()
    return cfg, msh


def _add_common_flags(p):
    p.add_argument("--config", help="key = value configuration file")
    p.add_argument("--example", type=int, choices=(1, 2))
    p.add_argument("--omega", type=float)
    p.add_argument("--lambda", type=float)
    p.add_argument("--mu", type=float)
    p.add_argument("--R", type=float)
    p.add_argument("--R-hat", dest="R_hat", type=float)
    p.add_argument("--N", type=int)
    p.add_argument("--theta", type=float)
    p.add_argument("--tol", type=float)
    p.add_argument("--max-iters", dest="max_iters", type=int)
    p.add_argument("--mesh", help="mesh file overriding the built-in geometry")
    p.add_argument("--out", default="out", help="output directory")


def cli(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="elastodtn",
        description="Adaptive FEM solver for elastic scattering with a DtN boundary",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run the adaptive loop")
    _add_common_flags(p_solve)
    p_solve.add_argument(
        "--max-dof", dest="max_dof", type=int, default=50_000,
        help="stop once the mesh reaches this many nodes (desk-run budget)",
    )
    p_solve.add_argument("--uniform-rounds", dest="uniform_rounds", type=int,
                         help="uniform refinement instead of adaptive")
    p_solve.add_argument("--dump-spectrum", action="store_true")

    p_conv = sub.add_parser(
        "convergence", help="adaptive vs uniform error table (benchmark style)"
    )
    _add_common_flags(p_conv)
    p_conv.add_argument("--max-dof", dest="max_dof", type=int, default=4000)
    p_conv.add_argument("--rounds", type=int, default=3)

    p_spec = sub.add_parser("spectrum-dump", help="print the DtN mode matrices")
    _add_common_flags(p_spec)

    p_info = sub.add_parser("mesh-info", help="mesh statistics and invariants")
    _add_common_flags(p_info)

    ns = parser.parse_args(argv)
    try:
        return _dispatch(ns)
    except ElastoDtnError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def _dispatch(ns) -> int:
    if ns.command == "solve":
        cfg, msh = _build_config(ns)
        if ns.uniform_rounds is not None:
            history = uniform_solve(cfg, msh, ns.uniform_rounds)
        else:
            try:
                history = adaptive_solve(cfg, msh, max_dof=ns.max_dof)
            except IterationCapReached as exc:
                print(f"warning: {exc}", file=sys.stderr)
                history = exc.history
        _write_run_outputs(history, ns.out, dump_spectrum=ns.dump_spectrum)
        last = history.final
        print(
            f"iterations={len(history.records)} dof={last.dof} "
            f"eps_h={last.eps_h:.6g} eps_N={last.eps_N:.3g}"
            + (f" e_h={last.e_h:.6g}" if last.e_h is not None else "")
        )
        return 0

    if ns.command == "convergence":
        cfg, msh = _build_config(ns)
        try:
            adaptive = adaptive_solve(
                replace(cfg, tolerance=1e-12), msh, max_dof=ns.max_dof
            )
        except IterationCapReached as exc:
            adaptive = exc.history
        uniform = uniform_solve(cfg, msh, ns.rounds)
        print(_convergence_table(adaptive, uniform))
        return 0

    if ns.command == "spectrum-dump":
        cfg, _ = _build_config(ns)
        print(spectrum_table(build_spectrum(cfg)), end="")
        return 0

    if ns.command == "mesh-info":
        _, msh = _build_config(ns)
        c = msh.counts()
        print(
            f"vertices {c['vertices']} triangles {c['triangles']} edges {c['edges']}\n"
            f"obstacle_edges {c['obstacle_edges']} outer_edges {c['outer_edges']}\n"
            f"euler_characteristic {msh.euler_characteristic()}\n"
            f"min_angle_deg {msh.min_angle():.6g}\n"
            f"outer_radius {msh.outer_radius:.12g} "
            f"obstacle_radius {msh.obstacle_radius if msh.obstacle_radius is not None else 'polygon'}"
        )
        return 0
    raise AssertionError(f"unhandled command {ns.command}")


def _convergence_table(adaptive: RunHistory, uniform: RunHistory) -> str:
    lines = [
        f"{'Adaptive mesh':^34} | {'Uniform mesh':^34}",
        f"{'DoF':>8} {'e_h':>12} {'eps_h':>12} | {'DoF':>8} {'e_h':>12} {'eps_h':>12}",
    ]
    n = max(len(adaptive.records), len(uniform.records))
    for i in range(n):
        cells = []
        for hist in (adaptive, uniform):
            if i < len(hist.records):
                r = hist.records[i]
                e_h = f"{r.e_h:12.6f}" if r.e_h is not None else " " * 12
                cells.append(f"{r.dof:8d} {e_h} {r.eps_h:12.6f}")
            else:
                cells.append(" " * 34)
        lines.append(" | ".join(cells))
    return "\n".join(lines)


def main() -> None:
    sys.exit(cli())


if __name__ == "__main__":
    main()
