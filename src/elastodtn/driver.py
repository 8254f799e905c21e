"""Adaptive refinement loop, run configuration, CLI and run artifacts.

The loop follows the standard estimate/mark/refine cycle: fix the DtN
truncation order up front from the truncation-error budget, then solve,
estimate, stop once eps_h <= tolerance, otherwise refine every triangle
whose indicator exceeds theta times the maximum and repeat.  eps_N stays
constant across iterations because N and the frozen incident-field norm
are chosen once on the initial mesh.

`solve` writes the final mesh and one table each of the iteration
history (history.csv), the final field, indicators and |u| per triangle,
all numbers as %.17g text;
`spectrum-dump` prints the DtN spectrum, which no run writes.
"""

from __future__ import annotations

import argparse
import importlib.resources
import math
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import assembly, estimator, mesh as meshmod, verify
from .assembly import IncidentWave, ProblemConfig
from .dtn import DtnSpectrum, build_spectrum, select_truncation, spectrum_table
from .errors import ElastoDtnError, InvalidParameter, check_count
from .mesh import Mesh, format_rows, generate_annulus, load_mesh, mark, refine, refine_all, save_mesh


@dataclass(frozen=True)
class RunRecord:
    iteration: int
    dof: int
    n_triangles: int
    eps_h: float
    eps_N: float
    e_h: float | None


@dataclass
class RunHistory:
    records: list[RunRecord]
    spectrum: DtnSpectrum  # the one the loop solved with
    field: assembly.SolutionField  # the final field, on the final mesh
    u_inc_h1: float
    report: estimator.EstimateReport  # indicators of the final field
    stop_reason: str  # "tolerance", "max_dof", "max_iters" or "rounds"


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


def _refinement_loop(config, initial_mesh, stop, next_mesh) -> RunHistory:
    """Solve and estimate on the current mesh until stop(report, solves)
    names a stop reason, moving to next_mesh(mesh, report) in between."""
    meshmod.check_radii(initial_mesh, config.R_hat, config.R)
    spectrum = build_spectrum(config)
    u_inc_h1 = assembly.incident_h1(config, initial_mesh)
    current = initial_mesh
    records: list[RunRecord] = []
    while True:
        field = assembly.solve(assembly.assemble(current, config, spectrum))
        report = estimator.global_estimate(field, spectrum, u_inc_h1=u_inc_h1)
        e_h = verify.errors_vs_exact(field) if config.incident.kind == "hankel0" else None
        records.append(RunRecord(len(records), report.dof, len(current.triangles),
                                 report.eps_h, report.eps_N, e_h))
        reason = stop(report, len(records))
        if reason is not None:
            return RunHistory(records, spectrum, field, u_inc_h1, report, reason)
        current = next_mesh(current, report)
        # release the old field, and with it the old mesh's cached
        # geometry, before the next system is factored
        field = report = None


def adaptive_solve(
    config: ProblemConfig, initial_mesh: Mesh, max_dof: int | None = None
) -> RunHistory:
    """Solve/estimate/mark/refine until eps_h <= tolerance.

    The history's stop_reason says why the loop ended: "tolerance", or
    "max_dof" once an optional DoF budget is reached, or "max_iters"
    after config.max_iters solves.  Raises InvalidRadii if the mesh does
    not fit config.R and config.R_hat, and InvalidParameter unless
    max_dof is None or an integer >= 0.
    """
    if max_dof is not None:
        check_count("max_dof", max_dof, 0)

    def stop(report, solves):
        if report.eps_h <= config.tolerance:
            return "tolerance"
        if max_dof is not None and report.dof >= max_dof:
            return "max_dof"
        if solves >= config.max_iters:
            return "max_iters"
        return None

    return _refinement_loop(
        config, initial_mesh, stop,
        lambda mesh_, report: refine(mesh_, mark(report.eta, config.theta_mark)),
    )


def uniform_solve(config: ProblemConfig, initial_mesh: Mesh, rounds: int) -> RunHistory:
    """Same loop with full refinement (every edge split) for the given
    number of rounds, rounds + 1 solves; stop_reason is "rounds"."""
    check_count("rounds", rounds, 0)
    return _refinement_loop(
        config, initial_mesh,
        lambda report, solves: "rounds" if solves > rounds else None,
        lambda mesh_, report: refine_all(mesh_),
    )


# -- run artifacts ----------------------------------------------------------


def _write_run_outputs(history: RunHistory, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    save_mesh(history.field.mesh, os.path.join(out_dir, "mesh_final.txt"))
    x, y = history.field.mesh.vertices.T
    ux, uy = history.field.values.T
    recs = history.records
    # file, header, row format after the 0-based row index, columns
    tables = [
        ("history.csv", "iter,dof,eps_h,eps_N,e_h\n", ",%d,%.17g,%.17g,%s",
         ([r.dof for r in recs], [r.eps_h for r in recs], [r.eps_N for r in recs],
          ["" if r.e_h is None else f"{r.e_h:.17g}" for r in recs])),
        ("solution_final.csv", "vertex_index,x,y,re_ux,im_ux,re_uy,im_uy\n",
         ",%.17g" * 6, (x, y, ux.real, ux.imag, uy.real, uy.imag)),
        ("eta_final.csv", "triangle_index,eta\n", ",%.17g", (history.report.eta,)),
        ("magnitude_final.txt", "", " %.17g", (assembly.triangle_magnitudes(history.field),)),
    ]
    for name, header, row_fmt, columns in tables:
        with open(os.path.join(out_dir, name), "w") as fh:
            fh.write(header)
            fh.write(format_rows("%d" + row_fmt + "\n", np.arange(len(columns[0])), *columns))


# -- configuration plumbing -------------------------------------------------

# problem key (config-file key and CLI dest) -> (value type, ProblemConfig field)
_PROBLEM_KEYS = {
    "example": (int, None),
    "omega": (float, "omega"),
    "lambda": (float, "lam"),
    "mu": (float, "mu"),
    "R": (float, "R"),
    "R_hat": (float, "R_hat"),
    "N": (int, "N"),
    "theta": (float, "theta_mark"),
    "tol": (float, "tolerance"),
    "max_iters": (int, "max_iters"),
    "mesh": (str, None),
}


def load_config_file(path) -> dict:
    """key = value lines (# starts a comment) of the problem flags: the
    floats omega, lambda, mu, R, R_hat, theta, tol, the integers N,
    max_iters, example (1 or 2), and mesh, a path.  A line without '=',
    any other key (out, max_dof and rounds are flags only), a value of
    the wrong type or another example raises InvalidParameter naming
    path:line."""
    out = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            where = f"{path}:{lineno}"
            if "=" not in line:
                raise InvalidParameter(f"{where}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _PROBLEM_KEYS:
                raise InvalidParameter(f"{where}: unknown key {key!r}")
            kind = _PROBLEM_KEYS[key][0]
            try:
                out[key] = kind(value)
            except ValueError:
                raise InvalidParameter(f"{where}: {key} = {value!r} is not {kind.__name__}") from None
            if key == "example" and out[key] not in (1, 2):
                raise InvalidParameter(f"{where}: example must be 1 or 2, got {value}")
    return out


def _build_config(ns) -> tuple[ProblemConfig, Mesh]:
    settings = load_config_file(ns.config) if ns.config else {}
    for key in _PROBLEM_KEYS:
        if getattr(ns, key) is not None:
            settings[key] = getattr(ns, key)

    example = settings.get("example", 1)
    maker = example1_config if example == 1 else example2_config
    cfg = maker(**{
        field: settings[key] for key, (_, field) in _PROBLEM_KEYS.items()
        if field is not None and key in settings
    })
    if settings.get("mesh"):
        msh = load_mesh(settings["mesh"])
    elif example == 1:
        msh = example1_mesh()
    else:
        msh = example2_mesh()
    return cfg, msh


def _add_common_flags(p):
    p.add_argument("--config", help="key = value configuration file")
    extra = {
        "example": dict(choices=(1, 2)),
        "mesh": dict(help="mesh file overriding the built-in geometry"),
    }
    for key, (kind, _) in _PROBLEM_KEYS.items():
        p.add_argument("--" + key.replace("_", "-"), dest=key, type=kind, **extra.get(key, {}))


def cli(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="elastodtn",
        description="Adaptive FEM solver for elastic scattering with a DtN boundary",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run the adaptive loop")
    _add_common_flags(p_solve)
    p_solve.add_argument("--out", default="out", help="output directory")
    p_solve.add_argument(
        "--max-dof", dest="max_dof", type=int, default=50_000,
        help="stop once the mesh reaches this many nodes (desk-run budget)",
    )
    p_solve.add_argument("--uniform-rounds", dest="uniform_rounds", type=int,
                         help="uniform refinement instead of adaptive")

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
            history = adaptive_solve(cfg, msh, max_dof=ns.max_dof)
        _write_run_outputs(history, ns.out)
        last = history.records[-1]
        if history.stop_reason == "max_iters":
            print(f"warning: eps_h = {last.eps_h:.4g} > tolerance after "
                  f"{len(history.records)} iterations", file=sys.stderr)
        elif last.eps_N > cfg.tolerance:  # refinement cannot meet the tolerance
            print(f"warning: eps_N = {last.eps_N:.3g} > tolerance = {cfg.tolerance:.3g}; "
                  "the DtN truncation error depends on N and R_hat/R, not on the mesh",
                  file=sys.stderr)
        print(
            f"iterations={len(history.records)} dof={last.dof} "
            f"eps_h={last.eps_h:.6g} eps_N={last.eps_N:.3g}"
            + (f" e_h={last.e_h:.6g}" if last.e_h is not None else "")
        )
        return 0

    if ns.command == "convergence":
        cfg, msh = _build_config(ns)
        uniform = uniform_solve(cfg, msh, ns.rounds)
        adaptive = adaptive_solve(replace(cfg, tolerance=1e-12), msh, max_dof=ns.max_dof)
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
