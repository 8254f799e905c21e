"""The benchmark's workloads: their inputs, one timed round each, and the
checks of every operation against ``reference`` or against properties
the method must have.

A round runs in a fresh process (see ``round.py``).  ``run`` does the
timed work and reads the peak RSS; ``check`` runs after it, so neither
the reference values nor the ``scipy.special`` import count in the
round's figures.  An operation is one solve of the adaptive or uniform
loop for the finite element workloads and one frequency for
``spectrum-sweep``.
"""

from __future__ import annotations

import importlib
import math
import os
import resource
import sys
import time
import types
from dataclasses import dataclass

import numpy as np

import reference as ref

MAX_DOF = 30_000  # vertex budget of the adaptive workloads
UNIFORM_LEVELS = 4
TOLERANCE = 1e-12  # below reach, so the budget or level count ends a run

# vertices of the U-shaped obstacle where the exterior domain has a
# 270-degree angle (the obstacle's convex corners), where the solution is
# singular and refinement should concentrate
U_CORNERS = np.array(
    [(-2.0, -0.7), (2.2, -0.7), (2.2, -0.1), (2.2, 0.1), (2.2, 0.7), (-2.0, 0.7)]
)
CORNER_RADIUS = 0.3

# spectrum-sweep: kappa2 * R on a geometric grid from 1 to 1000 (R = 1,
# mu = 1, so omega = kappa2); N covers every propagating mode plus 32
# evanescent ones, up to the 1024 order cap
SWEEP_GRID = [10.0 ** (3.0 * i / 39.0) for i in range(40)]
SWEEP_POINTS = 20_000
SWEEP_RTOL = 1e-10
# Grid indices that fail today: specfun._build_ladder ends the Neumann
# series for Y_0, Y_1 at order ceil(z) + 44, so alpha_2n (and with it
# Lambda_n and M_n) drifts from scipy by 3.4e-10 at kappa2 R = 289 up to
# 2.5e-7 at 1000.  Index 31 (kappa2 R = 242) deviates by 4.9e-11 and passes.
# Only that deviation is excused there: a raise, a wrong truncation order,
# or an alpha_1n or u_inc deviation is unexpected at these indices too.
KNOWN_FAULT = frozenset(range(32, 40))


def sweep_order(omega: float) -> int:
    return min(1024, math.ceil(omega) + 32)


def load_program(root: str) -> types.SimpleNamespace:
    """Import elastodtn from the checkout's ``src``, never an installed copy."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "elastodtn", "__init__.py")):
        raise SystemExit(f"no elastodtn package under {src}")
    sys.path.insert(0, src)
    names = ("driver", "assembly", "dtn", "estimator", "mesh", "verify", "errors")
    return types.SimpleNamespace(
        **{n: importlib.import_module(f"elastodtn.{n}") for n in names}
    )


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Timed:
    """The timed part of a round: its CPU time, the peak RSS right after
    it, and what the checks need (a workload's own record)."""

    run_s: float
    peak_rss_mb: float
    result: object


@dataclass
class Outcome:
    run_s: float
    peak_rss_mb: float
    attempted: int
    failed: int
    unexpected: list  # failed operations no known fault explains
    errors: list  # property checks of the whole round that failed
    layers: dict  # per-layer values the checks produce (traced runs)
    history: str | None = None


def spectrum_arrays(spectrum) -> dict:
    """The per-mode values of a DtN spectrum as plain arrays."""
    ns = spectrum.mode_numbers()
    s = [spectrum.scalars[int(n)] for n in ns]
    return {
        "ns": ns,
        "N": spectrum.truncation_n,
        "alpha1": np.array([x.alpha1 for x in s]),
        "alpha2": np.array([x.alpha2 for x in s]),
        "lambda_n": np.array([x.lambda_n for x in s]),
        "M": spectrum.matrix_stack(),
    }


def dtn_deviation(got, omega, lam, mu, R) -> tuple[float, float, float]:
    """Worst relative deviation from the scipy reference, over all modes,
    of alpha_1n, of alpha_2n and of Lambda_n / M_n (``spectrum_arrays``)."""
    a1, a2, lam_n, M = ref.dtn_modes(got["ns"], omega, lam, mu, R)

    def rel(x, want):
        return float(np.max(np.abs(x - want) / np.abs(want)))

    mats = max(
        rel(got["lambda_n"], lam_n),
        float(np.max(np.abs(got["M"] - M).max(axis=(1, 2)) / np.abs(M).max(axis=(1, 2)))),
    )
    return rel(got["alpha1"], a1), rel(got["alpha2"], a2), mats


def _slope(dofs, errs) -> float:
    """Least-squares slope of log(err) against log(DoF), first point skipped."""
    return float(np.polyfit(np.log(dofs[1:]), np.log(errs[1:]), 1)[0])


# -- finite element workloads ----------------------------------------------


@dataclass(frozen=True)
class Solve:
    """What one loop iteration produced, kept for the checks after the run.

    Only arrays the program already built are referenced, not its Mesh."""

    values: np.ndarray
    vertices: np.ndarray
    triangles: np.ndarray
    tags: np.ndarray
    mask: np.ndarray
    eta: np.ndarray


class FeWorkload:
    """One adaptive or uniform run, as ``elastodtn solve`` performs it."""

    def __init__(self, example: int, uniform: bool):
        self.example = example
        self.uniform = uniform
        self.solves: list[Solve] = []
        self.spectrum = None  # the one the loop built

    def prepare(self, prog):
        """Keep each iteration's field and indicators: one Python call per
        iteration and references to arrays the program made anyway."""
        estimate = prog.estimator.global_estimate

        def keep(field, spectrum, u_inc_h1=None):
            report = estimate(field, spectrum, u_inc_h1=u_inc_h1)
            m = field.mesh
            self.solves.append(
                Solve(field.values, m.vertices, m.triangles, m.vertex_tags,
                      field.dirichlet_mask, report.eta)
            )
            if self.spectrum is None:
                self.spectrum = spectrum
            return report

        prog.estimator.global_estimate = keep

    def setup(self, prog, seed: int):
        # The two examples are fixed problems of the paper; the seed does
        # not change them, so every run must give the same history.csv.
        d = prog.driver
        if self.example == 1:
            return d.example1_config(tolerance=TOLERANCE), d.example1_mesh()
        return d.example2_config(tolerance=TOLERANCE), d.example2_mesh()

    def run(self, prog, state, out_dir: str) -> Timed:
        """The loop and its artifacts; the result is the run's history,
        or the error it raised."""
        cfg, mesh = state
        d = prog.driver
        t0 = time.process_time()
        try:
            if self.uniform:
                hist = d.uniform_solve(cfg, mesh, UNIFORM_LEVELS)
            else:
                hist = d.adaptive_solve(cfg, mesh, max_dof=MAX_DOF)
            d._write_run_outputs(hist, out_dir)
        except prog.errors.ElastoDtnError as exc:
            return Timed(time.process_time() - t0, peak_rss_mb(), exc)
        return Timed(time.process_time() - t0, peak_rss_mb(), hist)

    def check(self, prog, state, timed: Timed, out_dir: str) -> Outcome:
        cfg, mesh0 = state
        run_s, rss, hist = timed.run_s, timed.peak_rss_mb, timed.result
        if isinstance(hist, Exception):
            n = len(self.solves) + 1
            return Outcome(run_s, rss, n, n, [f"run raised {hist!r}"], [], {})
        records = hist.records
        solves = self.solves[: len(records)]
        spectrum = self.spectrum
        mat = (cfg.omega, cfg.lam, cfg.mu)
        errors, unexpected = [], []
        if len(solves) != len(records):
            errors.append(f"{len(records)} records but {len(solves)} estimates")

        # the DtN operator the loop used, mode by mode against scipy
        a1_dev, a2_dev, mat_dev = dtn_deviation(spectrum_arrays(spectrum), *mat, cfg.R)
        alpha_dev = max(a1_dev, a2_dev)
        if max(alpha_dev, mat_dev) > SWEEP_RTOL:
            errors.append(f"DtN modes deviate from scipy by {max(alpha_dev, mat_dev):.2e}")

        incident = ref.hankel0_incident if self.example == 1 else ref.plane_incident
        e_ref = []
        for it, (rec, s) in enumerate(zip(records, solves)):
            why = self._check_solve(prog, cfg, spectrum, rec, s, incident)
            if self.example == 1:
                e = ref.disk_h1_error(s.vertices, s.triangles, s.values, *mat)
                e_ref.append(e)
                if abs(rec.e_h - e) > 1e-10 * e:
                    why.append(f"e_h {rec.e_h!r} but scipy gives {e!r}")
                if not 2.0 <= rec.eps_h / e <= 30.0:
                    why.append(f"eps_h/e_h = {rec.eps_h / e:.3g} outside [2, 30]")
            if why:
                unexpected.append(f"solve {it}: " + "; ".join(why))

        dofs = np.array([r.dof for r in records], dtype=float)
        if self.example == 1:
            slope = _slope(dofs, np.array(e_ref))
            if not -0.65 <= slope <= -0.35:
                errors.append(f"e_h slope {slope:.3f} outside [-0.65, -0.35]")
        else:
            errors += self._check_ushape(cfg, mesh0, records, solves, dofs)
        if self.uniform:
            tris = [len(s.triangles) for s in solves]
            if len(records) != UNIFORM_LEVELS + 1 or any(
                b != 4 * a for a, b in zip(tris, tris[1:])
            ):
                errors.append(f"uniform levels have {tris} triangles")
        elif not (dofs[-1] >= MAX_DOF > dofs[-2]):
            errors.append(f"loop stopped at {dofs[-1]:.0f} DoF, not on the budget")

        history = os.path.join(out_dir, "history.csv")
        with open(history) as fh:
            if sum(1 for _ in fh) != len(records) + 1:
                errors.append("history.csv does not have one line per iteration")
        layers = {
            "specfun.alpha_relerr_max": alpha_dev,
            "driver.iterations": len(records),
            "driver.artifact_bytes": sum(
                os.path.getsize(os.path.join(out_dir, f)) for f in os.listdir(out_dir)
            ),
        }
        n = len(records)
        return Outcome(run_s, rss, n, len(unexpected), unexpected, errors, layers, history)

    def _check_solve(self, prog, cfg, spectrum, rec, s, incident) -> list[str]:
        why = []
        if rec.dof != len(s.vertices) or rec.n_triangles != len(s.triangles):
            why.append("record sizes do not match the mesh")
        eps_h = math.sqrt(float(np.sum(s.eta**2)))
        if abs(eps_h - rec.eps_h) > 1e-12 * eps_h:
            why.append("eps_h is not the norm of the indicators")

        obstacle = s.tags == prog.mesh.OBSTACLE
        want = -incident(s.vertices[obstacle], cfg.omega, cfg.lam, cfg.mu)
        dev = np.max(np.abs(s.values[obstacle] - want)) / np.max(np.abs(want))
        if dev > 1e-10:
            why.append(f"obstacle DOFs differ from -u_inc by {dev:.2e}")

        # Galerkin orthogonality: the residual of the discrete form vanishes
        # on every free DOF; obstacle DOFs carry the reaction forces
        circle = cfg.R_hat if self.example == 1 else None
        m = prog.mesh.Mesh(s.vertices, s.triangles, s.tags, 0,
                           outer_radius=cfg.R, obstacle_radius=circle)
        field = prog.assembly.SolutionField(m, cfg, s.values, s.mask)
        r = np.abs(prog.assembly.residual_vector(field, spectrum)).reshape(-1, 2)
        free, react = np.max(r[~obstacle]), np.max(r[obstacle])
        if free > 1e-8 * react:
            why.append(f"Galerkin residual {free:.2e} on free DOFs (reactions {react:.2e})")
        return why

    def _check_ushape(self, cfg, mesh0, records, solves, dofs) -> list[str]:
        errors = []
        u_inc = ref.p1_h1_norm(
            mesh0.vertices, mesh0.triangles,
            ref.plane_incident(mesh0.vertices, cfg.omega, cfg.lam, cfg.mu),
        )
        q = cfg.R_hat / cfg.R
        eps_N = ref.truncation_bound(cfg.N, q, u_inc)
        if eps_N > 1e-8 or ref.truncation_bound(cfg.N - 1, q, u_inc) <= 1e-8:
            errors.append(f"N = {cfg.N} is not the smallest order with eps_N <= 1e-8")
        if any(abs(r.eps_N - eps_N) > 1e-9 * eps_N for r in records):
            errors.append(f"eps_N differs from the recomputed {eps_N:.6e}")
        slope = _slope(dofs, np.array([r.eps_h for r in records]))
        if not -0.65 <= slope <= -0.35:
            errors.append(f"eps_h slope {slope:.3f} outside [-0.65, -0.35]")
        hits = 0
        for s in solves[-5:]:
            c = s.vertices[s.triangles[int(np.argmax(s.eta))]].mean(axis=0)
            hits += float(np.min(np.linalg.norm(U_CORNERS - c, axis=1))) <= CORNER_RADIUS
        if hits < 3:
            errors.append(f"largest indicator near a corner in {hits} of the last 5 solves")
        return errors


# -- spectrum sweep --------------------------------------------------------


class SpectrumSweep:
    """build_spectrum and the hankel0 incident field at unseen frequencies."""

    def prepare(self, prog):
        pass

    def setup(self, prog, seed: int):
        rng = np.random.default_rng(seed)
        r_hat, R = 0.5, 1.0
        r = np.sqrt(rng.uniform(r_hat**2, R**2, SWEEP_POINTS))
        th = rng.uniform(0.0, 2.0 * math.pi, SWEEP_POINTS)
        points = np.column_stack([r * np.cos(th), r * np.sin(th)])
        configs = [
            prog.driver.example1_config(omega=w, N=sweep_order(w)) for w in SWEEP_GRID
        ]
        return configs, points

    def run(self, prog, state, out_dir: str) -> Timed:
        """Each frequency's values go to ``out_dir`` outside the timed
        part, so the process holds at most one frequency's results; the
        result is the errors raised, by grid index."""
        configs, points = state
        run_s, raised = 0.0, {}
        for i, cfg in enumerate(configs):
            t0 = time.process_time()
            try:
                spectrum = prog.dtn.build_spectrum(cfg)
                u = prog.assembly.incident_field(cfg, points)
            except prog.errors.ElastoDtnError as exc:
                run_s += time.process_time() - t0
                raised[i] = repr(exc)
                continue
            run_s += time.process_time() - t0
            np.savez(os.path.join(out_dir, f"freq-{i}.npz"), u=u, **spectrum_arrays(spectrum))
        return Timed(run_s, peak_rss_mb(), raised)

    def check(self, prog, state, timed: Timed, out_dir: str) -> Outcome:
        configs, points = state
        failed, unexpected, alpha_max = 0, [], 0.0
        for i, cfg in enumerate(configs):
            if i in timed.result:
                failed += 1
                unexpected.append(f"kappa2 R = {cfg.omega:.4g}: raised {timed.result[i]}")
                continue
            with np.load(os.path.join(out_dir, f"freq-{i}.npz")) as fh:
                got = dict(fh)
            a1, a2, mats = dtn_deviation(got, cfg.omega, cfg.lam, cfg.mu, cfg.R)
            alpha_max = max(alpha_max, a1, a2)
            want = ref.hankel0_incident(points, cfg.omega, cfg.lam, cfg.mu)
            inc = float(np.max(np.abs(got["u"] - want)) / np.max(np.abs(want)))
            # the Y_0/Y_1 fault of KNOWN_FAULT shows in alpha_2n and in
            # Lambda_n and M_n built from it, and nowhere else
            excusable = max(a2, mats) > SWEEP_RTOL
            other = max(a1, inc) > SWEEP_RTOL or int(got["N"]) != cfg.N
            if excusable or other:
                failed += 1
                if other or i not in KNOWN_FAULT:
                    unexpected.append(
                        f"kappa2 R = {cfg.omega:.4g}: alpha_1 {a1:.1e}, alpha_2 {a2:.1e}, "
                        f"Lambda/M {mats:.1e}, u_inc {inc:.1e}, N {int(got['N'])}"
                    )
        layers = {
            "specfun.alpha_relerr_max": alpha_max,
            "driver.iterations": 0,
            "driver.artifact_bytes": 0,
        }
        return Outcome(timed.run_s, timed.peak_rss_mb, len(configs), failed, unexpected, [],
                       layers)


WORKLOADS = {
    "disk-adaptive": lambda: FeWorkload(example=1, uniform=False),
    "ushape-adaptive": lambda: FeWorkload(example=2, uniform=False),
    "disk-uniform": lambda: FeWorkload(example=1, uniform=True),
    "spectrum-sweep": SpectrumSweep,
}
