"""Spans and counts recorded around calls into the program's layers.

The program is not instrumented: ``install`` rebinds public entry points
in the module namespaces the driver looks them up from, so each call
opens a span (name, start, end, parent) kept in memory.  A layer's self
time is its spans' durations minus the time covered by their child
spans.  Work the benchmark itself does inside a traced call (counting,
recomputing a residual) runs in a ``bench`` span, so no layer is charged
for it.  ``stop`` ends the recording before the benchmark's checks, which
call into the program as well.
"""

from __future__ import annotations

import functools
import json
import time
import types

import numpy as np

# per-layer metric -> span whose self time it reports
SELF_TIMES = {
    "assembly.factor_s": "assembly.factor",
    "assembly.solve_s": "assembly.solve",
    "assembly.assemble_s": "assembly.assemble",
    "assembly.incident_h1_s": "assembly.incident_h1",
    "mesh.refine_s": "mesh.refine",
    "mesh.build_s": "mesh.build",
    "mesh.mark_s": "mesh.mark",
    "mesh.load_s": "mesh.load",
    "dtn.select_truncation_s": "dtn.select_truncation",
    "dtn.build_spectrum_s": "dtn.build_spectrum",
    "estimator.estimate_s": "estimator.estimate",
    "verify.errors_vs_exact_s": "verify.errors_vs_exact",
    "specfun.hankel01_s": "specfun.hankel01",
    "driver.artifacts_s": "driver.artifacts",
    "driver.loop_self_s": "driver.loop",
}

COUNTS = (
    "assembly.lu_nnz_max",
    "assembly.nnz_max",
    "assembly.dtn_block_entries",
    "assembly.rel_residual_max",
    "assembly.free_dofs",
    "mesh.triangles_out",
    "dtn.build_spectrum_calls",
    "dtn.modes",
    "estimator.calls",
    "specfun.points",
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[int] = []
        self.counts = {name: 0 for name in COUNTS}
        self.active = True

    def stop(self):
        """Record nothing more; wrapped entry points call straight through."""
        self.active = False

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.process_time(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int):
        self._stack.pop()
        self.spans[idx][2] = time.process_time()

    def wrap(self, name, fn, after=None):
        """fn timed as a span; after(result, *args) runs in a bench span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                idx = self._open("bench")
                try:
                    after(out, *args)
                finally:
                    self._close(idx)
            return out

        return traced

    def add(self, name, value):
        self.counts[name] += value

    def top(self, name, value):
        self.counts[name] = max(self.counts[name], value)

    def self_times(self) -> dict[str, float]:
        covered = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        out: dict[str, float] = {}
        for (name, t0, t1, _), child in zip(self.spans, covered):
            out[name] = out.get(name, 0.0) + (t1 - t0 - child)
        return out

    def metrics(self) -> dict[str, float]:
        own = self.self_times()
        out = {metric: own.get(span, 0.0) for metric, span in SELF_TIMES.items()}
        out.update(self.counts)
        return out

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)

    # -- the program's layer boundaries ---------------------------------

    def install(self, prog):
        """Rebind the layer entry points of the imported program modules
        (a namespace with driver, assembly, dtn, estimator, mesh, verify)."""
        driver, assembly, dtn = prog.driver, prog.assembly, prog.dtn
        wrap = self.wrap

        def spectrum_done(spectrum, *args):
            self.add("dtn.build_spectrum_calls", 1)
            self.add("dtn.modes", 2 * spectrum.truncation_n + 1)

        def refined(mesh, *args):
            self.add("mesh.triangles_out", len(mesh.triangles))

        def assembled(system, *args):
            self.top("assembly.nnz_max", system.matrix.nnz)
            k = 2 * int(np.count_nonzero(system.mesh.vertex_tags == prog.mesh.OUTER))
            self.add("assembly.dtn_block_entries", k * k)

        def solved(field, system):
            x = field.values.ravel()[system.free_dofs]
            r = np.linalg.norm(system.matrix @ x - system.rhs)
            b = np.linalg.norm(system.rhs)
            self.top("assembly.rel_residual_max", float(r / b) if b > 0.0 else 0.0)
            self.add("assembly.free_dofs", len(system.free_dofs))

        def factored(lu, *args):
            # SuperLU's count of stored factor entries; it is within 0.3 % of
            # L.nnz + U.nnz, which would copy the factors out on every solve
            self.top("assembly.lu_nnz_max", lu.nnz)

        def hankel_points(out, z):
            self.add("specfun.points", int(np.size(z)))

        build = wrap("dtn.build_spectrum", dtn.build_spectrum, spectrum_done)
        driver.build_spectrum = dtn.build_spectrum = build
        driver.select_truncation = wrap("dtn.select_truncation", driver.select_truncation)
        driver.load_mesh = wrap("mesh.load", driver.load_mesh)
        driver.generate_annulus = wrap("mesh.load", driver.generate_annulus)
        driver.mark = wrap("mesh.mark", driver.mark)
        driver.refine = wrap("mesh.refine", driver.refine, refined)
        driver.refine_all = wrap("mesh.refine", driver.refine_all, refined)
        prog.mesh.Mesh.__post_init__ = wrap("mesh.build", prog.mesh.Mesh.__post_init__)

        assembly.assemble = wrap("assembly.assemble", assembly.assemble, assembled)
        assembly.solve = wrap("assembly.solve", assembly.solve, solved)
        assembly.incident_h1 = wrap("assembly.incident_h1", assembly.incident_h1)
        spla = types.ModuleType("spla_traced")
        spla.__dict__.update(vars(assembly.spla))
        spla.splu = wrap("assembly.factor", assembly.spla.splu, factored)
        assembly.spla = spla
        assembly.hankel01 = wrap("specfun.hankel01", assembly.hankel01, hankel_points)
        prog.verify.hankel01 = wrap("specfun.hankel01", prog.verify.hankel01, hankel_points)

        prog.estimator.global_estimate = wrap(
            "estimator.estimate",
            prog.estimator.global_estimate,
            lambda report, *args: self.add("estimator.calls", 1),
        )
        prog.verify.errors_vs_exact = wrap("verify.errors_vs_exact", prog.verify.errors_vs_exact)
        driver.adaptive_solve = wrap("driver.loop", driver.adaptive_solve)
        driver.uniform_solve = wrap("driver.loop", driver.uniform_solve)
        driver._write_run_outputs = wrap("driver.artifacts", driver._write_run_outputs)
