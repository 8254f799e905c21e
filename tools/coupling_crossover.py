"""Factor cost of the two forms of the DtN coupling on a refinement ladder.

assemble() couples the K outer DOFs either as a dense K x K block or
through r = 2(2N+1) bordered modal unknowns, choosing the bordered form
when K >= c r (assembly._BORDER_FROM).  This script assembles each level
in both forms and prints, per level, the free DoF n, K, r, K/r and, for
each form, the stored LU entries and the minimum over 3 factorizations of
the process time of the factor, so that c can be re-checked.

Usage:
    python tools/coupling_crossover.py --example 1 --segments 64 --layers 4 --levels 0 1 2 3
    python tools/coupling_crossover.py --example 2 --levels 0 1

Example 1 starts from example1_mesh(segments, layers); example 2 from the
shipped U-shape mesh.  Each level is that mesh refined uniformly that
many times.  Runs from any working directory; BLAS threads are pinned to
one, as in the benchmark.
"""

import argparse
import math
import os
import pathlib
import sys
import time
import types

for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))
from elastodtn import assembly, driver  # noqa: E402
from elastodtn.dtn import build_spectrum  # noqa: E402
from elastodtn.mesh import refine_all  # noqa: E402

FORMS = {"dense": math.inf, "bordered": 0.0}  # _BORDER_FROM forcing each form


def factor_stats(system, repeats=3) -> tuple[int, float]:
    """(stored LU entries, min process time of the factor) over repeats
    solves of the system, timing only the splu call that solve makes."""
    splu = assembly.spla.splu
    seen = []

    def timed(*args, **kwargs):
        t0 = time.process_time()
        lu = splu(*args, **kwargs)
        seen.append((lu.nnz, time.process_time() - t0))
        return lu

    traced = types.ModuleType("spla_timed")
    traced.__dict__.update(vars(assembly.spla))
    traced.splu = timed
    plain, assembly.spla = assembly.spla, traced
    try:
        for _ in range(repeats):
            assembly.solve(system)
    finally:
        assembly.spla = plain
    return seen[0][0], min(t for _, t in seen)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--example", type=int, choices=(1, 2), default=1)
    p.add_argument("--segments", type=int, default=64, help="example 1: angular segments")
    p.add_argument("--layers", type=int, default=4, help="example 1: radial layers")
    p.add_argument("--omega", type=float, default=math.pi)
    p.add_argument("--levels", type=int, nargs="+", default=[0, 1, 2])
    ns = p.parse_args(argv)

    if ns.example == 1:
        cfg = driver.example1_config(omega=ns.omega)
        mesh = driver.example1_mesh(ns.segments, ns.layers)
    else:
        cfg = driver.example2_config(omega=ns.omega)
        mesh = driver.example2_mesh()
    spectrum = build_spectrum(cfg)
    r = 2 * (2 * cfg.N + 1)
    print(f"{'level':>5} {'n':>8} {'K':>6} {'r':>5} {'K/r':>6} "
          f"{'LU dense':>10} {'t dense':>8} {'LU bord':>10} {'t bord':>8} {'ratio':>6}")
    for level in range(max(ns.levels) + 1):
        if level in ns.levels:
            stats = {}
            default = assembly._BORDER_FROM
            for form, c in FORMS.items():
                assembly._BORDER_FROM = c
                try:
                    system = assembly.assemble(mesh, cfg, spectrum)
                finally:
                    assembly._BORDER_FROM = default
                n = len(system.rhs)
                stats[form] = factor_stats(system)
                del system
            K = 2 * len(mesh.outer_vertex_order()[0])
            (ld, td), (lb, tb) = stats["dense"], stats["bordered"]
            print(f"{level:>5} {n:>8} {K:>6} {r:>5} {K / r:>6.2f} "
                  f"{ld:>10} {td:>8.3f} {lb:>10} {tb:>8.3f} {tb / td:>6.2f}", flush=True)
        mesh = refine_all(mesh)


if __name__ == "__main__":
    main()
