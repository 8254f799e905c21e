"""One round of one workload, in the fresh process ``run.py`` starts.

Prints one JSON line: setup time (CPU time of this process from its start
until the inputs are ready), and unless --setup-only the round's run
time, peak RSS, operation counts, check results and, with --trace 1, the
per-layer metrics.  Run time, peak RSS and the traced spans are taken
before the checks start.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", required=True, help="directory for the run's artifacts")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    import workloads  # from this directory, sys.path[0] for a script
    from tracer import Tracer

    prog = workloads.load_program(os.path.dirname(HERE))
    workload = workloads.WORKLOADS[args.workload]()
    workload.prepare(prog)
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install(prog)
    state = workload.setup(prog, args.seed)
    result = {"setup_s": time.process_time()}
    if not args.setup_only:
        os.makedirs(args.out, exist_ok=True)
        timed = workload.run(prog, state, args.out)
        layers = {}
        if tracer is not None:
            # the checks build meshes and residuals through the program's
            # own functions; none of that belongs to a layer's figures
            tracer.stop()
            layers = tracer.metrics()
            layers["trace.run_s"] = timed.run_s
            tracer.dump(os.path.join(os.path.dirname(args.out), "spans.json"))
        outcome = workload.check(prog, state, timed, args.out)
        result.update(dataclasses.asdict(outcome))
        result["layers"].update(layers)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
