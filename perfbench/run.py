"""elastodtn benchmark: one workload, one seed, one measurement window.

    python3 perfbench/run.py --workload disk-adaptive --seed 1 --seconds 35 --trace 0

Run from the root of a checkout.  Every round of the workload runs in a
fresh Python process with BLAS/OpenMP threads pinned to one, so peak RSS
is per round, process-wide caches start empty and the process's CPU time
is the time the work takes without other tenants' load.  Rounds
repeat while the next one still fits in --seconds (at least one runs);
untraced runs also start setup-only processes, spread over the window
(half before the first round, one after each round, the rest after the
last), so that setup_s is a median over several set-ups.  The last line of standard output is one
JSON object with the result; see README.md for the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HARD_LIMIT_S = 170.0  # a run must end within 180 s
SETUP_PROBES = 12


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    # One thread: SuperLU, the dominant cost, is sequential anyway, and a
    # single-threaded process's CPU time is its wall time on a quiet machine.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args, out_dir: str, started: float, setup_only: bool) -> dict:
    remaining = HARD_LIMIT_S - (time.monotonic() - started)
    if remaining <= 0.0:
        raise BenchError("out of time before the round could start")
    cmd = [sys.executable, os.path.join(HERE, "round.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(args.trace), "--out", out_dir]
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                              env=child_env(), timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError("a round did not finish within the run's time limit") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"round process exited with code {proc.returncode}")
    return json.loads(lines[-1])


def same_history(path: str, previous: bytes | None, ref_path: str) -> tuple[bytes, list[str]]:
    """history.csv must be byte-identical across rounds and across runs of
    this checkout (the inputs of the finite element workloads are fixed)."""
    with open(path, "rb") as fh:
        data = fh.read()
    errors = []
    if previous is not None and data != previous:
        errors.append("history.csv differs between rounds of this run")
    if os.path.exists(ref_path):
        with open(ref_path, "rb") as fh:
            if fh.read() != data:
                errors.append(f"history.csv differs from the earlier run's {ref_path}")
    return data, errors


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    started = time.monotonic()

    if not os.path.isfile(os.path.join(ROOT, "src", "elastodtn", "__init__.py")):
        print(f"error: no elastodtn sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    work = os.path.join(ROOT, ".bench_build", "perfbench", args.workload)
    os.makedirs(work, exist_ok=True)
    ref_history = os.path.join(work, "history.ref.csv")
    setups, probe_wall = [], 0.0

    def probe(count):
        nonlocal probe_wall
        for _ in range(0 if args.trace else count):
            t0 = time.monotonic()
            setups.append(spawn(args, os.path.join(work, "probe"), started, True)["setup_s"])
            probe_wall = max(probe_wall, time.monotonic() - t0)

    try:
        probe(SETUP_PROBES // 2)
        rounds, errors, history = [], [], None
        while True:
            t0 = time.monotonic()
            out_dir = os.path.join(work, f"round-{len(rounds)}")
            shutil.rmtree(out_dir, ignore_errors=True)
            r = spawn(args, out_dir, started, False)
            if r["history"] is not None:
                history, errs = same_history(r["history"], history, ref_history)
                errors += errs
            shutil.rmtree(out_dir, ignore_errors=True)
            rounds.append(r)
            errors += r["errors"] + r["unexpected"]
            probe(1)
            left = max(0, SETUP_PROBES - len(setups)) * probe_wall
            if time.monotonic() - started + (time.monotonic() - t0) + left > args.seconds:
                break
        probe(SETUP_PROBES - len(setups))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    correct = not errors
    if correct and history is not None and not os.path.exists(ref_history):
        with open(ref_history, "wb") as fh:
            fh.write(history)
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)

    if args.trace:
        wanted = spec["per_layer"]
        values = {m["name"]: statistics.median(r["layers"][m["name"]] for r in rounds)
                  for m in wanted}
    else:
        wanted = spec["end_to_end"]
        values = {
            "setup_s": statistics.median(setups + [r["setup_s"] for r in rounds]),
            "run_s": statistics.median(r["run_s"] for r in rounds),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
        }
    result = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
