"""Compare the run artifacts of two source trees, byte for byte.

Runs each solve of STANDARD_RUNS with OLD_ROOT/src and then NEW_ROOT/src
on PYTHONPATH, in a fresh output directory per tree, and reports for each
run whether stdout and every output file are byte-identical.  Where
history.csv differs it also prints the largest relative change of each
of its columns.  STANDARD_RUNS is the three shipped solves:

    solve --example 1 --uniform-rounds 4
    solve --example 1 --max-dof 30000
    solve --example 2 --max-dof 30000

The last digits of a solve depend on the BLAS thread count, so every run
has the BLAS and OpenMP thread variables set to 1; they are printed
first.  The exit status is 0 only when every run succeeds in both trees
and everything matches.

Usage:
    python tools/artifact_diff.py OLD_ROOT NEW_ROOT

Runs from any working directory.
"""

import argparse
import csv
import math
import os
import pathlib
import shlex
import subprocess
import sys
import tempfile

STANDARD_RUNS = [
    "solve --example 1 --uniform-rounds 4",
    "solve --example 1 --max-dof 30000",
    "solve --example 2 --max-dof 30000",
]
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def run_tree(root: pathlib.Path, args: str, out: pathlib.Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    env.update({var: "1" for var in THREAD_VARS})
    return subprocess.run([sys.executable, "-m", "elastodtn", *shlex.split(args), "--out", str(out)],
                          cwd=out.parent, env=env, capture_output=True, text=True)


def column_changes(old: pathlib.Path, new: pathlib.Path) -> str:
    """Largest relative change of each numeric history.csv column."""
    tables = []
    for path in (old, new):
        with open(path, newline="") as fh:
            tables.append(list(csv.DictReader(fh)))
    if len(tables[0]) != len(tables[1]) or not tables[0]:
        return f"{len(tables[0])} rows against {len(tables[1])}"
    changes = []
    for name in tables[0][0]:
        worst = 0.0
        for a, b in zip(*tables):
            if a[name] == b[name]:
                continue
            if not (a[name] and b[name]):  # a value on one side only
                worst = math.inf
                continue
            x, y = float(a[name]), float(b[name])
            worst = max(worst, abs(y - x) / abs(x) if x else math.inf)
        changes.append(f"{name} {worst:.2g}")
    return ", ".join(changes)


def compare(old_root: pathlib.Path, new_root: pathlib.Path, args: str, work: pathlib.Path) -> bool:
    """Run args in both trees and print one line per artifact; True if all match."""
    outs = [work / side / "out" for side in ("old", "new")]
    runs = []
    for root, out in zip((old_root, new_root), outs):
        out.parent.mkdir(parents=True)
        runs.append(run_tree(root, args, out))
    print(args)
    for side, run in zip(("old", "new"), runs):
        if run.returncode != 0:
            print(f"  {side} tree exited {run.returncode}: {run.stderr.strip()}")
    if any(run.returncode for run in runs):
        return False
    same = runs[0].stdout == runs[1].stdout
    print(f"  {'stdout':<20} {'identical' if same else 'DIFFERENT'}")
    names = sorted({p.name for out in outs for p in out.iterdir()})
    for name in names:
        old, new = (out / name for out in outs)
        if not (old.exists() and new.exists()):
            print(f"  {name:<20} only in the {'old' if old.exists() else 'new'} tree")
            same = False
            continue
        equal = old.read_bytes() == new.read_bytes()
        same &= equal
        detail = "" if equal or name != "history.csv" else f"  ({column_changes(old, new)})"
        print(f"  {name:<20} {'identical' if equal else 'DIFFERENT'}{detail}")
    return same


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("old_root", type=pathlib.Path)
    p.add_argument("new_root", type=pathlib.Path)
    ns = p.parse_args(argv)
    print(" ".join(f"{var}=1" for var in THREAD_VARS))
    ok = True
    with tempfile.TemporaryDirectory(prefix="artifact_diff-") as tmp:
        for i, args in enumerate(STANDARD_RUNS):
            ok &= compare(ns.old_root.resolve(), ns.new_root.resolve(), args,
                          pathlib.Path(tmp) / f"run{i}")
    print("all identical" if ok else "artifacts differ")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
