"""Paired A/B timing of one benchmark workload in two checkouts.

Usage (from the repository root):

    python3 scripts/ab.py --base A --head B --workload W --pairs N
                          [--seed S] [--json OUT]

Each side is a git revision of this repository, exported with ``git
archive`` into a temporary directory, or a source directory holding
``src/hetsvrg`` and ``bench/workloads.py`` (``.`` is the working tree).
Pair i runs one fresh process per side, on the workload's inputs for seed
S + i, base first in even pairs and head first in odd ones, with one BLAS
thread and no bytecode written (``OPENBLAS_NUM_THREADS=1``,
``PYTHONDONTWRITEBYTECODE=1``).  A process builds the workload from its
side's ``bench/workloads.py`` and ``src`` and times it with that side's
``bench/run.py`` (``run_passes`` at its minimum of three passes), so it
reports ``run_s`` as the benchmark does: the median of the passes' CPU
times, each rescaled to the reference host speed, with their output
digests.

It prints each side's median and quartiles of ``run_s``, the median of the
paired ratios head / base, the pairs the head won (ran faster), and
whether both sides wrote the same digests in every pair.  ``--json`` also
writes every pair's numbers.  The exit status is 1 if a process failed or
a pass failed its workload's checks, else 0; differing digests are
reported, not failed, since a change may move bits on purpose.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CHILD = r"""
import json, statistics, sys, tempfile
from pathlib import Path
root, name, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
sys.path[:0] = [root + "/bench", root + "/src"]
import run, workloads
with tempfile.TemporaryDirectory() as tmp:
    results = [result for result, _ in run.run_passes(workloads.make(name, seed), 0, Path(tmp))]
print(json.dumps({"run_s": statistics.median(r.scaled_s for r in results),
                  "digests": sorted({r.digest for r in results}),
                  "attempted": sum(r.attempted for r in results), "failed": sum(r.failed for r in results)}))
"""


def export(side: str, into: Path) -> Path:
    """The directory of ``side``: itself if it is a source directory, else
    its revision exported with ``git archive`` under ``into``."""
    path = Path(side)
    if path.is_dir():
        if not (path / "src" / "hetsvrg").is_dir() or not (path / "bench" / "workloads.py").is_file():
            raise SystemExit(f"error: {side} holds no src/hetsvrg and bench/workloads.py")
        return path.resolve()
    rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", "--quiet", f"{side}^{{commit}}"],
                         capture_output=True, text=True)
    if rev.returncode != 0:
        raise SystemExit(f"error: {side} is neither a source directory nor a git revision")
    commit = rev.stdout.strip()
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", commit], capture_output=True, check=True)
    dest = into / commit
    with tarfile.open(fileobj=io.BytesIO(tar.stdout)) as archive:
        if hasattr(tarfile, "data_filter"):
            archive.extractall(dest, filter="data")
        else:
            archive.extractall(dest)
    return dest


def run_side(root: Path, workload: str, seed: int) -> dict:
    """One fresh process's passes over the workload in ``root``."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    done = subprocess.run([sys.executable, "-c", CHILD, str(root), workload, str(seed)],
                          capture_output=True, text=True, env=env, cwd=root)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        return {"run_s": float("nan"), "digests": [], "attempted": 0, "failed": 1, "crashed": True}
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3) of ``values``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--base", required=True, help="git revision or source directory")
    parser.add_argument("--head", required=True, help="git revision or source directory")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, default=1, help="the first pair's seed; pair i uses seed + i")
    parser.add_argument("--json", type=Path, help="write every pair's numbers here")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        roots = {"base": export(args.base, Path(tmp)), "head": export(args.head, Path(tmp))}
        pairs = []
        for i in range(args.pairs):
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            runs = {side: run_side(roots[side], args.workload, args.seed + i) for side in order}
            pairs.append({"seed": args.seed + i, "first": order[0], **runs})
            print(f"pair {i + 1}/{args.pairs} seed {args.seed + i} ({order[0]} first): "
                  f"base {runs['base']['run_s']:.4f} s, head {runs['head']['run_s']:.4f} s", flush=True)

    print(f"workload {args.workload}, {args.pairs} pairs, run_s at the reference speed")
    for side, label in (("base", args.base), ("head", args.head)):
        q1, med, q3 = quartiles([p[side]["run_s"] for p in pairs])
        print(f"  {side} ({label}): median {med:.4f} s, quartiles {q1:.4f} - {q3:.4f} s (IQR {q3 - q1:.4f})")
    ratios = [p["head"]["run_s"] / p["base"]["run_s"] for p in pairs]
    won = sum(p["head"]["run_s"] < p["base"]["run_s"] for p in pairs)
    agree = sum(len(p["base"]["digests"]) == 1 and p["base"]["digests"] == p["head"]["digests"] for p in pairs)
    print(f"  median ratio head/base: {statistics.median(ratios):.4f} ({statistics.median(ratios) - 1:+.1%})")
    print(f"  pairs won by head: {won} of {args.pairs}")
    print(f"  digests agree: {'yes' if agree == args.pairs else 'no'} ({agree} of {args.pairs} pairs)")
    failed = sum(p[side]["failed"] for p in pairs for side in ("base", "head"))
    if failed:
        print(f"  failed operations: {failed}")
    if args.json is not None:
        args.json.write_text(json.dumps({"workload": args.workload, "base": args.base, "head": args.head,
                                         "pairs": pairs}, indent=1) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
