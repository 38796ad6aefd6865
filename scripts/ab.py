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
reports two of the benchmark's metrics as the benchmark computes them:
``run_s``, the median of the passes' CPU times, each rescaled to the
reference host speed, and ``peak_rss_mb``, the process's ``ru_maxrss`` in
MB once its passes are done; and its output digests.

For each metric it prints each side's median and quartiles, the median of
the paired ratios head / base with a 95% interval (Hodges-Lehmann over the
pairs' log ratios), the pairs the head won (read lower), and whether the
gain rule holds (the head lower in at least nine tenths of the pairs, and
the medians further apart than the base's interquartile range); then
whether both sides wrote the same digests in every pair.  ``--json`` also
writes every pair's numbers and, per metric, the interval and the rule's
verdict.  The exit status is 1 if a process failed or a pass failed its
workload's checks, else 0; differing digests are reported, not failed,
since a change may move bits on purpose.

The interval treats the pairs as independent.  A shared host's speed
drifts over a set, which the interval does not model: on a shared 2-core
VM an A/A set (one side against itself, 16 pairs of ``linear_sweep``) read
+6.3% with an interval that excluded 1.  Run an A/A set on the same host
before trusting a borderline interval.
"""

from __future__ import annotations

import argparse
import io
import itertools
import json
import math
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# each metric's unit and the decimals it is printed with
METRICS = {"run_s": ("s", 4), "peak_rss_mb": ("MB", 2)}

CHILD = r"""
import json, resource, statistics, sys, tempfile
from pathlib import Path
root, name, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
sys.path[:0] = [root + "/bench", root + "/src"]
import run, workloads
with tempfile.TemporaryDirectory() as tmp:
    results = [result for result, _ in run.run_passes(workloads.make(name, seed), 0, Path(tmp))]
print(json.dumps({"run_s": statistics.median(r.scaled_s for r in results),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
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
        return {**dict.fromkeys(METRICS, float("nan")), "digests": [], "attempted": 0, "failed": 1, "crashed": True}
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3) of ``values``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def ratio_interval(ratios: list[float]) -> tuple[float, float, float]:
    """(low, high, confidence): the 95% Hodges-Lehmann interval for the
    centre of the pairs' log ratios, mapped back to ratios.  Of the
    n(n + 1) / 2 Walsh averages (x_i + x_j) / 2, i <= j, sorted, it keeps
    the c-th from each end, where c - 1 is the largest signed-rank count
    whose lower tail, under the exact null distribution, is at most 0.025.
    The confidence is the one that c attains; with too few pairs to reach
    95%, c is 1 and the interval spans every Walsh average."""
    logs = [math.log(r) for r in ratios]
    n = len(logs)
    walsh = sorted((logs[i] + logs[j]) / 2 for i in range(n) for j in range(i, n))
    ways = [1] + [0] * len(walsh)  # ways[t]: subsets of the ranks 1..n summing to t
    for rank in range(1, n + 1):
        for t in range(len(walsh), rank - 1, -1):
            ways[t] += ways[t - rank]
    tail = [count / 2**n for count in itertools.accumulate(ways)]  # P(count <= t)
    c = 1
    while tail[c] <= 0.025:
        c += 1
    return math.exp(walsh[c - 1]), math.exp(walsh[-c]), 1 - 2 * tail[c - 1]


def gain_rule(base: list[float], head: list[float]) -> dict:
    """Whether the head's values beat the base's: lower in at least nine
    tenths of the pairs (ties count for neither), and a median gap larger
    than the base's interquartile range."""
    won = sum(h < b for b, h in zip(base, head))
    needed = math.ceil(0.9 * len(base))
    q1, base_median, q3 = quartiles(base)
    gap = base_median - statistics.median(head)
    return {"met": won >= needed and gap > q3 - q1, "won": won, "needed": needed,
            "gap": gap, "base_iqr": q3 - q1}


def summary(pairs: list[dict], metric: str) -> dict:
    """Each side's quartiles of ``metric``, the median and interval of the
    paired ratios head / base, and the gain rule's verdict."""
    base, head = ([p[side][metric] for p in pairs] for side in ("base", "head"))
    ratios = [h / b for b, h in zip(base, head)]
    low, high, confidence = ratio_interval(ratios)
    return {**{side: dict(zip(("q1", "median", "q3"), quartiles(values))) for side, values in (("base", base), ("head", head))},
            "median_ratio": statistics.median(ratios),
            "ratio_interval": {"low": low, "high": high, "confidence": confidence},
            "gain_rule": gain_rule(base, head)}


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
                  f"base {runs['base']['run_s']:.4f} s {runs['base']['peak_rss_mb']:.2f} MB, "
                  f"head {runs['head']['run_s']:.4f} s {runs['head']['peak_rss_mb']:.2f} MB", flush=True)

    print(f"workload {args.workload}, {args.pairs} pairs (run_s at the reference speed)")
    metrics = {metric: summary(pairs, metric) for metric in METRICS}
    for metric, stats in metrics.items():
        unit, digits = METRICS[metric]
        print(f"  {metric}:")
        for side, label in (("base", args.base), ("head", args.head)):
            q = stats[side]
            print(f"    {side} ({label}): median {q['median']:.{digits}f} {unit}, quartiles {q['q1']:.{digits}f} - "
                  f"{q['q3']:.{digits}f} {unit} (IQR {q['q3'] - q['q1']:.{digits}f})")
        ratio, interval, rule = stats["median_ratio"], stats["ratio_interval"], stats["gain_rule"]
        print(f"    median ratio head/base: {ratio:.4f} ({ratio - 1:+.1%})")
        print(f"    interval of the ratio: {interval['low']:.4f} - {interval['high']:.4f} at "
              f"{interval['confidence']:.1%} confidence (Hodges-Lehmann)")
        print(f"    pairs won by head: {rule['won']} of {args.pairs}")
        print(f"    gain rule: {'met' if rule['met'] else 'not met'} (needs {rule['needed']} pairs won; median gap "
              f"{rule['gap']:.{digits}f} {unit} against base IQR {rule['base_iqr']:.{digits}f} {unit})")
    agree = sum(len(p["base"]["digests"]) == 1 and p["base"]["digests"] == p["head"]["digests"] for p in pairs)
    print(f"  digests agree: {'yes' if agree == args.pairs else 'no'} ({agree} of {args.pairs} pairs)")
    failed = sum(p[side]["failed"] for p in pairs for side in ("base", "head"))
    if failed:
        print(f"  failed operations: {failed}")
    if args.json is not None:
        args.json.write_text(json.dumps({"workload": args.workload, "base": args.base, "head": args.head,
                                         "metrics": metrics, "pairs": pairs}, indent=1) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
