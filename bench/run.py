"""Benchmark for hetsvrg: one workload, measured for a fixed time.

Usage (from the repository root):

    python3 bench/run.py --workload linear_sweep --seed 1 --seconds 20 --trace 0

The workload's inputs are made from ``--seed``.  Passes over the workload run
back to back until ``--seconds`` is used up (at least three), and every pass's
outputs are checked.  ``--trace 0`` reports the end-to-end metrics named in
``BENCHMARK.json``; ``--trace 1`` alternates untraced and traced passes and
reports the per-layer metrics, including the tracing overhead, and writes the
spans of the last traced pass to ``bench/_out/``.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
The lines before it give the environment and a readable table.

Every time reported is CPU time of the process, not wall time, and the
end-to-end times are rescaled to a reference host speed; ``clock.py`` says
why and how.
"""

from __future__ import annotations

import os

# One process, one BLAS thread: the workloads are dominated by per-call work on
# small matrices, and extra BLAS threads only add scheduling noise.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"

SETUP_REPEATS = 5
MIN_PASSES = 3

# Set-up in a fresh interpreter, so that the import is measured every time
# (in CPU time, like every time reported; see clock.py).
SETUP_CHILD = """
import sys, time
start = time.process_time()
root, name, seed = sys.argv[1:4]
sys.path[:0] = [root + "/bench", root + "/src"]
import workloads
workloads.make(name, int(seed))
print(time.process_time() - start)
"""


def _git_revision() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = ROOT / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _blas_threads() -> int | None:
    """Threads the bundled OpenBLAS will use, read from the library itself."""
    import ctypes

    import numpy as np

    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            dll = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "git_revision": _git_revision(),
        "loadavg_at_start": os.getloadavg(),
    }


def measure_setup(name: str, seed: int) -> float:
    """Median time of SETUP_REPEATS fresh-interpreter set-ups (import, input
    generation and smoothness constants), at the reference host speed."""
    import clock

    times = []
    before = clock.calibration_s()
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(ROOT), name, str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        after = clock.calibration_s()
        times.append(clock.rescale(float(done.stdout.strip().splitlines()[-1]), before, after))
        before = after
    return statistics.median(times)


def run_passes(workload, seconds: float, work_dir: Path, tracer=None):
    """Back-to-back passes until the time is used, each between two
    calibrations; with a tracer, untraced and traced passes alternate.
    Returns [(result, per-layer or None)]."""
    import clock
    import tracing

    passes = []
    start = time.perf_counter()
    before = clock.calibration_s()
    min_passes = 2 * MIN_PASSES - 2 if tracer is not None else MIN_PASSES
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        out = work_dir / f"pass{len(passes)}"
        out.mkdir(parents=True)
        if traced:
            tracer.clear()
            with tracer:
                result = workload.run_pass(out)
            layers = tracing.summarize(tracer.spans)
        else:
            result, layers = workload.run_pass(out), None
        after = clock.calibration_s()
        result.scaled_s = clock.rescale(result.seconds, before, after)
        before = after
        shutil.rmtree(out)
        passes.append((result, layers))
        typical = statistics.median(r.wall_s for r, _ in passes)
        if len(passes) >= min_passes and time.perf_counter() - start + typical > seconds:
            return passes


def end_to_end(passes, setup_s: float) -> dict[str, float]:
    results = [r for r, _ in passes]
    first = results[0]
    ww, ws, sw, rounds = first.ledger
    steps, calls = max(first.steps, 1), max(first.calls, 1)  # a pass that failed outright has none
    return {
        "setup_s": setup_s,
        "run_s": statistics.median(r.scaled_s for r in results),
        "steps_per_s": statistics.median(r.steps / r.scaled_s for r in results),
        "calls_per_s": statistics.median(r.calls / r.scaled_s for r in results),
        "scalars_per_step": (ww + ws + sw) / steps,
        "rounds_per_step": rounds / steps,
        "scalars_per_call": ww / calls,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(passes, setup_layers: dict) -> dict[str, float]:
    plain = [r.scaled_s for r, layers in passes if layers is None]
    traced = [(r, layers) for r, layers in passes if layers is not None]
    out = {key: statistics.median(layers[key] for _, layers in traced) for key in traced[0][1]}
    first = traced[0][0]
    for key, value in zip(("ww_scalars", "ws_scalars", "sw_scalars", "rounds"), first.ledger):
        out[f"comm.{key}"] = value
    out["optim.wasted_step_share"] = first.diverged_steps / max(first.steps, 1)
    for key in ("problem.lipschitz_info.self_s", "problem.generate_heterogeneous.self_s"):
        out[f"setup.{key}"] = setup_layers[key]
    overhead = statistics.median(r.scaled_s for r, _ in traced) - statistics.median(plain)
    out["trace.overhead_s"] = overhead
    out["trace.overhead_share"] = overhead / statistics.median(plain)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hetsvrg" / "__init__.py").is_file():
        print(f"error: no hetsvrg sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path[:0] = [str(BENCH), str(SRC)]
    env = environment()

    import tracing
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; expected one of {workloads.NAMES}", file=sys.stderr)
        return 2

    work_dir = BENCH / "_out" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        if args.trace:
            tracer = tracing.Tracer()
            with tracer:
                workload = workloads.make(args.workload, args.seed)
            setup_layers = tracing.summarize(tracer.spans)
            passes = run_passes(workload, args.seconds, work_dir, tracer)
            metrics = per_layer(passes, setup_layers)
            tracing.write_spans(tracer.spans, BENCH / "_out" / f"spans-{args.workload}-seed{args.seed}.csv")
            wanted = declared["per_layer"]
        else:
            setup_s = measure_setup(args.workload, args.seed)
            workload = workloads.make(args.workload, args.seed)
            passes = run_passes(workload, args.seconds, work_dir)
            metrics = end_to_end(passes, setup_s)
            tracer, wanted = None, declared["end_to_end"]
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    results = [r for r, _ in passes]
    for r in results:
        if r.digest != results[0].digest:
            r.failed = r.attempted
            r.problems.append("outputs differ from the first pass of the same inputs")
    problems = sorted({p for r in results for p in r.problems})
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)

    print(json.dumps({"environment": env}))
    for label, key in (("CPU", "seconds"), ("wall", "wall_s"), ("rescaled", "scaled_s")):
        values = [getattr(r, key) for r in results]
        print(f"pass {label} s: median {statistics.median(values):.4f}, "
              f"min {min(values):.4f}, max {max(values):.4f}, passes {len(values)}")
    if tracer is not None and tracer.absent:
        print(f"absent (reported as 0): {', '.join(tracer.absent)}")
    for problem in problems:
        print(f"check failed: {problem}")
    report = {}
    for metric in wanted:
        value = metrics.get(metric["name"])
        if value is None:
            print(f"error: metric {metric['name']} was not measured", file=sys.stderr)
            return 1
        report[metric["name"]] = {"value": float(value), "unit": metric["unit"]}
        print(f"  {metric['name']:<44} {float(value):>16.6g} {metric['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
