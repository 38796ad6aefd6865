"""The benchmark's workloads: inputs made from a seed, one timed pass, and the
checks on that pass's outputs.

Each workload is chosen to make one layer dominant while another workload
leaves that layer idle:

* ``linear_sweep`` -- the default linear-preset sweep.  Tiny matrices, so
  per-call overhead, the per-step divergence guard and the trace rows dominate;
  6 of its 15 cells diverge, so the early-exit path runs too.
* ``logistic_sweep`` -- the same harness path on rows 10x wider with the
  logistic loss; no cell diverges, and svrg_importance recomputes the
  smoothness constants once per cell.
* ``scale_asd`` -- 64 workers, where ASD's per-worker weight estimation
  dominates the inner step; its svrg_uniform cells run neither estimation nor
  the tree protocol, so they are the control for an estimation change.
* ``protocol_wide`` -- the tree protocols alone at M=1000 (padded to 1024)
  and M=4096, with heterogeneous weights of which some are zero.

A pass returns a ``PassResult``.  An operation is one grid cell or one
protocol call; it fails when it raises unexpectedly or fails a check.  A
diverged cell is an expected outcome, not a failure.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
from scipy.special import chdtri

from hetsvrg import cli, comm, harness
from hetsvrg import problem as prob
from clock import CLOCK


@dataclass
class PassResult:
    seconds: float  # CPU time of the pass
    attempted: int
    failed: int
    steps: int  # sampling steps: optimizer inner steps, or protocol calls
    calls: int  # tree-protocol calls
    ledger: tuple[int, int, int, int]  # worker-worker, worker-server, server-worker scalars, rounds
    diverged_steps: int = 0
    wall_s: float = 0.0
    scaled_s: float = 0.0  # ``seconds`` at the reference host speed, see clock.py
    digest: str = ""  # identical on every pass of one run, by the determinism contract
    problems: list[str] = field(default_factory=list)


def _timed(fn):
    """Run ``fn``; return (its result, or None if it raised), CPU seconds, wall seconds."""
    wall, cpu = time.perf_counter(), CLOCK()
    try:
        value = fn()
    except Exception:
        # an unexpected exception fails every operation of the pass
        traceback.print_exc()
        value = None
    return value, CLOCK() - cpu, time.perf_counter() - wall


def pc_schedule(m: int, r: int) -> tuple[int, int]:
    """Closed-form worker-worker scalars and rounds of one ``pc_sample`` call."""
    levels = (-(-m // r) - 1).bit_length()
    full = m // r  # groups whose leader is a real worker
    merges = sum(len(range((1 << (h - 1)) - 1, full, 1 << h)) for h in range(1, levels + 1))
    return 2 * (m - full) + (r + 1) * merges, 1 + levels


def optimal_schedule(m: int, r: int) -> tuple[int, int]:
    """Closed-form worker-worker scalars and rounds of one ``optimal_comm_sample`` call."""
    levels = (-(-m // r) - 1).bit_length()
    groups, full = 1 << levels, m // r
    chain_sends = sum(
        min(r, max(0, m - sender * r))
        for h in range(1, levels + 1)
        for sender in range((1 << (h - 1)) - 1, groups, 1 << h)
    )
    return 2 * (m - full) + 2 * (r - 1) * full + 2 * chain_sends, r + 1 + levels


def expected_ledger(algorithm: str, k: int, t: int, m: int, p: int, r: int, inner: int):
    """Ledger after step t of epoch k, or None for a field that depends on
    which workers were drawn (the number of distinct workers when R > 1)."""
    steps = (k - 1) * inner + t
    if algorithm == "sgd":
        return (0, p * steps, p * steps, 2 * steps)
    distinct = 1 if r == 1 else None

    def per_step(scale, offset=0):
        return None if distinct is None else offset + scale * distinct

    # epoch prologue: anchor broadcast, shard-gradient gather, full-gradient broadcast
    pro_ws, pro_sw, pro_rounds = k * p * m, 2 * k * p * m, 3 * k
    if algorithm == "asd_svrg":
        ww, rounds = pc_schedule(m, r)
        ws, sw = per_step(p, r), per_step(1, p * m)
        step = (ww, ws, sw, 1 + rounds + 3)
    else:
        step = (0, per_step(p), per_step(p), 2)
    prologue = (0, pro_ws, pro_sw, pro_rounds)
    return tuple(None if s is None else pre + steps * s for pre, s in zip(prologue, step))


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@dataclass
class Sweep:
    """A learning-rate sweep, run through ``cli.main`` when the CLI can
    express it and through ``harness.run_experiment`` otherwise."""

    seed: int
    spec: harness.ExperimentSpec
    argv: tuple[str, ...] | None

    def __post_init__(self):
        # set-up: the dataset and its smoothness constants
        self.problem = harness.make_problem(self.spec, self.seed)
        self.info = prob.lipschitz_info(self.problem)

    def sweep(self, out_dir: Path) -> int:
        """The timed part of a pass; returns the CLI exit status."""
        if self.argv is not None:
            argv = [*self.argv, "--seeds", str(self.seed), "--out", str(out_dir)]
            with contextlib.redirect_stdout(io.StringIO()):
                return cli.main(argv)
        spec = replace(self.spec, seeds=(self.seed,), out_dir=str(out_dir))
        harness.emit_plotdata(harness.run_experiment(spec), out_dir)
        return 0

    def run_pass(self, out_dir: Path) -> PassResult:
        status, seconds, wall_s = _timed(lambda: self.sweep(out_dir))
        result = self.check(out_dir, -1 if status is None else status, seconds)
        result.wall_s = wall_s
        return result

    def cells(self) -> list[tuple[str, float]]:
        return [(a, e) for a in self.spec.algorithms for e in self.spec.grid_for(a)]

    def check(self, out_dir: Path, status: int, seconds: float) -> PassResult:
        spec, expected = self.spec, self.cells()
        result = PassResult(seconds, len(expected), 0, 0, 0, (0, 0, 0, 0))
        report_path = out_dir / "report.csv"
        if status != 0 or not report_path.is_file():
            result.failed = len(expected)
            result.problems.append(f"sweep exited with status {status}")
            return result
        result.digest = hashlib.sha256(report_path.read_bytes()).hexdigest()
        report = {(r["algorithm"], float(r["eta"])): r for r in _read_csv(report_path)}
        m, p, r = self.problem.m_workers, self.problem.param_dim, spec.group_size
        failed: set[tuple[str, float]] = set()
        survivors: dict[tuple[str, float], float] = {}
        ledger = np.zeros(4, dtype=np.int64)
        for cell in expected:
            row = report.get(cell)
            if row is None or not (out_dir / row["trace_file"]).is_file():
                failed.add(cell)
                result.problems.append(f"{cell}: missing from report.csv or without a trace file")
                continue
            trace = _read_csv(out_dir / row["trace_file"])
            diverged = row["diverged"] == "1"
            result.steps += len(trace)
            result.calls += len(trace) if cell[0] == "asd_svrg" else 0
            result.diverged_steps += len(trace) if diverged else 0
            problem = self._check_cell(cell[0], trace, diverged, m, p, r)
            if trace:
                ledger += [int(trace[-1][k]) for k in ("ww_scalars", "ws_scalars", "sw_scalars", "rounds")]
            if problem:
                failed.add(cell)
                result.problems.append(f"{cell}: {problem}")
            elif not diverged:
                survivors[cell] = float(trace[-1]["train_loss"])
        for cell, problem in self.check_outcome(survivors):
            failed.add(cell)
            result.problems.append(f"{cell}: {problem}")
        result.failed = len(failed)
        result.ledger = tuple(int(v) for v in ledger)
        return result

    def _check_cell(self, algorithm, trace, diverged, m, p, r) -> str | None:
        spec = self.spec
        if not diverged and len(trace) != spec.epochs * spec.inner_iters:
            return f"{len(trace)} trace rows, expected {spec.epochs * spec.inner_iters}"
        columns = ("train_loss", "test_loss") + (("test_acc",) if self.problem.task == prob.LOGISTIC else ())
        for row in trace:
            if not all(math.isfinite(float(row[c])) for c in columns):
                return f"non-finite loss at k={row['k']}, t={row['t']}"
        for row in trace:
            want = expected_ledger(algorithm, int(row["k"]), int(row["t"]), m, p, r, spec.inner_iters)
            got = [int(row[c]) for c in ("ww_scalars", "ws_scalars", "sw_scalars", "rounds")]
            if any(w is not None and w != g for w, g in zip(want, got)):
                return f"ledger {got} differs from the schedule {list(want)} at k={row['k']}, t={row['t']}"
        return None

    def check_outcome(self, survivors: dict) -> list[tuple[tuple[str, float], str]]:
        """Checks on the sweep as a whole; returns the cells they fail."""
        return []


def _best(survivors: dict, algorithm: str):
    mine = {cell: loss for cell, loss in survivors.items() if cell[0] == algorithm}
    return min(mine.items(), key=lambda item: item[1]) if mine else (None, math.inf)


class LinearSweep(Sweep):
    def check_outcome(self, survivors):
        out = []
        asd_cells = [c for c in survivors if c[0] == "asd_svrg"]
        svrg_cells = [c for c in survivors if c[0] == "svrg_uniform"]
        if not asd_cells:
            return [(c, "no ASD cell survived") for c in self.cells() if c[0] == "asd_svrg"]
        asd_top = max(asd_cells, key=lambda c: c[1])
        if svrg_cells and asd_top[1] <= max(c[1] for c in svrg_cells):
            out.append((asd_top, "ASD's largest stable step size is not above uniform SVRG's"))
        best_cell, best_loss = _best(survivors, "asd_svrg")
        floor = least_squares_floor(self.problem)
        gap = (best_loss - floor) / floor
        if not gap <= 1e-6:
            out.append((best_cell, f"best ASD loss is {gap:.3g} above the least-squares minimum"))
        return out


class LogisticSweep(Sweep):
    def check_outcome(self, survivors):
        asd_cell, asd_loss = _best(survivors, "asd_svrg")
        _, svrg_loss = _best(survivors, "svrg_uniform")
        if asd_cell is None:
            return [(c, "no ASD cell survived") for c in self.cells() if c[0] == "asd_svrg"]
        if not asd_loss < svrg_loss:
            return [(asd_cell, f"best ASD loss {asd_loss:.6g} is not below uniform SVRG's {svrg_loss:.6g}")]
        return []


class ScaleSweep(Sweep):
    def check_outcome(self, survivors):
        return [(c, "diverged at a step size chosen to be stable") for c in self.cells() if c not in survivors]


def least_squares_floor(problem) -> float:
    """Minimum of the training objective (mean over shards of the per-shard
    mean squared error), solved directly."""
    m = problem.m_workers
    rows = [s.aug / math.sqrt(m * s.size) for s in problem.shards]
    targets = [s.y / math.sqrt(m * s.size) for s in problem.shards]
    x = np.linalg.lstsq(np.vstack(rows), np.concatenate(targets), rcond=None)[0]
    return prob.full_loss(problem, x)


# 2 * P(|Z| > 4): the tail mass of a 4-sigma check
_FOUR_SIGMA_TAIL = math.erfc(4.0 / math.sqrt(2.0))


@dataclass
class ProtocolWide:
    """Both tree protocols at wide worker counts, as ``hetsvrg protocol-test``
    runs them.  ``shapes`` holds (M, R) pairs."""

    seed: int
    shapes: tuple[tuple[int, int], ...] = ((1000, 8), (4096, 16))
    calls_per_shape: int = 30
    bins: int = 8

    def __post_init__(self):
        rng = np.random.default_rng(self.seed)
        self.weights = []
        for m, _ in self.shapes:
            w = rng.lognormal(0.0, 1.5, m)
            w[rng.random(m) < 0.1] = 0.0  # idle workers
            self.weights.append(w.tolist())

    def protocols(self):
        # looked up on every pass, so the tracer's wrappers are the ones called
        return (("pc", comm.pc_sample, pc_schedule), ("optimal", comm.optimal_comm_sample, optimal_schedule))

    def draw(self):
        """The timed part of a pass: every call's histogram and ledger."""
        out = []
        for s, ((_, r), w) in enumerate(zip(self.shapes, self.weights)):
            for q, (_, protocol, _) in enumerate(self.protocols()):
                rng = np.random.default_rng([self.seed, s, q])
                calls = []
                for _ in range(self.calls_per_shape):
                    ledger = comm.CommLedger()
                    calls.append((protocol(w, r, ledger, rng), ledger))
                out.append(calls)
        return out

    def run_pass(self, out_dir: Path) -> PassResult:
        draws, seconds, wall_s = _timed(self.draw)
        if draws is None:
            n_calls = 2 * len(self.shapes) * self.calls_per_shape
            return PassResult(seconds, n_calls, n_calls, n_calls, n_calls, (0, 0, 0, 0), wall_s=wall_s,
                              problems=["a protocol call raised"])
        result = self.check(draws, seconds)
        result.wall_s = wall_s
        return result

    def check(self, draws, seconds: float) -> PassResult:
        n_calls = sum(len(calls) for calls in draws)
        result = PassResult(seconds, n_calls, 0, n_calls, n_calls, (0, 0, 0, 0))
        ledger = np.zeros(4, dtype=np.int64)
        digest = hashlib.sha256()
        chi2, dof = 0.0, 0
        groups = [(shape, w, proto) for shape, w in zip(self.shapes, self.weights) for proto in self.protocols()]
        for ((m, r), w, (label, _, schedule)), calls in zip(groups, draws):
            w = np.asarray(w)
            want_ww, want_rounds = schedule(m, r)
            counts = np.zeros(m)
            for hist, led in calls:
                ledger += led.snapshot()
                digest.update(repr(hist.items()).encode())
                keys = np.fromiter(hist.counts, dtype=int)
                bad = None
                if hist.total != r:
                    bad = f"{hist.total} draws, expected {r}"
                elif keys.min() < 0 or keys.max() >= m or np.any(w[keys] <= 0):
                    bad = "drew a padding or zero-weight worker"
                elif led.snapshot() != (want_ww, 0, 0, want_rounds):
                    bad = f"ledger {led.snapshot()} differs from the schedule ({want_ww}, 0, 0, {want_rounds})"
                else:
                    for i, mult in hist.items():
                        counts[i] += mult
                if bad:
                    result.failed += 1
                    result.problems.append(f"{label} M={m} R={r}: {bad}")
            stat, k = _binned_chi2(counts, w, self.bins)
            chi2, dof = chi2 + stat, dof + k
        # the binned marginals of all groups, as one test at the 4-sigma tail mass
        limit = float(chdtri(dof, _FOUR_SIGMA_TAIL)) if dof else math.inf
        if chi2 > limit:
            result.failed = n_calls
            result.problems.append(f"marginals off: chi-square {chi2:.1f} over {dof} dof exceeds {limit:.1f}")
        result.ledger = tuple(int(v) for v in ledger)
        result.digest = digest.hexdigest()
        return result


def _binned_chi2(counts: np.ndarray, weights: np.ndarray, bins: int) -> tuple[float, int]:
    """Chi-square of the draw counts against w / sum(w), over contiguous
    worker bins of about equal mass; returns (statistic, degrees of freedom)."""
    if counts.sum() == 0:
        return 0.0, 0
    cum = np.cumsum(weights) / weights.sum()
    edges = np.unique(np.searchsorted(cum, np.arange(1, bins) / bins))
    starts = np.concatenate(([0], edges[(edges > 0) & (edges < weights.size)]))
    observed = np.add.reduceat(counts, starts)
    expected = np.add.reduceat(weights, starts) / weights.sum() * counts.sum()
    return float(np.sum((observed - expected) ** 2 / expected)), len(observed) - 1


def _spec(eta_grid=None, **fields) -> harness.ExperimentSpec:
    return harness.ExperimentSpec(eta_grid=eta_grid, seeds=(0,), **fields)


LINEAR_EPOCHS = 8
LOGISTIC_EPOCHS = 1

NAMES = ("linear_sweep", "logistic_sweep", "scale_asd", "protocol_wide")


def make(name: str, seed: int, tiny: bool = False):
    """Build a workload with its inputs for ``seed``.  ``tiny`` shrinks the
    shapes for the benchmark's own tests; the checks stay the same, so the
    two preset sweeps keep their shape (fewer linear epochs miss the 1e-6 gap)."""
    if name == "linear_sweep":
        spec = _spec(preset="linear_synthetic", algorithms=("sgd", "svrg_uniform", "asd_svrg"),
                     epochs=LINEAR_EPOCHS)
        argv = ("run", "--preset", "linear", "--epochs", str(LINEAR_EPOCHS))
        return LinearSweep(seed, spec, argv)
    if name == "logistic_sweep":
        spec = _spec(preset="logistic_synthetic",
                     algorithms=("sgd", "svrg_uniform", "svrg_importance", "asd_svrg"), epochs=LOGISTIC_EPOCHS)
        argv = ("run", "--preset", "logistic", "--algos", "sgd,svrg,svrg_importance,asd",
                "--epochs", str(LOGISTIC_EPOCHS))
        return LogisticSweep(seed, spec, argv)
    if name == "scale_asd":
        m, n, inner = (16, 2000, 10) if tiny else (64, 20000, 25)
        spec = _spec(preset="linear_synthetic", algorithms=("svrg_uniform", "asd_svrg"), eta_grid=(0.03, 0.1),
                     epochs=2, inner_iters=inner, group_size=4, m_workers=m, samples_total=n, dim=50,
                     growth_base=1.2)
        return ScaleSweep(seed, spec, None)
    if name == "protocol_wide":
        if tiny:
            return ProtocolWide(seed, shapes=((100, 4), (200, 8)), calls_per_shape=20, bins=4)
        return ProtocolWide(seed)
    raise ValueError(f"unknown workload {name!r}; expected one of {NAMES}")
