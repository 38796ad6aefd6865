"""Experiment harness: presets, learning-rate grid sweeps, CSV emission.

A sweep runs every (algorithm, eta, seed) cell on a shared dataset and a
shared all-zeros initial parameter vector, writes one trace CSV per cell plus
a report CSV, and summarises the best learning rate per algorithm.  Every
step size of every algorithm of one seed, SGD's included, is stepped
together in one ``optim.run_grid`` call.  Diverged cells are
recorded, never fatal, and cannot perturb other cells: every cell derives
its random streams from (seed, algorithm, eta) alone, and its run is
bit-identical to its run alone.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import comm
from . import optim
from . import problem as prob
from . import sampling

ALGORITHMS = ("sgd", "svrg_uniform", "svrg_importance", "asd_svrg")
PRESETS = ("linear_synthetic", "logistic_synthetic", "custom_csv")

_ALGO_CODE = {name: i for i, name in enumerate(ALGORITHMS)}
_MODE = {"sgd": "sgd", "svrg_uniform": "uniform", "svrg_importance": "lipschitz_importance", "asd_svrg": "adaptive"}

# Preset shapes for the two synthetic tasks.
PRESET_PROBLEMS = {
    "linear_synthetic": dict(task=prob.LINEAR, m_workers=8, samples_total=500, dim=10),
    "logistic_synthetic": dict(task=prob.LOGISTIC, m_workers=8, samples_total=300, dim=100),
}
_SHAPE_FIELDS = ("m_workers", "samples_total", "dim")  # a synthetic preset's, which a spec may override

# Default learning-rate grids.  The linear grids are calibrated to the
# synthetic preset (the adaptive runs stay stable roughly an order of
# magnitude beyond uniform sampling there); the logistic grids are
# conservative defaults, meant to be overridden for tuned sweeps.
DEFAULT_GRIDS = {
    "linear_synthetic": {
        "sgd": (0.001, 0.005, 0.025, 0.125, 0.625),
        "svrg_uniform": (0.001, 0.005, 0.025, 0.125, 0.625),
        "svrg_importance": (0.001, 0.005, 0.025, 0.125, 0.625),
        "asd_svrg": (0.005, 0.025, 0.125, 0.625, 3.125),
    },
    "logistic_synthetic": {
        "sgd": (7.5e-6, 2.5e-5, 7.5e-5, 2.5e-4, 7.5e-4),
        "svrg_uniform": (7.5e-6, 2.5e-5, 7.5e-5, 2.5e-4, 7.5e-4),
        "svrg_importance": (7.5e-6, 2.5e-5, 7.5e-5, 2.5e-4, 7.5e-4),
        "asd_svrg": (2.5e-4, 7.5e-4, 2.5e-3, 7.5e-3, 2.5e-2),
    },
}

REPORT_CSV_HEADER = [
    "algorithm",
    "eta",
    "seed",
    "diverged",
    "final_train_loss",
    "final_test_loss",
    "final_test_accuracy",
    "epochs_to_threshold",
    "total_scalars",
    "trace_file",
]

FIGURES = ("train_loss", "test_loss", "test_accuracy")

# epochs_to_threshold: a run arrives once its train loss is within this
# fraction of its seed's initial optimality gap
_LOSS_GAP_RTOL = 1e-3


class AllDiverged(RuntimeError):
    """Every grid cell of an algorithm diverged; no best step size exists."""


@dataclass(frozen=True)
class ExperimentSpec:
    """One grid sweep: which dataset, which algorithms, which cells.

    ``eta_grid=None`` selects the preset's per-algorithm default grid.
    ``growth_base`` controls how fast per-worker smoothness grows on the
    synthetic presets.  Only ``custom_csv`` takes (and needs) ``csv_path`` and ``task``.
    """

    preset: str
    algorithms: tuple[str, ...]
    eta_grid: tuple[float, ...] | None
    seeds: tuple[int, ...]
    epochs: int = 30
    inner_iters: int = 100
    group_size: int = 1
    estimation: sampling.EstimationConfig = field(default_factory=sampling.EstimationConfig)
    out_dir: str = "runs"
    csv_path: str | None = None
    task: str | None = None
    m_workers: int | None = None
    samples_total: int | None = None
    dim: int | None = None
    growth_base: float = 3.0
    l2_for_sgd: float = 0.02
    eval_every: int = 1

    def __post_init__(self):
        if self.preset not in PRESETS:
            raise ValueError(f"unknown preset {self.preset!r}; expected one of {PRESETS}")
        if not self.algorithms:
            raise ValueError("at least one algorithm is required")
        unknown = [a for a in self.algorithms if a not in ALGORITHMS]
        if unknown:
            raise ValueError(f"unknown algorithms {unknown}; expected subset of {ALGORITHMS}")
        if self.eta_grid is not None:
            if not self.eta_grid:
                raise ValueError("eta_grid must be nonempty when given")
            if not all(math.isfinite(e) and e > 0 for e in self.eta_grid):
                raise ValueError("eta_grid entries must be finite and positive")
        elif self.preset == "custom_csv":
            raise ValueError("custom_csv has no default grid; pass eta_grid explicitly")
        if not self.seeds:
            raise ValueError("at least one seed is required")
        for seed in self.seeds:  # _cell_seed's int() would run 1.5 as seed 1
            comm._count(seed, "seeds")
        if any(len(set(v)) != len(v) for v in (self.algorithms, self.eta_grid or (), self.seeds)):
            raise ValueError("algorithms, eta_grid and seeds must not repeat an entry")  # each cell runs once
        if (self.csv_path, self.task).count(None) != (0 if self.preset == "custom_csv" else 2):
            raise ValueError("csv_path and task are both needed under custom_csv, and taken by no other preset")
        for algorithm in self.algorithms:  # every cell's config checks itself before run_experiment makes out_dir
            for seed in self.seeds:
                _configs(self, algorithm, seed)
        if not (math.isfinite(self.growth_base) and self.growth_base > 0):
            raise ValueError("growth_base must be finite and positive")
        shape = {k: comm._count(getattr(self, k), k) for k in _SHAPE_FIELDS if getattr(self, k) is not None}
        if any(v < 1 for v in shape.values()):
            raise ValueError("m_workers, samples_total and dim must be at least 1")
        if self.preset == "custom_csv" and shape:
            raise ValueError(f"custom_csv takes its shape from the CSV; {', '.join(shape)} must be unset")
        if self.preset != "custom_csv":  # generate_heterogeneous's split, before it runs
            m_workers, samples_total, _ = _problem_shape(self)
            prob._train_rows(samples_total, m_workers)

    def grid_for(self, algorithm: str) -> tuple[float, ...]:
        if self.eta_grid is not None:
            return self.eta_grid
        return DEFAULT_GRIDS[self.preset][algorithm]


@dataclass(frozen=True)
class CellResult:
    """Outcome of one (algorithm, eta, seed) run."""

    algorithm: str
    eta: float
    seed: int
    diverged: bool
    final_train_loss: float
    final_test_loss: float
    final_test_accuracy: float
    epochs_to_threshold: float | None
    total_scalars: int
    trace_file: str


@dataclass
class ComparisonReport:
    """All cell outcomes of a sweep plus the per-algorithm best rows."""

    spec: ExperimentSpec
    rows: list[CellResult]
    best: dict[str, tuple[float, dict]]

    def rows_for(self, algorithm: str) -> list[CellResult]:
        return [r for r in self.rows if r.algorithm == algorithm]

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(REPORT_CSV_HEADER)
            for r in self.rows:
                writer.writerow(
                    [
                        r.algorithm,
                        repr(r.eta),
                        r.seed,
                        int(r.diverged),
                        repr(r.final_train_loss),
                        repr(r.final_test_loss),
                        repr(r.final_test_accuracy),
                        "" if r.epochs_to_threshold is None else repr(r.epochs_to_threshold),
                        r.total_scalars,
                        r.trace_file,
                    ]
                )


def make_problem(spec: ExperimentSpec, seed: int) -> prob.ShardedProblem:
    """Dataset for one seed: generated for the synthetic presets, loaded once
    from disk for custom_csv (where the seed only drives the optimizers)."""
    if spec.preset == "custom_csv":
        return prob.load_csv(spec.csv_path, spec.task)
    return prob.generate_heterogeneous(
        PRESET_PROBLEMS[spec.preset]["task"], *_problem_shape(spec), spec.growth_base, seed
    )


def _problem_shape(spec: ExperimentSpec) -> tuple[int, int, int]:
    """(m_workers, samples_total, dim) of a synthetic preset's dataset: the
    spec's value of each field, or the preset's where it is None."""
    base = PRESET_PROBLEMS[spec.preset]
    return tuple(base[k] if getattr(spec, k) is None else getattr(spec, k) for k in _SHAPE_FIELDS)


def _cell_seed(seed: int, algorithm: str, eta: float) -> tuple[int, int, int]:
    # streams depend only on the cell's own identity so removing any other
    # cell from the grid cannot change this cell's run
    eta_bits = int(np.float64(eta).view(np.uint64))
    return (int(seed), _ALGO_CODE[algorithm], eta_bits)


def _configs(spec: ExperimentSpec, algorithm: str, seed: int) -> list:
    """The optimizer config of every step size of one (algorithm, seed);
    each carries the spec's L2, which only an SGD cell reads."""
    base = optim.OptimizerConfig(
        eta=0.0, epochs=spec.epochs, inner_iters=spec.inner_iters, group_size=spec.group_size,
        estimation=spec.estimation, distribution_mode=_MODE[algorithm], eval_every=spec.eval_every,
        l2_for_sgd=spec.l2_for_sgd,
    )
    return [replace(base, eta=eta, seed=_cell_seed(seed, algorithm, eta)) for eta in spec.grid_for(algorithm)]


def _run_seed(problem, spec: ExperimentSpec, seed: int, x0) -> list:
    """(trace, diverged) of every step size of each algorithm of one seed,
    one list per entry of ``spec.algorithms``: every cell of the seed, SGD's
    included, steps in one ``optim.run_grid`` call."""
    grids = [_configs(spec, algorithm, seed) for algorithm in spec.algorithms]
    outcomes = iter(optim.run_grid(problem, [config for grid in grids for config in grid], x0))
    return [[next(outcomes) for _ in grid] for grid in grids]


def _trace_name(algorithm: str, eta: float, seed: int) -> str:
    return f"trace_{algorithm}_eta{eta!r}_seed{seed}.csv"


def _epochs_to_threshold(trace, threshold: float, inner_iters: int) -> float | None:
    """Fractional epoch count at which the train loss first meets the
    threshold: (k - 1) + t / T of the earliest qualifying row."""
    for row in trace.rows:
        if row.train_loss <= threshold:
            return (row.epoch - 1) + row.step / inner_iters
    return None


def run_experiment(spec: ExperimentSpec) -> ComparisonReport:
    """Run the full sweep and write per-cell traces plus report.csv/best.csv.

    All algorithms of a seed share one generated dataset and the all-zeros
    initial point.  The arrival threshold is computed per seed from the best
    train loss recorded by any cell of that seed (diverged cells included up
    to their abort point).
    """
    # the first dataset, and ASD's group size against its workers, are
    # checked before out_dir is made, so a rejected sweep leaves no directory
    first = make_problem(spec, spec.seeds[0])
    if "asd_svrg" in spec.algorithms:
        comm.Topology(first.m_workers, spec.group_size)
    out = Path(spec.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    rows: list[CellResult] = []
    for seed in spec.seeds:
        # a custom dataset does not depend on the seed: it is parsed once
        problem = first if seed == spec.seeds[0] or spec.preset == "custom_csv" else make_problem(spec, seed)
        x0 = np.zeros(problem.param_dim)
        initial_loss = prob.full_loss(problem, x0)

        cells = []
        for algorithm, runs in zip(spec.algorithms, _run_seed(problem, spec, seed, x0)):
            for eta, (trace, diverged) in zip(spec.grid_for(algorithm), runs):
                name = _trace_name(algorithm, eta, seed)
                trace.to_csv(out / name)
                cells.append((algorithm, eta, trace, diverged, name))

        best_seen = min(
            (r.train_loss for _, _, trace, _, _ in cells for r in trace.rows),
            default=initial_loss,
        )
        threshold = best_seen + _LOSS_GAP_RTOL * max(initial_loss - best_seen, 0.0)
        for algorithm, eta, trace, diverged, name in cells:
            last = trace.rows[-1] if trace.rows else None
            ww, ws, sw, _ = trace.ledger.snapshot()
            rows.append(
                CellResult(
                    algorithm=algorithm,
                    eta=eta,
                    seed=seed,
                    diverged=diverged,
                    final_train_loss=last.train_loss if last else float("nan"),
                    final_test_loss=last.test_loss if last else float("nan"),
                    final_test_accuracy=last.test_accuracy if last else float("nan"),
                    epochs_to_threshold=(
                        None if diverged else _epochs_to_threshold(trace, threshold, spec.inner_iters)
                    ),
                    total_scalars=ww + ws + sw,
                    trace_file=name,
                )
            )

    best = {}
    for algorithm in spec.algorithms:
        try:
            best[algorithm] = grid_best_from_rows(rows, algorithm)
        except AllDiverged:
            pass

    report = ComparisonReport(spec=spec, rows=rows, best=best)
    report.to_csv(out / "report.csv")
    with open(out / "best.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["algorithm", "eta", "median_final_train_loss"])
        for algorithm in spec.algorithms:
            if algorithm in best:
                eta, metrics = best[algorithm]
                writer.writerow([algorithm, repr(eta), repr(metrics["median_final_train_loss"])])
    return report


def grid_best_from_rows(rows: list[CellResult], algorithm: str) -> tuple[float, dict]:
    """Best step size for one algorithm from raw cell rows.

    Step sizes where no seed diverged are preferred; among them (or, failing
    that, among step sizes with at least one surviving seed) the median
    per-seed regret decides, ties broken toward the larger step size.  Regret
    is the final train loss minus the seed's best final loss over the grid;
    final losses are only comparable within a seed, since each seed carries
    its own attainable optimum.
    """
    mine = [r for r in rows if r.algorithm == algorithm]
    alive = [r for r in mine if not r.diverged]
    if not alive:
        raise AllDiverged(f"every grid cell of {algorithm} diverged")
    by_eta: dict[float, list[CellResult]] = {}
    for r in alive:
        by_eta.setdefault(r.eta, []).append(r)
    diverged_etas = {r.eta for r in mine if r.diverged}
    clean = {e: v for e, v in by_eta.items() if e not in diverged_etas}
    pool = clean if clean else by_eta

    seed_floor = {}
    for r in alive:
        seed_floor[r.seed] = min(seed_floor.get(r.seed, math.inf), r.final_train_loss)

    def score(eta):
        regrets = [r.final_train_loss - seed_floor[r.seed] for r in pool[eta]]
        return float(np.median(regrets))

    best_eta = max(pool, key=lambda e: (-score(e), e))
    cells = pool[best_eta]
    metrics = {
        "median_regret": score(best_eta),
        "median_final_train_loss": float(np.median([r.final_train_loss for r in cells])),
        "median_final_test_loss": float(np.median([r.final_test_loss for r in cells])),
        "median_epochs_to_threshold": float(np.median(
            [math.inf if r.epochs_to_threshold is None else r.epochs_to_threshold for r in cells])),
        "cells": cells,
    }
    return best_eta, metrics


def emit_plotdata(report: ComparisonReport, trace_dir) -> list[str]:
    """Re-emit the best-eta traces as one file per (figure, algorithm).

    Each output file carries the full trace schema (so any column can be
    plotted directly; the losses are raw values, ready for a log axis) and
    concatenates the best-eta runs of every seed, their trace files' rows
    as they are.  Algorithms whose cells all diverged, or empty reports,
    produce header-only files.
    """
    trace_dir = Path(trace_dir)
    written = []
    for algorithm in report.spec.algorithms:
        eta = report.best[algorithm][0] if algorithm in report.best else None  # None: no row is chosen
        chosen = [r for r in report.rows_for(algorithm) if r.eta == eta and not r.diverged]
        text = (",".join(optim.TRACE_CSV_HEADER) + "\r\n").encode()
        for cell in sorted(chosen, key=lambda r: r.seed):
            path = trace_dir / cell.trace_file
            try:  # a trace file is its header line, then its rows
                text += path.read_bytes().partition(b"\n")[2]
            except OSError as exc:
                raise OSError(f"cannot read trace {path}: {exc}") from exc
        for figure in FIGURES:
            out_path = trace_dir / f"fig_{figure}_{algorithm}.csv"
            try:
                out_path.write_bytes(text)
            except OSError as exc:
                raise OSError(f"cannot write plot data {out_path}: {exc}") from exc
            written.append(str(out_path))
    return written
