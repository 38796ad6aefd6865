"""Digest every output file of seventeen fixed sweeps and of the tree protocols
at wide worker counts, so that two checkouts can be shown to write
byte-identical traces, reports and protocol draws.

Usage (from the repository root):

    python3 scripts/equivalence.py OUT
    python3 scripts/equivalence.py --compare OUT_A OUT_B

OUT must be new or empty.  Each sweep writes its files under
``OUT/<sweep>/`` and the protocol calls under ``OUT/protocol_wide/``, and
``OUT/SHA256SUMS`` gets one ``<sha256>  <sweep>/<file>``
line per file, sorted, which is also printed.  Run it in two checkouts and
``diff`` the two ``SHA256SUMS``: no output means every trace CSV,
``report.csv``, ``best.csv``, plot-data and protocol file is the same, byte
for byte.
The sweeps cover both presets, all four algorithms, the two subsample
policies, R > 1, several seeds, diverging cells, a trace thinned by
``--eval-every``, a linear and a logistic dataset written by
``problem.save_csv`` (digested too) and read back by ``--preset custom``,
the logistic one with row counts that are not multiples of 4, a sweep
read from a ``--config`` file (keys in both spellings, one overridden by a
flag), a 64-worker ASD shape run through ``harness.run_experiment``, and
linear-preset ASD under ``fixed`` with every subsample its whole shard,
logistic-preset ASD under ``full`` (wide rows), whose
largest step size diverges at epoch 1, step 10 on seed 1, so the live cells
shrink in mid-epoch, and a linear sweep of the three variance-reduced
algorithms under ``fixed`` with R = 3, in which one algorithm's cells all
diverge partway through the first epoch while the others step on, an SGD
sweep with R = 9 (above the preset's 8 workers, which SGD ignores) whose
cells diverge at step 1 and in mid-epoch, and a logistic SGD and ASD sweep
whose SGD cells diverge in mid-epoch while every ASD cell steps on, and
an ASD sweep over a saved dataset with unequal shards whose fixed
subsample size is above half the smallest shard, where one cell diverges
inside a block of subsample draws, and a 1500-step ASD epoch with R = 3
whose five cells each read one tree-protocol generator through all 1500
steps, with cells diverging in it.  The sweeps' trees have at most 64 workers and R = 4, so
both protocols are also called alone at M = 1000, R = 8 and M = 4096,
R = 16 (the bench's ``protocol_wide`` shapes) and at M = 1000, R = 7, whose
143 groups are padded to 256, and ``pc_sample_cells`` draws for 3 cells of
the padded shape; about 10% of every shape's weights are zero.

``--compare OUT_A OUT_B`` reads two such outputs, for a change that moves
bits on purpose, and prints one verdict per CSV file:

* ``byte-identical``;
* ``bits-only``: the header, the row count and every column but the loss
  and accuracy columns (``LOSS_COLUMNS``) are equal as text: (k, t) and the
  ledger of a trace or figure file, ``diverged``, ``epochs_to_threshold``,
  ``total_scalars``, ``trace_file`` and the cell of a report, the chosen
  step size of ``best.csv``, every draw of a protocol file.  The loss
  columns hold finite values where they differ, and the line gives the
  largest relative difference of each;
* ``outcome-changed``, with the first difference found, also for a file in
  one output only.

It then prints the count of each verdict over all files and, one line per
algorithm, over the trace and figure files named after it, so a change
that should move one algorithm's files alone can be read off those lines.

The exit status is 1 if any file's outcome changed.  This compares one run
of each side; it is no test of equivalence in distribution over seeds.
"""

from __future__ import annotations

import os

# one BLAS thread, as in bench/run.py, so the sums are the same on any host
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import collections
import contextlib
import csv
import hashlib
import io
import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hetsvrg import cli, comm, harness  # noqa: E402
from hetsvrg import problem as prob  # noqa: E402

CLI_SWEEPS = {
    "linear_default": ("--preset", "linear", "--epochs", "8"),
    "logistic_all": ("--preset", "logistic", "--algos", "sgd,svrg,svrg_importance,asd", "--epochs", "2"),
    "linear_fixed_r3": ("--preset", "linear", "--R", "3", "--estimation", "fixed", "--epochs", "3"),
    "asd_full_seeds12": ("--preset", "linear", "--algos", "asd", "--estimation", "full", "--seeds", "1,2",
                         "--epochs", "3"),
    # the linear preset's shards hold 50 rows, so every fixed subsample is its
    # whole shard: the estimator reads the rows in place, as under full, and
    # each file equals its asd_full_seeds12 twin byte for byte
    "asd_whole_fixed": ("--preset", "linear", "--algos", "asd", "--estimation", "fixed", "--fixed-n", "50",
                        "--seeds", "1,2", "--epochs", "3"),
    "asd_fixed_r2_seed3": ("--preset", "linear", "--algos", "asd", "--estimation", "fixed", "--R", "2",
                           "--seeds", "3", "--epochs", "3"),
    "linear_eval3": ("--preset", "linear", "--algos", "sgd,svrg,svrg_importance,asd", "--eval-every", "3",
                     "--epochs", "3"),
    # every variance-reduced mode in one loop: on seed 1 svrg_uniform's cells
    # all diverge in epoch 1 (steps 2, 10 and 27), so its mode group empties
    # mid-epoch; the other two modes lose their eta 1.0 and 3.0 cells by
    # step 6 and step their eta 0.3 cell through all three epochs
    "vr_modes_fixed_r3": ("--preset", "linear", "--algos", "svrg,svrg_importance,asd", "--estimation", "fixed",
                          "--R", "3", "--etas", "0.3,1.0,3.0", "--epochs", "3"),
    # on seed 1 SGD's eta 1e12 cell diverges at step 1 and its eta 1.0 cell
    # at step 17, while its eta 0.025 cell steps through both epochs
    "sgd_r9": ("--preset", "linear", "--algos", "sgd", "--R", "9", "--etas", "0.025,1.0,1e12", "--seeds", "1",
               "--epochs", "2"),
    # on seed 1 SGD's eta 700 and 150 cells diverge at steps 5 and 14 of
    # epoch 1; every ASD cell, and SGD's eta 0.0025 cell, steps on
    "logistic_sgd_asd": ("--preset", "logistic", "--algos", "sgd,asd", "--etas", "0.0025,150,700", "--seeds", "1",
                         "--epochs", "2"),
    # one epoch of 1500 steps, in which each of the five cells reads one
    # protocol generator step after step on seed 1: R = 3 pads the 8 workers
    # to 12, so dead tree nodes draw no uniforms, and cells that diverge
    # stop reading theirs while the others read on
    "asd_r3_blocks": ("--preset", "linear", "--algos", "asd", "--R", "3", "--inner", "1500", "--epochs", "1"),
    "logistic_asd_wide/full": ("--preset", "logistic", "--algos", "asd", "--estimation", "full",
                               "--etas", "0.0025,0.025,3e6", "--seeds", "1", "--epochs", "2"),
}


def custom_sweep(out: Path, name: str, problem: prob.ShardedProblem, *args: str) -> tuple[str, ...]:
    """Write ``problem`` under ``out/<name>_data`` with ``problem.save_csv``
    and return the arguments of a sweep that reads it back with
    ``load_csv``, followed by ``args``."""
    dataset = out / f"{name}_data" / "dataset.csv"
    dataset.parent.mkdir(parents=True)
    prob.save_csv(problem, dataset)
    return ("--preset", "custom", "--csv", str(dataset), "--task", problem.task, *args)


def unequal_shards() -> prob.ShardedProblem:
    """A linear problem whose five shards hold 12, 80, 35, 61 and 20 rows."""
    base = prob.generate_heterogeneous(prob.LINEAR, 5, 500, 4, 2.0, seed=17)
    shards = [prob.Shard(m, s.X[:n], s.y[:n]) for m, (s, n) in enumerate(zip(base.shards, [12, 80, 35, 61, 20]))]
    return prob.ShardedProblem(shards, prob.LINEAR, test_X=base.test_X, test_y=base.test_y)


def custom_sweeps(out: Path) -> dict[str, tuple[str, ...]]:
    """The dataset sweeps: a linear one, a logistic one whose 294
    training and 73 held-out rows are not multiples of 4 (at p = 8), where
    a mat-vec over the training rows stacked on the held-out rows can round
    them differently in BLAS (the presets' 240 and 60 rows cannot show it),
    and ASD on unequal shards.  There each step of a cell draws 10 rows of
    every shard, the 12-row shard by leaving 2 out, so a block of draws
    covers 27 steps of the three cells; on seed 1 the eta 1.0 cell diverges
    at epoch 1, step 10, and the block is drawn again for the other two."""
    return {
        "custom_unequal_fixed": custom_sweep(
            out, "custom_unequal", unequal_shards(), "--algos", "asd", "--estimation", "fixed", "--fixed-n", "10",
            "--etas", "0.1,0.5,1.0", "--seeds", "1", "--epochs", "2", "--inner", "60"),
        "custom_linear": custom_sweep(
            out, "custom", prob.generate_heterogeneous(prob.LINEAR, 6, 300, 5, 2.0, seed=11),
            "--etas", "0.01,0.05,0.3,3.0", "--algos", "sgd,svrg,svrg_importance,asd", "--seeds", "1,2",
            "--epochs", "3", "--inner", "40"),
        "custom_logistic_eval3": custom_sweep(
            out, "custom_logistic", prob.generate_heterogeneous(prob.LOGISTIC, 5, 367, 7, 2.0, seed=13),
            "--etas", "0.05,0.5,5.0", "--algos", "sgd,svrg,svrg_importance,asd", "--seeds", "1,2",
            "--epochs", "2", "--inner", "40", "--eval-every", "3"),
    }


def config_sweep(out: Path) -> tuple[str, ...]:
    """The arguments of a sweep whose options come from a config file under
    ``out/config_data``, its keys spelled with '-' and with '_', and whose
    ``--epochs`` flag overrides the file's ``epochs``."""
    config = out / "config_data" / "sweep.conf"
    config.parent.mkdir(parents=True)
    config.write_text(
        "# linear preset, thinned trace, fixed subsample size\n"
        "preset = linear\nalgos = sgd,svrg,svrg_importance,asd\netas = 0.02,0.06\nseeds = 4,5\n"
        "epochs = 5\ninner = 20\nR = 2\neval-every = 2\ngrowth_base = 2.5\nl2-sgd = 0.05\n"
        "estimation = fixed\nfixed_n = 12\n"
    )
    return ("--config", str(config), "--epochs", "2")


def scale_asd_spec(out_dir: Path) -> harness.ExperimentSpec:
    """The bench's ``scale_asd`` shape, with svrg_importance and one more step size."""
    return harness.ExperimentSpec(
        preset="linear_synthetic", algorithms=("svrg_uniform", "svrg_importance", "asd_svrg"),
        eta_grid=(0.03, 0.1, 0.5), seeds=(7,), epochs=2, inner_iters=25, group_size=4, m_workers=64,
        samples_total=20000, dim=50, growth_base=1.2, out_dir=str(out_dir),
    )


PROTOCOL_SHAPES = ((1000, 8), (4096, 16), (1000, 7))
PROTOCOL_CALLS = 20
PROTOCOL_HEADER = "call,worker_worker,worker_server,server_worker,rounds,draws\n"


def protocol_weights(m: int, seed: int) -> np.ndarray:
    """``m`` lognormal weights, about 10% of them zero."""
    rng = np.random.default_rng(seed)
    w = rng.lognormal(0.0, 1.5, m)
    w[rng.random(m) < 0.1] = 0.0
    return w


def protocol_calls(out: Path) -> None:
    """Write the draws and ledger of every call of both protocols at each
    of ``PROTOCOL_SHAPES``, one CSV per protocol and shape, and those of
    ``pc_sample_cells`` over 3 cells of the padded shape, one CSV per cell,
    under ``out``.  A call's draws are its histogram's ``worker:count``
    pairs, or for a cell its workers in slot order."""
    out.mkdir(parents=True)
    for m, R in PROTOCOL_SHAPES:
        w = protocol_weights(m, m + R)
        for name, protocol in (("pc", comm.pc_sample), ("optimal", comm.optimal_comm_sample)):
            rng, rows = np.random.default_rng([m, R]), []
            for call in range(PROTOCOL_CALLS):
                ledger = comm.CommLedger()
                draws = " ".join(f"{i}:{k}" for i, k in protocol(w, R, ledger, rng).items())
                rows.append(f"{ledger.csv_row(str(call))},{draws}\n")
            (out / f"{name}_m{m}_r{R}.csv").write_text(PROTOCOL_HEADER + "".join(rows))
    m, R = PROTOCOL_SHAPES[-1]
    w = np.stack([protocol_weights(m, seed) for seed in range(3)])
    rngs = [np.random.default_rng([m, R, cell]) for cell in range(3)]
    rows = [[] for _ in rngs]
    for call in range(PROTOCOL_CALLS):
        ledgers = [comm.CommLedger() for _ in rngs]
        draws = comm.pc_sample_cells(w, R, ledgers, rngs)
        for cell, ledger in enumerate(ledgers):
            rows[cell].append(f"{ledger.csv_row(str(call))},{' '.join(map(str, draws[cell].tolist()))}\n")
    for cell, cell_rows in enumerate(rows):
        (out / f"cells3_cell{cell}_m{m}_r{R}.csv").write_text(PROTOCOL_HEADER + "".join(cell_rows))


LOSS_COLUMNS = frozenset({"train_loss", "test_loss", "test_acc", "final_train_loss", "final_test_loss",
                          "final_test_accuracy", "median_final_train_loss"})


def compare_file(a: Path, b: Path) -> tuple[str, str]:
    """The verdict on one CSV file of two outputs, and its detail."""
    if a.read_bytes() == b.read_bytes():
        return "byte-identical", ""
    with open(a, newline="") as fa, open(b, newline="") as fb:
        rows_a, rows_b = list(csv.reader(fa)), list(csv.reader(fb))
    if rows_a[:1] != rows_b[:1]:
        return "outcome-changed", "header"
    if len(rows_a) != len(rows_b):
        return "outcome-changed", f"{len(rows_a) - 1} rows against {len(rows_b) - 1}"
    header = rows_a[0]
    worst = {name: 0.0 for name in header if name in LOSS_COLUMNS}
    for i, (row_a, row_b) in enumerate(zip(rows_a[1:], rows_b[1:]), start=1):
        if len(row_a) != len(row_b):
            return "outcome-changed", f"row {i}: {len(row_a)} fields against {len(row_b)}"
        for name, va, vb in zip(header, row_a, row_b):
            if va == vb:
                continue
            try:
                fa, fb = float(va), float(vb)
            except ValueError:
                fa = fb = math.nan
            if name not in worst or not (math.isfinite(fa) and math.isfinite(fb)):
                return "outcome-changed", f"row {i}: {name} {va!r} against {vb!r}"
            worst[name] = max(worst[name], abs(fa - fb) / max(abs(fa), abs(fb)))
    return "bits-only", " ".join(f"{name} {value:.2e}" for name, value in worst.items() if value)


def algorithm_of(name: str) -> str | None:
    """The algorithm whose trace (``trace_<algorithm>_eta...``) or figure
    (``fig_<figure>_<algorithm>``) file ``name`` is, else None."""
    stem = Path(name).stem
    for algorithm in harness.ALGORITHMS:
        if stem.startswith(f"trace_{algorithm}_eta") or (stem.startswith("fig_") and stem.endswith(f"_{algorithm}")):
            return algorithm
    return None


def compare(a: Path, b: Path) -> int:
    """Print the verdict on every CSV file of the outputs ``a`` and ``b``,
    then a count of each verdict, over all files and over each algorithm's
    trace and figure files; 1 if any file's outcome changed."""
    names = sorted({path.relative_to(root).as_posix() for root in (a, b) for path in root.rglob("*.csv")})
    verdicts = collections.Counter()
    by_algorithm = {algorithm: collections.Counter() for algorithm in harness.ALGORITHMS}
    for name in names:
        if (a / name).exists() and (b / name).exists():
            verdict, detail = compare_file(a / name, b / name)
        else:
            verdict, detail = "outcome-changed", f"only in {a if (a / name).exists() else b}"
        verdicts[verdict] += 1
        if (algorithm := algorithm_of(name)) is not None:
            by_algorithm[algorithm][verdict] += 1
        print(f"{verdict:15s} {name}" + (f"  {detail}" if detail else ""))

    def tally(counts):
        return ", ".join(f"{counts[v]} {v}" for v in ("byte-identical", "bits-only", "outcome-changed"))

    print(tally(verdicts))
    for algorithm, counts in by_algorithm.items():
        if counts:
            print(f"{algorithm}: {tally(counts)}")
    return 1 if verdicts["outcome-changed"] else 0


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--compare":
        return compare(Path(argv[1]), Path(argv[2]))
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    out = Path(argv[0])
    if out.exists() and any(out.iterdir()):
        print(f"{out} is not empty; its old files would be digested too", file=sys.stderr)
        return 2
    for name, args in {**CLI_SWEEPS, **custom_sweeps(out), "config_file": config_sweep(out)}.items():
        with contextlib.redirect_stdout(io.StringIO()):  # stdout names the output directory
            status = cli.main(["run", *args, "--out", str(out / name)])
        if status != 0:
            print(f"{name}: hetsvrg run exited with {status}", file=sys.stderr)
            return 1
    harness.run_experiment(scale_asd_spec(out / "scale_asd"))
    protocol_calls(out / "protocol_wide")
    lines = sorted(
        f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(out).as_posix()}"
        for path in out.rglob("*.csv")
    )
    (out / "SHA256SUMS").write_text("".join(line + "\n" for line in lines))
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
