"""Optimizer loops over the simulated cluster, plus convergence-factor calculators.

The three optimizers share the trace format, the communication ledger and
one loop (``_vr_loop``); they differ only in a per-algorithm ``draw``, which
picks each inner step's workers, charges the messages that takes and gives
the sampling probabilities.  ``run_sgd`` is the plain baseline with optional
L2: one uniformly drawn worker per step, no anchor.  Uniform, importance-
sampled and adaptive SVRG share the epoch prologue, the anchors and one
direction function (``_direction``).  ``run_svrg`` draws from a
distribution fixed for the whole run (uniform, or proportional to per-shard
smoothness); ``run_asd_svrg`` re-estimates per-worker weights from
subsampled gradient differences at every inner step and samples through the
tree protocol.  ``run_grid`` steps the cells of a step-size grid together,
and a sweep steps every algorithm's cells of one seed in the same loop: each
kind of cell keeps its own ``draw`` for its own cells, and the loop merges
their picks.  The loop is the same, with one cell for a solo run, and only
the per-call glue is batched over cells: the divergence guard's initial
loss and the first epoch's anchor gradients (every cell starts at x0), the
weight estimates of each step, whose subsample draws, row gathers and
anchor residuals are made once per block of steps (one step under
``lemma1``), each segment's sum one stacked product, ASD's tree protocol,
one ``comm.pc_sample_cells`` call a step, the fixed-draw and SGD picks,
drawn for every cell and step of an epoch at once, and each step's guard
and evaluation (``_observe``).  ASD's first step of an epoch starts at the
anchor, where every estimate is 0, so it samples uniformly.

Every random decision is keyed by (seed, channel, epoch, step, worker), so
runs are bit-reproducible and neither other workers nor other cells can
change them.  The anchor, SGD, fixed-draw and tree-protocol channels read
``Generator``s seeded by ``SeedSequence`` of the key, one per key: a batched
draw reads each cell's generator exactly as one call per step would.  The
first three hash each key's ``SeedSequence`` (``sampling._stream``); the
protocol's seed words come from one batched hash per epoch of the keys of
every step of the cells live at its start (``sampling._seed_words``), equal
to it bit for bit.  The weights channel is a counter hash
(``sampling._draw_subsamples``).

The guard and the recorded losses come from the batched forms of
``problem.full_loss`` and ``problem.test_metrics`` (O(p**2) per cell from
cached quadratic forms for linear regression, one mat-vec per cell for
logistic, each cell's product one item of a stacked ``np.matmul``).  They
agree with a row-by-row evaluation to rounding (about 1e-13 relative on the
presets) and are only recorded, never fed back into a step.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from . import comm
from . import problem as prob
from . import sampling


class Diverged(RuntimeError):
    """Train loss blew past the divergence guard; carries the partial trace."""

    def __init__(self, message: str, trace: "RunTrace | None" = None):
        super().__init__(message)
        self.trace = trace


class RateUndefined(ValueError):
    """A convergence-factor denominator is not positive."""


DISTRIBUTION_MODES = ("uniform", "lipschitz_importance", "adaptive")
_DIVERGENCE_FACTOR = 1e6  # the guard trips above this multiple of the train loss at x0

# rng stream channels; combined with (epoch, step, worker) tags
_CH_FIXED_DRAW = 1
_CH_WEIGHTS = 2
_CH_PC = 3
_CH_ANCHOR = 4
_CH_SGD = 5


@dataclass(frozen=True)
class OptimizerConfig:
    """Shared knobs for all optimizer loops.

    ``group_size`` draws per inner step are averaged, so the fixed-sampling
    and adaptive runs compare at equal per-step gradient budgets; group_size=1
    is the textbook single-draw loop.
    """

    eta: float
    epochs: int
    inner_iters: int
    group_size: int = 1
    estimation: sampling.EstimationConfig = field(default_factory=sampling.EstimationConfig)
    distribution_mode: str = "uniform"
    l2_for_sgd: float = 0.0
    seed: int | tuple = 0
    eval_every: int = 1

    def __post_init__(self):
        for name in ("epochs", "inner_iters", "group_size", "eval_every"):  # 1.5 or 2.0 is a ValueError
            object.__setattr__(self, name, comm._count(getattr(self, name), name))
        if not (math.isfinite(self.eta) and self.eta >= 0):
            raise ValueError("eta must be finite and nonnegative")
        if self.epochs < 1 or self.inner_iters < 1 or self.group_size < 1:
            raise ValueError("epochs, inner_iters and group_size must be at least 1")
        if self.distribution_mode not in DISTRIBUTION_MODES:
            raise ValueError(f"distribution_mode must be one of {DISTRIBUTION_MODES}")
        if not 1 <= self.eval_every <= self.inner_iters:
            raise ValueError("eval_every must be between 1 and inner_iters")
        if not (math.isfinite(self.l2_for_sgd) and self.l2_for_sgd >= 0):
            raise ValueError("l2_for_sgd must be finite and nonnegative")
        _seed_tuple(self.seed)  # validates


def _seed_tuple(seed) -> tuple[int, ...]:
    parts = seed if isinstance(seed, (tuple, list)) else (seed,)
    out = tuple(comm._count(v, "seed") for v in parts)
    if any(v < 0 for v in out):
        raise ValueError("seed entries must be nonnegative integers")
    return out


class TraceRow(NamedTuple):
    epoch: int
    step: int
    train_loss: float
    test_loss: float
    test_accuracy: float
    worker_worker: int
    worker_server: int
    server_worker: int
    rounds: int


TRACE_CSV_HEADER = [
    "k",
    "t",
    "train_loss",
    "test_loss",
    "test_acc",
    "ww_scalars",
    "ws_scalars",
    "sw_scalars",
    "rounds",
]
_TRACE_LINE = "%s,%s,%r,%r,%r,%s,%s,%s,%s\r\n"  # (k, t), the metrics exactly, the ledger: csv.writer's line


@dataclass
class RunTrace:
    """Per-evaluation metrics of one optimizer run plus the final parameters."""

    rows: list[TraceRow]
    final_x: np.ndarray
    ledger: comm.CommLedger

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write(",".join(TRACE_CSV_HEADER) + "\r\n" + "".join(_TRACE_LINE % r for r in self.rows))


class _Cell:
    """One run's state: its seed, ledger, iterate and epoch anchor, its trace
    rows and the limit of its divergence guard (both kept by ``_observe``),
    and its outcome once it has one.  ``initial`` is the train loss at
    ``x0``, which the guard scales; ``kind`` names the cell's draw, its
    distribution mode unless it runs SGD."""

    def __init__(self, config, x0, initial: float, kind: str | None = None):
        self.config, self.kind = config, kind or config.distribution_mode
        self.seed = _seed_tuple(config.seed)
        self.ledger = comm.CommLedger()
        self.rows: list[TraceRow] = []
        self.limit = _DIVERGENCE_FACTOR * max(initial, np.finfo(float).tiny)
        self.anchor = self.x = x0
        self.outcome: RunTrace | Diverged | None = None


def _observe(problem, k: int, t: int, cells) -> None:
    """Guard and record step (k, t) of the live ``cells`` in one batched
    evaluation: a cell whose train loss is not finite or exceeds its limit
    gets a ``Diverged`` outcome with its partial trace, and every
    ``eval_every`` steps the others append a ``TraceRow``."""
    kept = []
    for c, train in zip(cells, prob._batch_full_loss(problem, [c.x for c in cells])):
        if math.isfinite(train) and train <= c.limit:
            kept.append((c, train))
        else:
            trace = RunTrace(rows=c.rows, final_x=np.array(c.x), ledger=c.ledger)
            c.outcome = Diverged(f"train loss {train} exceeded the guard at epoch {k}, step {t}", trace=trace)
    if kept and t % cells[0].config.eval_every == 0:
        losses, accs = prob._batch_test_metrics(problem, [c.x for c, _ in kept])
        for (c, train), test_loss, test_acc in zip(kept, losses, accs):
            c.rows.append(TraceRow(k, t, train, test_loss, test_acc, *c.ledger.snapshot()))


def _direction(problem, x, anchor_grads, g_anchor, picks, probs, R: int) -> np.ndarray:
    """Variance-reduced direction of one inner step: the anchor full gradient
    plus the mean over the R draws of (grad F_m(x) - grad F_m(anchor)) /
    (M p_m), where ``picks`` holds each drawn worker m with its multiplicity
    and ``probs[m]`` is its sampling probability p_m."""
    M = problem.m_workers
    step_dir = np.zeros(problem.param_dim)
    for m, mult in picks:
        g_x = prob.shard_gradient(problem, m, x)
        step_dir += mult * (g_x - anchor_grads[m]) / (M * probs[m])
    return step_dir / R + g_anchor


def _vr_loop(problem, configs, x0, sgd=None) -> list:
    """The loop, stepping the cells of ``configs`` (equal but for eta, seed,
    distribution mode and, for SGD, L2) together; ``sgd[i]`` says whether
    config i runs SGD.  Returns each cell's ``RunTrace``, or the ``Diverged``
    with its partial trace.  A cell drops out at the (k, t) where its guard
    trips, and every product of its iterates is its own, so each cell's run
    is bit-identical to its run alone.  Each kind of cell (SGD, or a
    distribution mode) has one draw: ``draw(k, cells)`` returns the epoch's
    ``step(t, live)`` for that kind's live cells, which samples each cell's
    workers, charges the messages that takes and returns per cell the sorted
    (worker, multiplicity) pairs and every worker's sampling probability
    (None for SGD); the kinds' picks are merged in cell order.  The guard
    and evaluation serve every cell, the prologue and anchors the variance-
    reduced ones: an SGD cell steps along its drawn worker's gradient."""
    M, p, first = problem.m_workers, problem.param_dim, configs[0]
    R, T = first.group_size, first.inner_iters
    x0 = np.zeros(p) if x0 is None else prob._check_x(problem, x0).copy()
    initial = prob.full_loss(problem, x0)  # every cell starts at x0
    kinds = [_SGD if s else c.distribution_mode for c, s in zip(configs, sgd or [False] * len(configs))]
    cells = live = [_Cell(config, x0, initial, kind) for config, kind in zip(configs, kinds)]
    draws = {kind: _DRAWS[kind](problem, configs[kinds.index(kind)]) for kind in dict.fromkeys(kinds)}

    for k in range(1, first.epochs + 1):
        at_anchor = {}  # cells whose anchor is one array (every cell's x0 at first) share its gradients
        for c in live:
            if c.kind == _SGD:
                continue
            # prologue: anchor out, shard gradients in, full gradient out
            comm.server_broadcast(c.ledger, p, M)
            comm.server_gather(c.ledger, p, M)
            comm.server_broadcast(c.ledger, p, M)
            if id(c.anchor) not in at_anchor:
                grads = [prob.shard_gradient(problem, m, c.anchor) for m in range(M)]
                at_anchor[id(c.anchor)] = grads, np.mean(grads, axis=0)
            c.anchor_grads, c.g_anchor = at_anchor[id(c.anchor)]
            c.iterates = [c.x]  # x is rebound every step, never written in place
        groups = [(kind, [c for c in live if c.kind == kind]) for kind in draws]
        groups = [(draws[kind](k, mine), mine) for kind, mine in groups if mine]  # (step, its live cells)
        for t in range(1, T + 1):
            drawn = {}
            for step, mine in groups:
                drawn.update(zip(mine, step(t, mine)))
            for c in live:
                picks, probs = drawn[c]
                if c.kind == _SGD:
                    grad = prob.shard_gradient(problem, picks[0][0], c.x) + c.config.l2_for_sgd * c.x
                    c.x = c.x - c.config.eta * grad
                else:
                    c.x = c.x - c.config.eta * _direction(problem, c.x, c.anchor_grads, c.g_anchor, picks, probs, R)
                    if t < T:
                        c.iterates.append(c.x)
                comm.server_gather(c.ledger, p, len(picks))  # payloads back
            _observe(problem, k, t, live)
            live = [c for c in live if c.outcome is None]
            if not live:
                return [c.outcome for c in cells]
            groups = [(step, kept) for step, mine in groups if (kept := [c for c in mine if c.outcome is None])]
        for c in live:
            if c.kind != _SGD:  # the next epoch starts at its anchor
                c.x = c.anchor = c.iterates[int(sampling._stream(c.seed + (_CH_ANCHOR, k)).integers(len(c.iterates)))]

    for c in live:
        c.outcome = RunTrace(rows=c.rows, final_x=c.x, ledger=c.ledger)
    return [c.outcome for c in cells]


def _solo(problem, config, x0, sgd: bool = False) -> RunTrace:
    (outcome,) = _vr_loop(problem, [config], x0, [sgd])
    if isinstance(outcome, Diverged):
        raise outcome
    return outcome


def _picks(draws) -> list:
    """Each row of a (C, R) array of drawn workers as its sorted (worker,
    multiplicity) pairs."""
    return [[(m, len(list(g))) for m, g in itertools.groupby(row)] for row in np.sort(draws, axis=1).tolist()]


def _svrg_draw(problem, config: OptimizerConfig):
    if config.distribution_mode == "uniform":
        dist = sampling.Categorical.uniform(problem.m_workers)
    else:
        dist = sampling.Categorical.from_weights(prob.lipschitz_info(problem).per_shard)
    shape = (config.inner_iters, config.group_size)

    def draw(k, cells):
        # every cell's picks of the epoch at once, (cell, step, slot): each
        # cell's stream gives its steps' uniforms in order, as one call a step would
        u = np.array([sampling._stream(c.seed + (_CH_FIXED_DRAW, k)).random(shape) for c in cells])
        draws, row = sampling._inverse_cdf(dist.probabilities, u), {c: i for i, c in enumerate(cells)}

        def step(t, live):
            picks = _picks(draws[[row[c] for c in live], t - 1])
            for c, mine in zip(live, picks):
                comm.server_broadcast(c.ledger, problem.param_dim, len(mine))  # x_{t-1} to sampled workers
            return [(mine, dist.probabilities) for mine in picks]

        return step

    return draw


def run_svrg(problem, config: OptimizerConfig, x0=None) -> RunTrace:
    """Variance-reduced loop with a distribution fixed for the whole run.

    ``uniform`` picks every worker equally; ``lipschitz_importance`` draws
    proportionally to the per-shard smoothness constants.  Each inner step
    averages ``group_size`` independent draws, and the parameters go to the
    sampled workers only; the epoch anchor is a uniformly random iterate of
    the epoch.
    """
    if config.distribution_mode == "adaptive":
        raise ValueError("run_svrg supports uniform / lipschitz_importance, got 'adaptive'")
    return _solo(problem, config, x0)


_BLOCK_SLOTS = 4096  # subsample slots drawn per call, over a block of steps and the live cells


def _weight_estimator(problem, config: OptimizerConfig, k: int, cells):
    """Epoch k's ``estimate(t, live)``: the (C, M) weight estimates of the
    live cells at their points against their anchors.  Cell c's subsamples
    are keyed by (c.seed, weights channel, k, t), so none depends on another
    worker's or cell's, and sized by ``sampling.subsample_sizes`` (``full``
    reads every row of each shard in place and draws nothing); it answers
    any t, though the loop asks from t = 2 on.  The subsamples of the steps
    ahead come from one draw of at most ``_BLOCK_SLOTS`` slots (or of one
    step, if a step needs more), for the cells live when it is drawn, and
    are drawn again once a cell drops out; ``lemma1`` sizes depend on the
    cells' points, so its blocks are one step long.  A block's key hashes,
    segment layout, rows and their residuals at the anchors are made once,
    when it is drawn (``problem._gather_block``); a step forms r(a'x) on its
    rows and the norm of each (cell, worker) segment's mean difference, its
    sum one product (``problem._segment_sums``; under ``full`` the segments
    are the shards, read in place by every cell): bit for bit the value of
    ``sampling.estimate_shard_weight`` on the same rows.  The rows (and
    ``lemma1``'s full passes) use arrays kept for the epoch."""
    est, T, full = config.estimation, config.inner_iters, config.estimation.subsample_policy == "full"
    prefix = {c: np.uint64(sampling._key_hash(c.seed + (_CH_WEIGHTS, k))) for c in cells}
    buffers = {}
    # the open block: first and end step, cells, (cell, worker) pairs and counts, segment row counts, its rows
    block = (0, 0, 0) + (None,) * 5

    def estimate(t, live):
        nonlocal block
        x, anchor = np.array([c.x for c in live]), np.array([c.anchor for c in live])
        points = (len(live), -1, problem.param_dim) if full else (-1, problem.param_dim)  # (C, M, p) or (S, p)
        if t >= block[1] or len(live) != block[2]:
            sizes = np.array([sampling.subsample_sizes(problem, xc, ac, est, buffers) for xc, ac in zip(x, anchor)])
            cells, workers = np.nonzero(sizes)
            counts = sizes[cells, workers]
            if full:  # every cell takes every row: read them in place, one segment per shard
                steps, rows, segments = T + 1 - t, slice(None), problem.sizes
            else:  # one segment per (cell, worker)
                steps = 1 if est.subsample_policy == "lemma1" else min(
                    T + 1 - t, max(1, _BLOCK_SLOTS // max(1, int(sizes.sum()))))
                at = np.arange(t, t + steps, dtype=np.uint64).repeat(len(live))  # in (step, cell) order
                local = sampling._draw_subsamples(sampling._key_hashes(np.tile([prefix[c] for c in live], steps), at),
                                                  problem.sizes, np.tile(sizes, (steps, 1)))
                rows, segments = local + np.tile(np.repeat(problem.offsets[workers], counts), steps), counts
            block = (t, t + steps, len(live), cells, workers, counts, segments,
                     prob._gather_block(problem, rows, anchor[cells].reshape(points), segments, steps, buffers))
        first, _, _, cells, workers, counts, segments, (A, y, ra) = block
        if not full:  # the step's own rows of the block
            A, y, ra = A[t - first], y[t - first], ra[t - first]
        r = prob._residuals(problem, A, y, x[cells].reshape(points), segments) - ra
        sums = prob._segment_sums(r, A, segments).reshape(-1, problem.param_dim)
        weights = np.zeros((len(live), problem.m_workers))
        weights[cells, workers] = np.linalg.norm(sums / counts[:, None], axis=1)
        return weights

    return estimate


def _asd_draw(problem, config: OptimizerConfig):
    M, R, T = problem.m_workers, config.group_size, config.inner_iters

    def draw(k, cells):
        estimate = _weight_estimator(problem, config, k, cells)
        # the tree protocol's seed words of every cell and step of the epoch,
        # hashed at once: each step's generator is _stream(c.seed + (_CH_PC, k, t))'s
        words = sampling._seed_words([c.seed + (_CH_PC, k) for c in cells], np.arange(1, T + 1, dtype=np.uint64))
        column = {c: i for i, c in enumerate(cells)}

        def step(t, live):
            for c in live:
                comm.server_broadcast(c.ledger, problem.param_dim, M)  # x_{t-1} to every worker
            # at t = 1 every cell stands at its anchor, where every estimate is exactly 0
            weights = estimate(t, live) if t > 1 else np.zeros((len(live), M))
            totals = np.cumsum(weights, axis=1)[:, -1]  # each cell's left-to-right sum
            flat = totals <= 0.0
            weights[flat], totals[flat] = 1.0, M  # degenerate estimates: uniform fallback
            streams = [sampling._seeded(words[t - 1, column[c]]) for c in live]
            draws = comm.pc_sample_cells(weights, R, [c.ledger for c in live], streams)
            picks = _picks(draws)
            for c, mine in zip(live, picks):
                comm.server_gather(c.ledger, R, 1)  # histogram to the server
                comm.server_broadcast(c.ledger, 1, len(mine))  # weight normaliser out
            return list(zip(picks, weights / totals[:, None]))

        return step

    return draw


def run_asd_svrg(problem, config: OptimizerConfig, x0=None) -> RunTrace:
    """Adaptive-sampling distributed SVRG.

    Every inner step: each worker estimates the norm of its subsampled
    gradient difference against the epoch anchor, the tree protocol samples
    ``group_size`` workers proportionally to those estimates, and the sampled
    workers' variance-reduced directions are averaged into the update.  When
    every estimate is zero the step falls back to uniform weights, so the
    first step of an epoch, which starts exactly at the anchor, skips them.

    Beyond the protocol's own cost, the ledger is charged for: the per-step
    parameter broadcast, the histogram reaching the server (R scalars), the
    weight normaliser reaching each sampled worker (1 scalar each), and each
    sampled worker returning a parameter-sized payload.
    """
    if config.distribution_mode != "adaptive":
        raise ValueError("run_asd_svrg requires distribution_mode='adaptive'")
    return _solo(problem, config, x0)


def run_grid(problem, configs, x0=None) -> list[tuple[RunTrace, bool]]:
    """``run_asd_svrg`` (adaptive mode) or ``run_svrg`` for every config of
    the list, all stepped together in one loop; returns (trace, diverged)
    per config, in order, each bit-identical to the solo run's, a diverged
    cell's trace partial.  The configs may differ in eta, seed and
    ``distribution_mode``, and in nothing else, else ``ValueError``."""
    if not configs or len({replace(c, eta=0.0, seed=0, distribution_mode="uniform") for c in configs}) != 1:
        raise ValueError("run_grid needs one or more configs that differ only in eta and seed "
                         "(and distribution_mode)")
    return _grid(problem, configs, x0)


def _grid(problem, configs, x0, sgd=None) -> list[tuple[RunTrace, bool]]:
    """(trace, diverged) of every cell of one ``_vr_loop`` call, in order."""
    return [(o.trace, True) if isinstance(o, Diverged) else (o, False) for o in _vr_loop(problem, configs, x0, sgd)]


def _sgd_draw(problem, config: OptimizerConfig):
    M, p, T = problem.m_workers, problem.param_dim, config.inner_iters

    def draw(k, cells):
        # each cell's workers of the epoch at once: the same draws as one call a step
        workers = {c: sampling._stream(c.seed + (_CH_SGD, k)).integers(M, size=T).tolist() for c in cells}

        def step(t, live):
            for c in live:
                comm.server_broadcast(c.ledger, p, 1)  # x_{t-1} to the drawn worker
            return [([(workers[c][t - 1], 1)], None) for c in live]

        return step

    return draw


def run_sgd(problem, config: OptimizerConfig, x0=None) -> RunTrace:
    """Constant-step SGD over uniformly drawn workers, with optional L2 on the
    update (never on the recorded loss).  Traced on the same (epoch, step)
    grid as the variance-reduced runs for comparability."""
    return _solo(problem, config, x0, sgd=True)


_SGD = "sgd"  # the kind of an SGD cell, beside the distribution modes
_DRAWS = {_SGD: _sgd_draw, "uniform": _svrg_draw, "lipschitz_importance": _svrg_draw, "adaptive": _asd_draw}


RATE_KINDS = ("svrg_uniform", "svrg_importance", "asd_main", "asd_lemma4", "asd_appendix")


@dataclass(frozen=True)
class RateParams:
    """Inputs to the per-epoch contraction-factor formulas.

    ``l_max`` is only consumed by the uniform-sampling rate, ``tau`` only by
    the main adaptive rate; the contraction bounds a convergent run only when
    the returned value is below 1.
    """

    lam: float
    l_bar: float
    eta: float
    T: int
    R: int = 1
    tau: float | None = None
    l_max: float | None = None

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.lam, self.l_bar, self.eta, self.tau, self.l_max) if v is not None):
            raise ValueError("lam, l_bar, eta, tau and l_max must be finite")
        if self.lam <= 0 or self.l_bar <= 0 or self.eta <= 0:
            raise ValueError("lam, l_bar and eta must be positive")
        if self.T < 1 or self.R < 1:
            raise ValueError("T and R must be at least 1")


def theoretical_rate(kind: str, params: RateParams) -> float:
    """Per-epoch contraction factor rho for the requested analysis.

    ``svrg_uniform`` / ``svrg_importance`` are the fixed-sampling rates driven
    by the max / mean smoothness constant.  The three adaptive variants share
    one template with per-group coefficient c in {2, 2 + 5*tau, 8}:
    rho = 1 / (lam * T * eta * (1 - eta*(1 + c/R)*Lbar))
          + eta * (c/R) * Lbar / (1 - eta*(1 + c/R)*Lbar).
    Raises RateUndefined whenever the shared denominator is not positive.
    """
    if kind not in RATE_KINDS:
        raise ValueError(f"kind must be one of {RATE_KINDS}")
    lam, eta, T = params.lam, params.eta, params.T

    if kind in ("svrg_uniform", "svrg_importance"):
        if kind == "svrg_uniform":
            if params.l_max is None or params.l_max <= 0:
                raise ValueError("svrg_uniform needs a positive l_max")
            L = params.l_max
        else:
            L = params.l_bar
        denom = 1.0 - 2.0 * eta * L
        if denom <= 0:
            raise RateUndefined(f"1 - 2*eta*L = {denom} is not positive")
        return 1.0 / (lam * eta * T * denom) + 2.0 * eta * L / denom

    if kind == "asd_main":
        if params.tau is None or params.tau < 0:
            raise ValueError("asd_main needs a nonnegative tau")
        coef = (2.0 + 5.0 * params.tau) / params.R
    elif kind == "asd_lemma4":
        coef = 2.0 / params.R
    else:
        coef = 8.0 / params.R
    denom = 1.0 - eta * (1.0 + coef) * params.l_bar
    if denom <= 0:
        raise RateUndefined(f"1 - eta*(1 + c/R)*Lbar = {denom} is not positive")
    return 1.0 / (lam * T * eta * denom) + eta * coef * params.l_bar / denom
