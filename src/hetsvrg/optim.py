"""Optimizer loops over the simulated cluster, plus convergence-factor calculators.

The three optimizers share the trace format, the communication ledger and
one loop (``_vr_loop``); they differ only in their distribution mode's
``draw``, which picks each inner step's workers, charges the messages that
takes and gives the sampling probabilities.  ``run_sgd`` (mode ``sgd``) is
the plain baseline with optional L2: one uniformly drawn worker per step, no
anchor.  Uniform, importance-sampled and adaptive SVRG share the epoch
prologue, the anchors and one direction function (``_direction``).
``run_svrg`` draws from a distribution fixed for the whole run (uniform, or
proportional to per-shard smoothness); ``run_asd_svrg`` re-estimates
per-worker weights from subsampled gradient differences at every inner step
and samples through the tree protocol.  ``run_grid`` steps the cells of a
step-size grid together, and a sweep steps every algorithm's cells of one
seed in the same ``run_grid`` call: each mode keeps its own ``draw`` for its
own cells, and the loop merges their picks.  The loop is the same, with one
cell for a solo run, and only the per-call glue is batched over cells: the
divergence guard's initial loss and the first epoch's anchor gradients
(every cell starts at x0), the weight estimates of each step, whose
subsamples are drawn once per draw block of up to ``_DRAW_SLOTS`` slots
(their sizes hold for the run; where each is its whole shard, its rows are
read in place and nothing is drawn), whose row gathers and anchor
residuals are made once per gather block of up to
``_BLOCK_SLOTS`` slots inside it, each segment's sum one stacked product,
ASD's tree protocol, one ``comm.pc_sample_cells`` call a step, the
fixed-draw and SGD picks, drawn for every cell and step of an epoch at once,
and each step's gradients (one ``problem._shard_gradients`` call, stacked
up to ``_STACKED_SHARD`` rows x params, where stacking stops paying in
measured calls), directions and updates (``_direction``) and guard and
evaluation (``_observe``).  ASD's first step
of an epoch starts at the anchor, where every estimate is 0, so it samples
uniformly.

Every random decision is keyed by (seed, channel, epoch), and the weights
channel's also by step and worker, so runs are bit-reproducible and neither
other workers nor other cells can change them.  The anchor, SGD, fixed-draw
and tree-protocol channels read one ``Generator`` per (cell, epoch), seeded
by ``SeedSequence`` of its key (``sampling._stream``), in step order: a
batched draw reads each cell's generator exactly as one call per step would,
and the protocol's ``comm.pc_sample_cells`` call of a step reads it as that
cell's ``pc_sample`` call would.  The weights channel is a counter hash
(``sampling._draw_subsamples``).

The guard and the recorded losses come from the batched forms of
``problem.full_loss`` and ``problem.test_metrics`` (O(p**2) per cell from
cached quadratic forms for linear regression, one mat-vec per cell for
logistic, each cell's product one item of a stacked ``np.matmul``).  They
agree with a row-by-row evaluation to rounding (about 1e-13 relative on the
presets) and are only recorded, never fed back into a step.
"""

from __future__ import annotations

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


DISTRIBUTION_MODES = ("uniform", "lipschitz_importance", "adaptive", "sgd")
_DIVERGENCE_FACTOR = 1e6  # the guard trips above this multiple of the train loss at x0

# rng stream channels; combined with an epoch tag, and the weights channel's also with (step, worker)
_CH_FIXED_DRAW = 1
_CH_WEIGHTS = 2
_CH_PC = 3
_CH_ANCHOR = 4
_CH_SGD = 5


@dataclass(frozen=True)
class OptimizerConfig:
    """Shared knobs for all optimizer loops.

    ``distribution_mode`` names a cell's draw; only ``sgd`` reads
    ``l2_for_sgd``.  ``group_size`` draws per inner step are averaged, so the
    fixed-sampling and adaptive runs compare at equal per-step gradient
    budgets; group_size=1 is the textbook single-draw loop.
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
    ``x0``, which the guard scales; the config's distribution mode names the
    cell's draw."""

    def __init__(self, config, x0, initial: float):
        self.config = config
        self.seed = _seed_tuple(config.seed)
        self.ledger = comm.CommLedger()
        self.rows: list[TraceRow] = []
        self.limit = _DIVERGENCE_FACTOR * max(initial, np.finfo(float).tiny)
        self.anchor = self.x = x0
        self.anchor_at = None  # its anchor's row of the epoch's anchor gradients, unless sgd
        self.outcome: RunTrace | Diverged | None = None


def _observe(problem, k: int, t: int, cells, X) -> None:
    """Guard and record step (k, t) of the live ``cells`` at their iterates
    ``X`` in one batched evaluation: a cell whose train loss is not finite
    or exceeds its limit gets a ``Diverged`` outcome with its partial trace,
    and every ``eval_every`` steps the others append a ``TraceRow``."""
    kept = []
    for i, (c, train) in enumerate(zip(cells, prob._batch_full_loss(problem, X))):
        if math.isfinite(train) and train <= c.limit:
            kept.append((i, c, train))
        else:
            trace = RunTrace(rows=c.rows, final_x=np.array(c.x), ledger=c.ledger)
            c.outcome = Diverged(f"train loss {train} exceeded the guard at epoch {k}, step {t}", trace=trace)
    if kept and t % cells[0].config.eval_every == 0:
        losses, accs = prob._batch_test_metrics(problem, X[[i for i, _, _ in kept]])
        for (_, c, train), test_loss, test_acc in zip(kept, losses, accs):
            c.rows.append(TraceRow(k, t, train, test_loss, test_acc, *c.ledger.snapshot()))


def _direction(problem, X, draws, probs, anchors, anchor_grads, g_anchor, sgd=np.empty(0, int), l2=0.0, out=None):
    """One inner step's directions at the iterates ``X``: first the V
    variance-reduced cells', cell c's ``g_anchor[c]`` plus the mean over its
    R draws ``draws[c]`` (ascending) of (grad F_m(X[c]) -
    ``anchor_grads[anchors[c], m]``) / (M ``probs[c, m]``), then the ``sgd``
    cells', worker ``sgd[i]``'s gradient plus ``l2[i] X[V + i]``, all
    gradients from one ``problem._shard_gradients`` call (``out`` keeps its
    buffers).  A sum starts at 0 and adds a term per distinct worker in
    order, its multiplicity one factor (a repeat's slot adds 0, which moves
    no bit), so each row has the bits of its cell alone."""
    (V, R), M = draws.shape, problem.m_workers
    first = np.ones((V, R), bool)
    first[:, 1:] = draws[:, 1:] != draws[:, :-1]  # each distinct worker's first slot
    cells, ranks = np.nonzero(first)
    workers, K = draws[cells, ranks], len(cells)
    rows = np.concatenate([cells, np.arange(V, len(X))])  # each pick's cell
    G = prob._shard_gradients(problem, np.concatenate([workers, sgd]), X[rows], out)
    mult = (draws[cells] == workers[:, None]).sum(1, keepdims=True)
    terms = np.zeros((V, R, problem.param_dim))
    terms[cells, ranks] = mult * (G[:K] - anchor_grads[anchors[cells], workers]) / (M * probs[cells, workers])[:, None]
    total = 0.0 + terms[:, 0]
    for j in range(1, R):
        total += terms[:, j]
    return np.concatenate([total / R + g_anchor, G[K:] + l2 * X[V:]])


def _vr_loop(problem, configs, x0) -> list:
    """The loop, stepping the cells of ``configs`` (equal but for eta, seed,
    distribution mode and, for ``sgd`` cells, L2) together.  Returns each
    cell's ``RunTrace``, or the ``Diverged`` with its partial trace.  A cell
    drops out at the (k, t) where its guard trips, and every product of its
    iterates is its own, so each cell's run is bit-identical to its run
    alone.  Each distribution mode has one draw: ``draw(k, cells)`` returns
    the epoch's ``step(t, live)`` for that mode's live cells, which samples
    each cell's workers, charges the messages that takes (payloads back
    too) and returns them, a (C, R) array ascending along each row, and
    every worker's sampling probability, (C, M); ``sgd``'s returns a worker
    per cell and None.  The guard and evaluation serve every cell, the
    prologue and anchors the variance-reduced ones: an ``sgd`` cell steps
    along its drawn worker's gradient."""
    M, p, first = problem.m_workers, problem.param_dim, configs[0]
    R, T = first.group_size, first.inner_iters
    x0 = np.zeros(p) if x0 is None else prob._check_x(problem, x0).copy()
    if not np.isfinite(x0).all():  # else every cell would spend the prologue and a step on it, then diverge
        raise ValueError("x0 must be finite")
    initial = prob.full_loss(problem, x0)  # every cell starts at x0
    modes = [c.distribution_mode for c in configs]
    cells = live = [_Cell(config, x0, initial) for config in configs]
    # one draw per mode, in DISTRIBUTION_MODES' order: sgd's last, as _direction takes its cells
    draws = {mode: _DRAWS[mode](problem, configs[modes.index(mode)]) for mode in DISTRIBUTION_MODES if mode in modes}

    buffers = {}  # the steps' gathered shards (problem._shard_gradients)
    for k in range(1, first.epochs + 1):
        anchors = {}  # the cells' distinct anchor arrays (every cell's x0 at first), whose gradients they share
        for c in live:
            if c.config.distribution_mode == "sgd":
                continue
            # prologue: anchor out, shard gradients in, full gradient out
            comm.server_broadcast(c.ledger, p, M)
            comm.server_gather(c.ledger, p, M)
            comm.server_broadcast(c.ledger, p, M)
            c.anchor_at = anchors.setdefault(id(c.anchor), (len(anchors), c.anchor))[0]
            c.iterates = [c.x]  # x is rebound every step, never written in place
        anchor_grads = np.array([[prob.shard_gradient(problem, m, a) for m in range(M)]
                                 for _, a in anchors.values()]).reshape(-1, M, p)  # (anchors, M, p), even 0
        g_anchors = np.array([np.mean(g, axis=0) for g in anchor_grads]).reshape(-1, p)
        groups = [(mode, [c for c in live if c.config.distribution_mode == mode]) for mode in draws]
        groups = [(draws[mode](k, mine), mine) for mode, mine in groups if mine]  # (step, its live cells)
        live = [c for _, mine in groups for c in mine]  # in the groups' order, so the steps' draws are in cell order
        X, dropped = np.array([c.x for c in live]), True  # the live cells' iterates, one row each
        for t in range(1, T + 1):
            if dropped:  # the live cells' step sizes, anchors and L2s, the variance-reduced cells first
                V = sum(c.anchor_at is not None for c in live)
                at = np.array([c.anchor_at for c in live[:V]], int)
                eta, g_anchor = np.array([c.config.eta for c in live])[:, None], g_anchors[at]
                l2 = np.array([c.config.l2_for_sgd for c in live[V:]])[:, None]
            drawn = [step(t, mine) for step, mine in groups]
            sgd = drawn.pop()[0] if V < len(live) else np.empty(0, int)
            picks, probs = map(np.concatenate, zip(*drawn)) if V else (np.empty((0, R), int), np.empty((0, M)))
            X = X - eta * _direction(problem, X, picks, probs, at, anchor_grads, g_anchor, sgd, l2, buffers)
            for c, x in zip(live, X):
                c.x = x
                if t < T and c.anchor_at is not None:
                    c.iterates.append(x)
            _observe(problem, k, t, live, X)
            if dropped := any(c.outcome is not None for c in live):
                X = X[[c.outcome is None for c in live]]
                live = [c for c in live if c.outcome is None]
                if not live:
                    return [c.outcome for c in cells]
                groups = [(step, kept) for step, mine in groups if (kept := [c for c in mine if c.outcome is None])]
        for c in live:
            if c.config.distribution_mode != "sgd":  # the next epoch starts at its anchor
                c.x = c.anchor = c.iterates[int(sampling._stream(c.seed + (_CH_ANCHOR, k)).integers(len(c.iterates)))]

    for c in live:
        c.outcome = RunTrace(rows=c.rows, final_x=c.x, ledger=c.ledger)
    return [c.outcome for c in cells]


def _solo(problem, config, x0) -> RunTrace:
    (outcome,) = _vr_loop(problem, [config], x0)
    if isinstance(outcome, Diverged):
        raise outcome
    return outcome


def _sorted(draws):
    """The drawn workers sorted along the last axis, and the number of
    distinct workers in each row."""
    draws = np.sort(draws, axis=-1)
    return draws, 1 + (draws[..., 1:] != draws[..., :-1]).sum(-1)


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
        draws, counts = _sorted(sampling._inverse_cdf(dist.probabilities, u))
        row = {c: i for i, c in enumerate(cells)}
        probs = np.broadcast_to(dist.probabilities, (len(cells), problem.m_workers))  # one row per cell

        def step(t, live):
            rows = [row[c] for c in live]
            for c, n in zip(live, counts[rows, t - 1].tolist()):
                comm.server_broadcast(c.ledger, problem.param_dim, n)  # x_{t-1} to the sampled workers
                comm.server_gather(c.ledger, problem.param_dim, n)  # their payloads back
            return draws[rows, t - 1], probs[: len(live)]

        return step

    return draw


def run_svrg(problem, config: OptimizerConfig, x0=None) -> RunTrace:
    """Variance-reduced loop with a distribution fixed for the whole run.

    ``uniform`` picks every worker equally; ``lipschitz_importance`` draws
    proportionally to the per-shard smoothness constants.  Each inner step
    averages ``group_size`` independent draws, and the parameters go to the
    sampled workers only; the epoch anchor is a uniformly random iterate of
    the epoch.  Modes ``adaptive`` and ``sgd`` are a ``ValueError``.
    """
    if config.distribution_mode in ("adaptive", "sgd"):
        raise ValueError(f"run_svrg supports uniform / lipschitz_importance, got {config.distribution_mode!r}")
    return _solo(problem, config, x0)


_BLOCK_SLOTS = 4096  # subsample slots gathered per block of steps, over the live cells
_DRAW_SLOTS = 16384  # ``fixed`` subsample slots drawn per call, over the blocks of the steps ahead (see README)


def _weight_estimator(problem, config: OptimizerConfig, k: int, cells):
    """Epoch k's ``estimate(t, live)``: the (C, M) weight estimates of the
    live cells at their points against their anchors.  Cell c's subsamples
    are keyed by (c.seed, weights channel, k, t), so none depends on another
    worker's or cell's, and sized by ``sampling.subsample_sizes``, the same
    for every cell and step and at least 1 a worker; when every size is its
    whole shard, every cell reads every row in place and nothing is drawn.
    It answers any t, though the loop asks from t = 2 on.  Two blocks run
    over the steps ahead, for the cells live when they open.  A draw block
    holds the subsamples of at most ``_DRAW_SLOTS`` slots (or of one step,
    if a step needs more), all from one ``sampling._draw_subsamples`` call
    on keys hashed in one array op, as (steps, cells, slots) rows; a cell
    that drops out leaves the others' rows in it.  A gather block, of at
    most ``_BLOCK_SLOTS`` slots and never past its draw block, takes its
    steps' rows of the live cells from that draw, and opens again once a
    cell drops out: their rows and residuals at the anchors are made once,
    when it opens (``problem._gather_block``).  A step forms r(a'x) on its
    rows and the norm of each (cell, worker) segment's mean difference, its
    sum one product (``problem._segment_sums``): bit for bit the value of
    ``sampling.estimate_shard_weight`` on the same rows.  The rows use
    arrays kept for the epoch."""
    T, M, p = config.inner_iters, problem.m_workers, problem.param_dim
    sizes = sampling.subsample_sizes(problem.sizes, config.estimation)
    whole = (sizes == problem.sizes).all()
    offsets = np.repeat(problem.offsets[:-1], sizes)  # each of a cell's slots' shard offset
    prefix = {c: np.uint64(sampling._key_hash(c.seed + (_CH_WEIGHTS, k))) for c in cells}
    buffers = {}
    block = (0, 0, 0, None)  # the open gather block: first and end step, cells, rows
    drawn = (0, 0, None, None)  # the open draw block: first and end step, each cell's column, its (step, cell) rows

    def draw(t, steps, live):
        at = np.arange(t, t + steps, dtype=np.uint64).repeat(len(live))  # in (step, cell) order
        hashes = sampling._key_hashes(np.tile([prefix[c] for c in live], steps), at)
        rows = sampling._draw_subsamples(hashes, problem.sizes, np.tile(sizes, (len(hashes), 1)))
        return rows.reshape(steps, len(live), -1)

    def estimate(t, live):
        nonlocal block, drawn
        if t >= block[1] or len(live) != block[2]:
            anchor = np.repeat([c.anchor for c in live], M, axis=0).reshape(len(live), M, p)
            if whole:  # the segments are the shards, each read by every cell
                steps, rows = T + 1 - t, slice(None)
            else:
                slots = int(sizes.sum()) * len(live)
                if t >= drawn[1]:
                    ahead = min(T + 1 - t, max(1, _DRAW_SLOTS // slots))
                    drawn = (t, t + ahead, {c: i for i, c in enumerate(live)}, draw(t, ahead, live))
                steps = min(drawn[1] - t, max(1, _BLOCK_SLOTS // slots))
                rows = (drawn[3][t - drawn[0] : t + steps - drawn[0], [drawn[2][c] for c in live]] + offsets).ravel()
            block = (t, t + steps, len(live), prob._gather_block(problem, rows, anchor, sizes, steps, buffers))
        first, _, _, (A, y, ra) = block
        if not whole:  # the step's own rows of the block
            A, y, ra = A[t - first], y[t - first], ra[t - first]
        x = np.repeat([c.x for c in live], M, axis=0).reshape(len(live), M, p)
        r = prob._residuals(problem, A, y, x, sizes) - ra
        return np.linalg.norm(prob._segment_sums(r, A, sizes) / sizes[:, None], axis=-1)

    return estimate


def _asd_draw(problem, config: OptimizerConfig):
    M, R = problem.m_workers, config.group_size

    def draw(k, cells):
        estimate = _weight_estimator(problem, config, k, cells)
        # one tree-protocol generator per cell and epoch, read at each step
        # as successive pc_sample calls would read it
        streams = {c: sampling._stream(c.seed + (_CH_PC, k)) for c in cells}

        def step(t, live):
            for c in live:
                comm.server_broadcast(c.ledger, problem.param_dim, M)  # x_{t-1} to every worker
            # at t = 1 every cell stands at its anchor, where every estimate is exactly 0
            weights = estimate(t, live) if t > 1 else np.zeros((len(live), M))
            totals = np.cumsum(weights, axis=1)[:, -1]  # each cell's left-to-right sum
            flat = totals <= 0.0
            weights[flat], totals[flat] = 1.0, M  # degenerate estimates: uniform fallback
            draws = comm.pc_sample_cells(weights, R, [c.ledger for c in live], [streams[c] for c in live])
            draws, counts = _sorted(draws)
            for c, n in zip(live, counts.tolist()):
                comm.server_gather(c.ledger, R, 1)  # histogram to the server
                comm.server_broadcast(c.ledger, 1, n)  # weight normaliser out
                comm.server_gather(c.ledger, problem.param_dim, n)  # the sampled workers' payloads back
            return draws, weights / totals[:, None]

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
    """The solo run of its mode (``run_sgd``, ``run_svrg`` or
    ``run_asd_svrg``) for every config of the list, all stepped together in
    one loop; returns (trace, diverged) per config, in order, each
    bit-identical to the solo run's, a diverged cell's trace partial.  The
    configs may differ in eta, seed and ``distribution_mode``, and in
    nothing else (``l2_for_sgd`` included), else ``ValueError``."""
    if not configs or len({replace(c, eta=0.0, seed=0, distribution_mode="uniform") for c in configs}) != 1:
        raise ValueError("run_grid needs one or more configs that differ only in eta and seed "
                         "(and distribution_mode)")
    return [(o.trace, True) if isinstance(o, Diverged) else (o, False) for o in _vr_loop(problem, configs, x0)]


def _sgd_draw(problem, config: OptimizerConfig):
    M, p, T = problem.m_workers, problem.param_dim, config.inner_iters

    def draw(k, cells):
        # each cell's workers of the epoch at once: the same draws as one call a step
        workers = np.array([sampling._stream(c.seed + (_CH_SGD, k)).integers(M, size=T) for c in cells])
        row = {c: i for i, c in enumerate(cells)}

        def step(t, live):
            for c in live:
                comm.server_broadcast(c.ledger, p, 1)  # x_{t-1} to the drawn worker
                comm.server_gather(c.ledger, p, 1)  # its payload back
            return workers[[row[c] for c in live], t - 1], None

        return step

    return draw


def run_sgd(problem, config: OptimizerConfig, x0=None) -> RunTrace:
    """Constant-step SGD over uniformly drawn workers, with optional L2 on the
    update (never on the recorded loss).  Traced on the same (epoch, step)
    grid as the variance-reduced runs for comparability.  Runs mode ``sgd``
    whatever the config's mode, so every mode gives the same run."""
    return _solo(problem, replace(config, distribution_mode="sgd"), x0)


_DRAWS = {"uniform": _svrg_draw, "lipschitz_importance": _svrg_draw, "adaptive": _asd_draw, "sgd": _sgd_draw}


RATE_KINDS = ("svrg_uniform", "svrg_importance", "asd_main", "asd_lemma4", "asd_appendix")


@dataclass(frozen=True)
class RateParams:
    """Inputs to the per-epoch contraction-factor formulas.

    ``l_max`` is only consumed by the uniform-sampling rate, ``tau`` only by
    the main adaptive rate; the contraction bounds a convergent run only when
    the returned value is below 1.  ``T`` and ``R`` are stored as ``int``;
    1.5 or 100.0 is a ``ValueError``.
    """

    lam: float
    l_bar: float
    eta: float
    T: int
    R: int = 1
    tau: float | None = None
    l_max: float | None = None

    def __post_init__(self):
        for name in ("T", "R"):
            object.__setattr__(self, name, comm._count(getattr(self, name), name))
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
