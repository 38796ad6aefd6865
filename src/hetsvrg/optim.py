"""Optimizer loops over the simulated cluster, plus convergence-factor calculators.

All three optimizers share the trace format and the communication ledger.
``run_svrg`` samples workers from a distribution fixed for the whole run
(uniform, or proportional to per-shard smoothness); ``run_asd_svrg``
re-estimates per-worker weights from subsampled gradient differences at every
inner step and samples through the tree protocol; ``run_sgd`` is the plain
baseline with optional L2.

Every random decision draws from a stream keyed by (seed, channel, epoch,
step, worker), so runs are bit-reproducible and per-worker work could be
executed concurrently without changing results.

The adaptive step computes all workers' weight estimates in one batched pass
over the problem's stacked rows (``sampling.estimate_weights``), and the
divergence guard evaluates the loss in one mat-vec (``problem.full_loss``).
Batching keeps every stream and every draw: worker m's subsample is still
keyed by (seed, weights channel, k, t, m) and is exactly the one
``sampling.estimate_shard_weight`` draws from that stream.  The workers'
stream states are derived together in one batched pass
(``sampling._draw_subsamples``) instead of building a Generator per worker.
Only the order of float sums differs from a worker-by-worker evaluation, so
weights and losses agree with it to rounding (about 1e-13 relative on the
presets).
"""

from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass, field

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
ANCHOR_RULES = ("uniform_random", "last_iterate")

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
    anchor_rule: str = "uniform_random"
    eval_every: int = 1
    divergence_factor: float = 1e6

    def __post_init__(self):
        if self.eta < 0:
            raise ValueError("eta must be nonnegative")
        if self.epochs < 1 or self.inner_iters < 1 or self.group_size < 1:
            raise ValueError("epochs, inner_iters and group_size must be at least 1")
        if self.distribution_mode not in DISTRIBUTION_MODES:
            raise ValueError(f"distribution_mode must be one of {DISTRIBUTION_MODES}")
        if self.anchor_rule not in ANCHOR_RULES:
            raise ValueError(f"anchor_rule must be one of {ANCHOR_RULES}")
        if self.eval_every < 1:
            raise ValueError("eval_every must be at least 1")
        if self.l2_for_sgd < 0:
            raise ValueError("l2_for_sgd must be nonnegative")
        _seed_tuple(self.seed)  # validates


def _seed_tuple(seed) -> tuple[int, ...]:
    parts = seed if isinstance(seed, (tuple, list)) else (seed,)
    out = tuple(int(v) for v in parts)
    if any(v < 0 for v in out):
        raise ValueError("seed entries must be nonnegative integers")
    return out


def _stream(seed_parts: tuple[int, ...], *tags: int) -> np.random.Generator:
    """The generator of ``SeedSequence(seed_parts + tags)``."""
    return sampling._stream(seed_parts + tags)


@dataclass(frozen=True)
class TraceRow:
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


@dataclass
class RunTrace:
    """Per-evaluation metrics of one optimizer run plus the final parameters."""

    rows: list[TraceRow]
    final_x: np.ndarray
    ledger: comm.CommLedger

    def final_train_loss(self) -> float:
        return self.rows[-1].train_loss if self.rows else float("nan")

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(TRACE_CSV_HEADER)
            for r in self.rows:
                writer.writerow(
                    [
                        r.epoch,
                        r.step,
                        repr(r.train_loss),
                        repr(r.test_loss),
                        repr(r.test_accuracy),
                        r.worker_worker,
                        r.worker_server,
                        r.server_worker,
                        r.rounds,
                    ]
                )


class _Recorder:
    """Loss bookkeeping shared by the optimizer loops: evaluation cadence,
    trace rows, and the divergence guard (checked every step)."""

    def __init__(self, problem, ledger, config, x0):
        self.problem = problem
        self.ledger = ledger
        self.config = config
        self.rows: list[TraceRow] = []
        initial = prob.full_loss(problem, x0)
        self.limit = config.divergence_factor * max(initial, np.finfo(float).tiny)

    def observe(self, k: int, t: int, x: np.ndarray) -> None:
        train = prob.full_loss(self.problem, x)
        if not np.isfinite(train) or train > self.limit:
            raise Diverged(
                f"train loss {train} exceeded the guard at epoch {k}, step {t}",
                trace=self._trace(x),
            )
        if t % self.config.eval_every == 0:
            test_loss, test_acc = prob.test_metrics(self.problem, x)
            ww, ws, sw, rounds = self.ledger.snapshot()
            self.rows.append(TraceRow(k, t, train, test_loss, test_acc, ww, ws, sw, rounds))

    def _trace(self, x) -> RunTrace:
        return RunTrace(rows=self.rows, final_x=np.array(x), ledger=self.ledger)


def vr_direction(problem, m: int, x, x_anchor, anchor_full_grad, p_m: float) -> np.ndarray:
    """Variance-reduced direction for worker m under sampling probability p_m:
    (grad F_m(x) - grad F_m(anchor)) / (M p_m) + anchor full gradient."""
    if p_m <= 0:
        raise ValueError(f"sampling probability must be positive, got {p_m}")
    g_x = prob.shard_gradient(problem, m, x)
    g_a = prob.shard_gradient(problem, m, x_anchor)
    return (g_x - g_a) / (problem.m_workers * p_m) + np.asarray(anchor_full_grad, dtype=float)


def _initial_x(problem, x0) -> np.ndarray:
    if x0 is None:
        return np.zeros(problem.param_dim)
    x0 = np.asarray(x0, dtype=float).ravel()
    if x0.shape[0] != problem.param_dim:
        raise ValueError(f"x0 has length {x0.shape[0]}, expected {problem.param_dim}")
    return x0.copy()


def _epoch_anchor_setup(problem, anchor, ledger):
    """Epoch prologue: anchor out, shard gradients in, full gradient out."""
    p = problem.param_dim
    comm.server_broadcast(ledger, p, problem.m_workers)
    comm.server_gather(ledger, p, problem.m_workers)
    comm.server_broadcast(ledger, p, problem.m_workers)
    anchor_grads = [prob.shard_gradient(problem, m, anchor) for m in range(problem.m_workers)]
    g_anchor = np.mean(anchor_grads, axis=0)
    return anchor_grads, g_anchor


def _pick_anchor(iterates, x_last, rule, rng) -> np.ndarray:
    if rule == "last_iterate":
        return x_last
    return iterates[int(rng.integers(len(iterates)))]


def run_svrg(problem, config: OptimizerConfig, distribution_mode: str | None = None, x0=None) -> RunTrace:
    """Variance-reduced loop with a distribution fixed for the whole run.

    ``uniform`` picks every worker equally; ``lipschitz_importance`` draws
    proportionally to the per-shard smoothness constants.  Each inner step
    averages ``group_size`` independent draws; the epoch anchor is a uniformly
    random iterate of the epoch unless configured otherwise.
    """
    mode = distribution_mode if distribution_mode is not None else config.distribution_mode
    if mode not in ("uniform", "lipschitz_importance"):
        raise ValueError(f"run_svrg supports uniform / lipschitz_importance, got {mode!r}")
    if mode == "uniform":
        dist = sampling.Categorical.uniform(problem.m_workers)
    else:
        dist = sampling.Categorical.from_weights(prob.lipschitz_info(problem).per_shard)

    seed = _seed_tuple(config.seed)
    M, p = problem.m_workers, problem.param_dim
    R = config.group_size
    ledger = comm.CommLedger()
    anchor = _initial_x(problem, x0)
    recorder = _Recorder(problem, ledger, config, anchor)

    for k in range(1, config.epochs + 1):
        anchor_grads, g_anchor = _epoch_anchor_setup(problem, anchor, ledger)
        x = anchor.copy()
        iterates = [x.copy()]
        draw_rng = _stream(seed, _CH_FIXED_DRAW, k)
        for t in range(1, config.inner_iters + 1):
            picks = Counter(sampling.sample_categorical(dist, draw_rng) for _ in range(R))
            distinct = len(picks)
            comm_payload = p * distinct
            ledger.server_worker_scalars += comm_payload  # x_{t-1} to sampled workers
            ledger.worker_server_scalars += comm_payload  # scaled gradient gaps back
            ledger.parallel_rounds += 2
            step_dir = np.zeros(p)
            for m, mult in sorted(picks.items()):
                g_x = prob.shard_gradient(problem, m, x)
                step_dir += mult * (g_x - anchor_grads[m]) / (M * dist.probabilities[m])
            x = x - config.eta * (step_dir / R + g_anchor)
            if t < config.inner_iters:
                iterates.append(x.copy())
            recorder.observe(k, t, x)
        anchor = _pick_anchor(iterates, x, config.anchor_rule, _stream(seed, _CH_ANCHOR, k))

    return RunTrace(rows=recorder.rows, final_x=anchor, ledger=ledger)


def _estimate_weights(problem, x, anchor, est, seed, k, t) -> list[float]:
    """Per-step weight estimates for every worker in one batched pass; worker
    m draws its subsample from the stream (seed, weights channel, k, t, m)."""
    if est.subsample_policy == "full":
        return sampling.estimate_weights(problem, x, anchor).tolist()
    sizes = sampling.subsample_sizes(problem, x, anchor, est)
    local = sampling._draw_subsamples(seed + (_CH_WEIGHTS, k, t), problem.sizes, sizes)
    return sampling.estimate_weights(problem, x, anchor, sizes, local).tolist()


def run_asd_svrg(problem, config: OptimizerConfig, x0=None) -> RunTrace:
    """Adaptive-sampling distributed SVRG.

    Every inner step: each worker estimates the norm of its subsampled
    gradient difference against the epoch anchor, the tree protocol samples
    ``group_size`` workers proportionally to those estimates, and the sampled
    workers' variance-reduced directions are averaged into the update.  When
    every estimate is zero (e.g. the first step of an epoch starts exactly at
    the anchor) the step falls back to uniform weights.

    Beyond the protocol's own cost, the ledger is charged for: the per-step
    parameter broadcast, the histogram reaching the server (R scalars), the
    weight normaliser reaching each sampled worker (1 scalar each), and each
    sampled worker returning a parameter-sized payload.
    """
    if config.distribution_mode != "adaptive":
        raise ValueError("run_asd_svrg requires distribution_mode='adaptive'")
    seed = _seed_tuple(config.seed)
    M, p = problem.m_workers, problem.param_dim
    R = config.group_size
    ledger = comm.CommLedger()
    anchor = _initial_x(problem, x0)
    recorder = _Recorder(problem, ledger, config, anchor)

    for k in range(1, config.epochs + 1):
        anchor_grads, g_anchor = _epoch_anchor_setup(problem, anchor, ledger)
        x = anchor.copy()
        iterates = [x.copy()]
        for t in range(1, config.inner_iters + 1):
            comm.server_broadcast(ledger, p, M)  # x_{t-1} to every worker
            weights = _estimate_weights(problem, x, anchor, config.estimation, seed, k, t)
            if sum(weights) <= 0.0:
                weights = [1.0] * M  # degenerate estimates: uniform fallback
            hist = comm.pc_sample(weights, R, ledger, _stream(seed, _CH_PC, k, t))
            ledger.worker_server_scalars += R  # histogram to the server
            ledger.parallel_rounds += 1
            distinct = len(hist.counts)
            ledger.server_worker_scalars += distinct  # weight normaliser out
            ledger.parallel_rounds += 1

            total_w = sum(weights)
            step_dir = np.zeros(p)
            for m, mult in hist.items():
                p_m = weights[m] / total_w
                g_x = prob.shard_gradient(problem, m, x)
                step_dir += mult * (g_x - anchor_grads[m]) / (M * p_m)
            x = x - config.eta * (step_dir / R + g_anchor)

            ledger.worker_server_scalars += p * distinct  # updates back to server
            ledger.parallel_rounds += 1
            if t < config.inner_iters:
                iterates.append(x.copy())
            recorder.observe(k, t, x)
        anchor = _pick_anchor(iterates, x, config.anchor_rule, _stream(seed, _CH_ANCHOR, k))

    return RunTrace(rows=recorder.rows, final_x=anchor, ledger=ledger)


def run_sgd(problem, config: OptimizerConfig, x0=None) -> RunTrace:
    """Constant-step SGD over uniformly drawn workers, with optional L2 on the
    update (never on the recorded loss).  Traced on the same (epoch, step)
    grid as the variance-reduced runs for comparability."""
    seed = _seed_tuple(config.seed)
    M, p = problem.m_workers, problem.param_dim
    ledger = comm.CommLedger()
    x = _initial_x(problem, x0)
    recorder = _Recorder(problem, ledger, config, x)

    for k in range(1, config.epochs + 1):
        rng = _stream(seed, _CH_SGD, k)
        for t in range(1, config.inner_iters + 1):
            m = int(rng.integers(M))
            grad = prob.shard_gradient(problem, m, x) + config.l2_for_sgd * x
            x = x - config.eta * grad
            ledger.server_worker_scalars += p
            ledger.worker_server_scalars += p
            ledger.parallel_rounds += 2
            recorder.observe(k, t, x)

    return RunTrace(rows=recorder.rows, final_x=x, ledger=ledger)


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
