"""Categorical weight machinery for adaptive worker selection.

Covers the variance-minimizing sampling distribution, subsample-based
estimation of per-worker gradient-difference norms (with the concentration
driven sample-size rule), and the decomposition of a noisily-estimated
categorical distribution into (1 - gamma) * exact + gamma * residual.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import problem as prob


class DegenerateWeights(RuntimeError):
    """All candidate weights are zero; callers fall back to uniform sampling."""


@dataclass(frozen=True)
class Categorical:
    """Nonnegative weights over M categories and their normalisation.

    ``probabilities`` is computed once as weights / sum(weights); no further
    correction is applied.
    """

    weights: np.ndarray
    probabilities: np.ndarray

    @classmethod
    def from_weights(cls, weights) -> "Categorical":
        w = np.asarray(weights, dtype=float).ravel()
        if w.size == 0:
            raise ValueError("need at least one category")
        if np.any(w < 0) or not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite and nonnegative")
        total = float(w.sum())
        if not math.isfinite(total):
            raise ValueError("categorical weights must have a finite total")
        if total <= 0:
            raise DegenerateWeights("all categorical weights are zero")
        return cls(weights=w.copy(), probabilities=w / total)

    @classmethod
    def uniform(cls, m: int) -> "Categorical":
        return cls.from_weights(np.ones(m))

    def __len__(self) -> int:
        return self.weights.size


def optimal_distribution(diff_norms) -> Categorical:
    """Variance-minimizing worker distribution: probabilities proportional to
    the shard gradient-difference norms.

    Raises DegenerateWeights when every norm is zero (the minimisation target
    is 0/0 there; callers substitute the uniform distribution).
    """
    norms = np.asarray(diff_norms, dtype=float).ravel()
    if np.any(norms < 0):
        raise ValueError("gradient-difference norms cannot be negative")
    return Categorical.from_weights(norms)


@dataclass(frozen=True)
class PerturbedPair:
    """An exact categorical distribution and a noisy reweighting of it."""

    base: Categorical
    perturbed: Categorical
    deltas: np.ndarray

    @classmethod
    def from_weights(cls, base_weights, perturbed_weights) -> "PerturbedPair":
        base = Categorical.from_weights(base_weights)
        pert = Categorical.from_weights(perturbed_weights)
        if len(base) != len(pert):
            raise ValueError("base and perturbed must have the same number of categories")
        return cls(base=base, perturbed=pert, deltas=pert.weights - base.weights)


@dataclass(frozen=True)
class Decomposition:
    """Mixture view of a perturbed distribution: (1-gamma)*base + gamma*residual."""

    gamma: float
    residual: Categorical

    def __post_init__(self):
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError(f"gamma must lie in [0, 1), got {self.gamma}")


def decompose_perturbed(pair: PerturbedPair) -> Decomposition:
    """Split a perturbed categorical into its exact part and a residual.

    With base weights w, perturbed weights w̃ = w + d and c = min_i w̃_i / w_i,
    the residual has weights w̃_i - c * w_i (zero at the minimizing index) and
    the mixture mass is gamma = 1 - min_i p̃_i / p_i, the smallest mass for
    which the decomposition stays a valid distribution.  The ratio is taken
    of the perturbed weights themselves: forming it as 1 + d_i / w_i would
    cancel digits wherever w̃_i is far below w_i.
    """
    w = pair.base.weights
    if np.any(w <= 0):
        raise ValueError("base weights must be strictly positive (delta/weight ratios)")
    wt = pair.perturbed.weights
    ratios = wt / w
    i0 = int(np.argmin(ratios))
    c = ratios[i0]
    q = wt - w * c
    q[i0] = 0.0
    q = np.maximum(q, 0.0)

    gamma = 1.0 - c * float(w.sum()) / float(wt.sum())
    gamma = max(gamma, 0.0)
    if gamma >= 1.0:
        raise ValueError("perturbation drives a category to zero mass; gamma would be 1")

    if q.sum() <= 0:
        # deltas proportional to the base weights: gamma is 0 and the residual
        # never gets sampled, any valid distribution will do
        residual = Categorical.uniform(len(pair.base))
    else:
        residual = Categorical.from_weights(q)
    return Decomposition(gamma=gamma, residual=residual)


def gamma_inverse_bound(pair: PerturbedPair) -> float:
    """max_i p_i / p̃_i, the distortion factor 1 / (1 - gamma).

    Internally cross-checks the ratio form against the decomposition's gamma.
    """
    p = pair.base.probabilities
    pt = pair.perturbed.probabilities
    if np.any((pt <= 0) & (p > 0)):
        raise ValueError("perturbed distribution lost a category with positive base mass")
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(p > 0, p / pt, 0.0)
    bound = float(ratio.max())
    gamma = decompose_perturbed(pair).gamma
    assert math.isclose(bound, 1.0 / (1.0 - gamma), rel_tol=1e-10, abs_tol=1e-10), (
        f"ratio bound {bound} vs 1/(1-gamma) {1.0 / (1.0 - gamma)}"
    )
    return bound


SUBSAMPLE_POLICIES = ("fixed", "lemma1", "full")


@dataclass(frozen=True)
class EstimationConfig:
    """How workers estimate their gradient-difference weights.

    tau : relative-error target in (0, 1].
    delta : failure probability in (0, 1).
    subsample_policy : ``fixed`` (capped fraction of the shard, the default),
        ``lemma1`` (concentration-driven size from data bounds), or ``full``
        (exact weights).
    fixed_n : optional override of the fixed subsample size; when None the
        fixed policy uses max(16, ceil(0.1 * shard size)), capped at the shard.
    """

    tau: float = 1.0 / 3.0
    delta: float = 0.05
    subsample_policy: str = "fixed"
    fixed_n: int | None = None

    def __post_init__(self):
        if not 0.0 < self.tau <= 1.0:
            raise ValueError(f"tau must be in (0, 1], got {self.tau}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must be in (0, 1), got {self.delta}")
        if self.subsample_policy not in SUBSAMPLE_POLICIES:
            raise ValueError(f"subsample_policy must be one of {SUBSAMPLE_POLICIES}")
        if self.fixed_n is not None and self.fixed_n < 1:
            raise ValueError("fixed_n must be at least 1")

    def size_for_shard(self, shard_size):
        """Subsample size under the fixed policy, capped at the shard size;
        elementwise for an integer array of shard sizes."""
        sizes = np.asarray(shard_size)
        n = self.fixed_n if self.fixed_n is not None else np.maximum(16, np.ceil(0.1 * sizes).astype(int))
        out = np.minimum(sizes, n)
        return out if out.ndim else int(out)


def subsample_size(config: EstimationConfig, d: int, range_norm: float, mean_norm: float) -> int:
    """Sample count guaranteeing relative error tau with probability 1 - delta.

    Evaluates ceil( (1/tau^2) * ||b-a||^2 / (2 ||mu||^2) * log(2d / delta) )
    for d-dimensional vectors whose coordinates span range_norm and whose mean
    has norm mean_norm.  Sampling is without replacement, so callers clamp the
    result to the population size.
    """
    if d < 1:
        raise ValueError("d must be at least 1")
    if range_norm < 0:
        raise ValueError("range_norm must be nonnegative")
    if mean_norm <= 0:
        raise DegenerateWeights("mean norm is zero; the relative-error target is undefined")
    n = (range_norm**2) / (2.0 * mean_norm**2) / config.tau**2 * math.log(2.0 * d / config.delta)
    # tolerate float noise at integer boundaries before rounding up
    return max(1, math.ceil(n - 1e-9))


def _segment_starts(counts: np.ndarray) -> np.ndarray:
    return np.cumsum(counts) - counts


def _segment_ranks(counts: np.ndarray) -> np.ndarray:
    """0, 1, .., counts[i] - 1 for every segment i, concatenated."""
    return np.arange(counts.sum()) - np.repeat(_segment_starts(counts), counts)


def _segment_bounds(deltas: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(range_norm, mean_norm) of each run of ``counts`` consecutive delta rows."""
    starts = _segment_starts(counts)
    span = np.maximum.reduceat(deltas, starts, axis=0) - np.minimum.reduceat(deltas, starts, axis=0)
    means = np.add.reduceat(deltas, starts, axis=0) / counts[:, None]
    return np.linalg.norm(span, axis=1), np.linalg.norm(means, axis=1)


def subsample_sizes(problem, x, x_anchor, config: EstimationConfig) -> np.ndarray:
    """Every worker's subsample size under ``config``'s policy.

    ``full`` gives the shard sizes and ``fixed`` the capped fixed size.
    ``lemma1`` applies :func:`subsample_size`, capped at the shard, to every
    shard's bounds: range_norm is ||b - a|| for the coordinate-wise min/max
    envelope of its per-sample gradient differences, and mean_norm the norm of
    their average (the exact shard weight).  The bounds of all shards come
    from one pass over the stacked rows; a shard whose exact weight is zero
    gets size 0.
    """
    sizes = problem.sizes
    if config.subsample_policy == "full":
        return sizes.copy()
    if config.subsample_policy == "fixed":
        return config.size_for_shard(sizes)
    deltas = prob.gradient_deltas(problem, slice(None), x, x_anchor)
    out = np.zeros(problem.m_workers, dtype=int)
    for m, (range_norm, mean_norm) in enumerate(zip(*_segment_bounds(deltas, sizes))):
        try:
            n = subsample_size(config, problem.param_dim, float(range_norm), float(mean_norm))
        except DegenerateWeights:
            continue  # exact weight is zero, nothing to estimate
        out[m] = min(int(sizes[m]), n)
    return out


_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15  # SplitMix64's increment, 2**64 / golden ratio
_ROUNDS_AHEAD = 4  # redraw rounds hashed per pass over the slots


def _key_words(key) -> list[int]:
    """The uint32 words ``SeedSequence`` makes of a tuple of nonnegative ints:
    each int's little-endian 32-bit words, at least one per int."""
    words = []
    for v in key:
        words.append(v & _MASK32)
        v >>= 32
        while v:
            words.append(v & _MASK32)
            v >>= 32
    return words


def _stream(key) -> np.random.Generator:
    """The generator of ``SeedSequence(key)``: the same state, without
    SeedSequence's slower per-int coercion of the key."""
    words = np.array(_key_words(key), dtype=np.uint32)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(words)))


def _mix64(z):
    """SplitMix64's finaliser, a bijection of 64-bit words; works on a
    Python int below 2**64 and elementwise on a uint64 array."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _draw_subsamples(key: tuple[int, ...], shard_sizes, sizes) -> np.ndarray:
    """Every worker's subsample, uniform without replacement: worker m draws
    ``sizes[m]`` of ``range(shard_sizes[m])`` in ascending order, the workers
    are concatenated in order, and all are drawn in one array pass.

    Counter-based (Salmon et al., SC'11): slot j of worker m in redraw round
    r reads the top 53 bits of SplitMix64's output at position j + r * 2**32
    of a stream seeded by hashing (key, m), so every draw is a pure function
    of (key, m, j, r) and no worker's draw depends on another's.  Slot j
    takes floor(u * n_m); a slot that repeats an index of a lower slot of its
    worker is redrawn until all are distinct.  The rule treats every index
    alike, so every subset is equally likely, up to the 2**-53 rounding of
    u * n_m (shards below 2**53 rows, sizes below 2**32).  A worker with
    2 k_m > n_m draws the n_m - k_m rows it leaves out instead.
    """
    sizes = np.asarray(sizes)
    workers = np.flatnonzero(sizes)
    n, k = np.asarray(shard_sizes)[workers], sizes[workers]
    flip = 2 * k > n
    d = np.where(flip, n - k, k)  # slots each worker draws
    # rows are numbered across the drawn workers' stacked shards, so one sort
    # finds the repeats of every worker
    stacked = _segment_starts(n)
    first, scale = np.repeat(stacked, d), np.repeat(n * 2.0**-53, d)
    h = 0  # the key's hash, folded over its words
    for w in _key_words(key):
        h = _mix64(((h + _GOLDEN) & _MASK64) ^ w)
    seeds = _mix64(h + (workers.astype(np.uint64) + 1) * np.uint64(_GOLDEN))
    counters = np.repeat(seeds, d) + _segment_ranks(d).astype(np.uint64) * np.uint64(_GOLDEN)

    def draw_rows(rounds):  # one row of the result per round
        r = np.asarray(rounds, dtype=np.uint64)[:, None]
        z = _mix64(counters + (r << np.uint64(32)) * np.uint64(_GOLDEN))
        return first + ((z >> 11) * scale).astype(np.intp)

    ahead = draw_rows(range(_ROUNDS_AHEAD))  # few slots repeat: hash rounds in blocks
    rows = ahead[0]
    for r in itertools.count(1):
        order = np.argsort(rows, kind="stable")  # a repeat's lowest slot comes first
        repeat = order[1:][rows[order[1:]] == rows[order[:-1]]]
        if not repeat.size:
            break
        if r % _ROUNDS_AHEAD == 0:
            ahead = draw_rows(range(r, r + _ROUNDS_AHEAD))
        rows[repeat] = ahead[r % _ROUNDS_AHEAD, repeat]
    out = rows[order]
    if flip.any():  # such a worker keeps the rows it did not draw
        left_out = np.repeat(flip, d)[order]
        flip_rows = np.repeat(stacked[flip], n[flip]) + _segment_ranks(n[flip])
        kept = np.ones(flip_rows.size, dtype=bool)
        kept[np.searchsorted(flip_rows, out[left_out])] = False
        out = np.sort(np.concatenate((out[~left_out], flip_rows[kept])))
    return out - np.repeat(stacked, k)


def estimate_weights(problem, x, x_anchor, sizes=None, local=None) -> np.ndarray:
    """Subsampled gradient-difference norms of all workers in one batched pass.

    Worker m averages over ``sizes[m]`` of its sample indices; ``local``
    holds them, as indices into each shard, concatenated in worker order (as
    :func:`_draw_subsamples` draws them).  A size of 0 gives weight 0.  With
    ``sizes`` None every worker takes all its rows, which gives the exact
    weights.  All drawn rows are gathered from the stacked matrix at once,
    the residual differences r(a'x) - r(a'x_anchor) are formed on them, and
    each worker's weight is the norm of its segment mean of
    (residual difference) * a.
    """
    M = problem.m_workers
    weights = np.zeros(M)
    if sizes is None:
        workers, counts, rows = np.arange(M), problem.sizes, slice(None)
    else:
        sizes = np.asarray(sizes, dtype=int)
        if sizes.shape != (M,) or np.any(sizes < 0) or np.any(sizes > problem.sizes):
            raise ValueError(f"sizes must give each of the {M} workers 0..shard size rows")
        workers = np.flatnonzero(sizes)
        if not workers.size:
            return weights
        counts = sizes[workers]
        local = np.asarray(local, dtype=np.intp)
        shard_sizes = np.repeat(problem.sizes[workers], counts)
        if local.shape != (counts.sum(),) or np.any(local < 0) or np.any(local >= shard_sizes):
            raise ValueError("local must hold sizes[m] indices into each sampled shard, in worker order")
        # the workers' row ranges are disjoint and ascending, so one sort
        # orders the rows within every worker and keeps the workers in order
        rows = np.sort(local + np.repeat(problem.offsets[workers], counts))
    deltas = prob.gradient_deltas(problem, rows, x, x_anchor)
    means = np.add.reduceat(deltas, _segment_starts(counts), axis=0) / counts[:, None]
    weights[workers] = np.linalg.norm(means, axis=1)
    return weights


def estimate_shard_weight(problem, shard_id: int, x, x_anchor, n_m: int, rng) -> float:
    """Norm of the subsampled mean gradient difference for one shard.

    Draws ``n_m`` sample indices uniformly without replacement, with
    ``rng.choice(shard size, n_m, replace=False)``, and returns
    || mean_j (grad f_j(x) - grad f_j(x_anchor)) ||_2 over the draw.  With
    ``n_m`` equal to the shard size this is the exact difference norm.  This
    is the one-shard case of :func:`estimate_weights`.
    """
    shard = problem.shard(shard_id)
    if not 1 <= n_m <= shard.size:
        raise ValueError(f"n_m must be in [1, {shard.size}], got {n_m}")
    sizes = np.zeros(problem.m_workers, dtype=int)
    sizes[shard_id] = n_m
    local = rng.choice(shard.size, n_m, replace=False)
    return float(estimate_weights(problem, x, x_anchor, sizes, local)[shard_id])


def sample_categorical(dist: Categorical, rng) -> int:
    """One inverse-CDF draw from a categorical distribution (0-based index)."""
    cum = np.cumsum(dist.probabilities)
    cum[-1] = 1.0
    i = int(np.searchsorted(cum, rng.random(), side="right"))
    return min(i, len(dist) - 1)
