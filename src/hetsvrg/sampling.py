"""Categorical weight machinery for adaptive worker selection.

Covers the variance-minimizing sampling distribution, subsample-based
estimation of per-worker gradient-difference norms (with the concentration
driven sample-size rule), and the decomposition of a noisily-estimated
categorical distribution into (1 - gamma) * exact + gamma * residual.
"""

from __future__ import annotations

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

    With base weights w, deltas d and r = min_i d_i / w_i, the residual has
    weights d_i - w_i * r (zero at the minimizing index) and the mixture mass
    is gamma = 1 - min_i p̃_i / p_i, the smallest mass for which the
    decomposition stays a valid distribution.
    """
    w = pair.base.weights
    if np.any(w <= 0):
        raise ValueError("base weights must be strictly positive (delta/weight ratios)")
    d = pair.deltas
    ratios = d / w
    i0 = int(np.argmin(ratios))
    r = ratios[i0]
    q = d - w * r
    q[i0] = 0.0
    q = np.maximum(q, 0.0)

    gamma = 1.0 - (1.0 + r) * float(w.sum()) / float(pair.perturbed.weights.sum())
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

    def size_for_shard(self, shard_size: int) -> int:
        """Subsample size under the fixed policy, capped at the shard size."""
        n = self.fixed_n if self.fixed_n is not None else max(16, math.ceil(0.1 * shard_size))
        return min(shard_size, n)


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


def _segment_bounds(deltas: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(range_norm, mean_norm) of each run of ``counts`` consecutive delta rows."""
    starts = _segment_starts(counts)
    span = np.maximum.reduceat(deltas, starts, axis=0) - np.minimum.reduceat(deltas, starts, axis=0)
    means = np.add.reduceat(deltas, starts, axis=0) / counts[:, None]
    return np.linalg.norm(span, axis=1), np.linalg.norm(means, axis=1)


def lemma_bounds(problem, shard_id: int, x, x_anchor) -> tuple[float, float]:
    """(range_norm, mean_norm) of one shard's per-sample gradient differences.

    range_norm is ||b - a|| for the coordinate-wise min/max envelope of the
    difference vectors; mean_norm is the norm of their average (the exact
    shard weight).  Requires a full pass over the shard.  This is the
    one-shard case of the bounds :func:`subsample_sizes` computes for the
    ``lemma1`` policy.
    """
    deltas = prob.gradient_delta_matrix(problem, shard_id, x, x_anchor)
    ranges, means = _segment_bounds(deltas, np.array([deltas.shape[0]]))
    return float(ranges[0]), float(means[0])


def subsample_sizes(problem, x, x_anchor, config: EstimationConfig) -> np.ndarray:
    """Every worker's subsample size under ``config``'s policy.

    ``full`` gives the shard sizes and ``fixed`` the capped fixed size.
    ``lemma1`` applies :func:`subsample_size` to every shard's
    :func:`lemma_bounds`, computed for all shards in one pass over the
    stacked rows; a shard whose exact weight is zero gets size 0.
    """
    sizes = problem.sizes
    if config.subsample_policy == "full":
        return sizes.copy()
    if config.subsample_policy == "fixed":
        return np.array([config.size_for_shard(int(n)) for n in sizes])
    deltas = prob.gradient_deltas(problem, slice(None), x, x_anchor)
    out = np.zeros(problem.m_workers, dtype=int)
    for m, (range_norm, mean_norm) in enumerate(zip(*_segment_bounds(deltas, sizes))):
        try:
            n = subsample_size(config, problem.param_dim, float(range_norm), float(mean_norm))
        except DegenerateWeights:
            continue  # exact weight is zero, nothing to estimate
        out[m] = min(int(sizes[m]), n)
    return out


def _partial_fisher_yates(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """First k entries of a Fisher-Yates shuffle of range(n): a uniform
    without-replacement draw of k indices.

    Step i swaps position i with i + rng.integers(n - i).  One vectorised
    ``rng.integers`` call returns exactly those k sequential draws, and the
    swaps are kept in a dict, so the cost is O(k) whatever n is.
    """
    targets = (rng.integers(0, np.arange(n, n - k, -1)) + np.arange(k)).tolist()
    moved: dict[int, int] = {}
    out = []
    for i, j in enumerate(targets):
        out.append(moved.get(j, j))
        moved[j] = moved.get(i, i)
    return np.array(out, dtype=np.intp)


def estimate_weights(problem, x, x_anchor, sizes=None, rngs=None) -> np.ndarray:
    """Subsampled gradient-difference norms of all workers in one batched pass.

    Worker m draws ``sizes[m]`` of its sample indices uniformly without
    replacement from its own generator ``rngs[m]``, by
    :func:`_partial_fisher_yates`; a size of 0 gives weight 0 and draws
    nothing.  With ``sizes`` None every worker takes all its rows and nothing
    is drawn, which gives the exact weights.  All drawn rows are then gathered
    from the stacked matrix at once, the residual differences
    r(a'x) - r(a'x_anchor) are formed on them, and each worker's weight is the
    norm of its segment mean of (residual difference) * a.
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
        shard_sizes = problem.sizes[workers].tolist()
        local = np.concatenate(
            [
                _partial_fisher_yates(n, k, rngs[m])
                for m, n, k in zip(workers.tolist(), shard_sizes, counts.tolist())
            ]
        )
        # the workers' row ranges are disjoint and ascending, so one sort
        # orders the rows within every worker and keeps the workers in order
        rows = np.sort(local + np.repeat(problem.offsets[workers], counts))
    deltas = prob.gradient_deltas(problem, rows, x, x_anchor)
    means = np.add.reduceat(deltas, _segment_starts(counts), axis=0) / counts[:, None]
    weights[workers] = np.linalg.norm(means, axis=1)
    return weights


def estimate_shard_weight(problem, shard_id: int, x, x_anchor, n_m: int, rng) -> float:
    """Norm of the subsampled mean gradient difference for one shard.

    Draws ``n_m`` sample indices uniformly without replacement and returns
    || mean_j (grad f_j(x) - grad f_j(x_anchor)) ||_2 over the draw.  With
    ``n_m`` equal to the shard size this is the exact difference norm.  This
    is the one-shard case of :func:`estimate_weights`.
    """
    shard = problem.shard(shard_id)
    if not 1 <= n_m <= shard.size:
        raise ValueError(f"n_m must be in [1, {shard.size}], got {n_m}")
    sizes = np.zeros(problem.m_workers, dtype=int)
    sizes[shard_id] = n_m
    rngs = {shard_id: rng}
    return float(estimate_weights(problem, x, x_anchor, sizes, rngs)[shard_id])


def sample_categorical(dist: Categorical, rng) -> int:
    """One inverse-CDF draw from a categorical distribution (0-based index)."""
    cum = np.cumsum(dist.probabilities)
    cum[-1] = 1.0
    i = int(np.searchsorted(cum, rng.random(), side="right"))
    return min(i, len(dist) - 1)
