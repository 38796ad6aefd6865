"""Categorical weight machinery for adaptive worker selection.

Covers the variance-minimizing sampling distribution, subsample-based
estimation of per-worker gradient-difference norms (with the concentration
driven sample-size rule), and the decomposition of a noisily-estimated
categorical distribution into (1 - gamma) * exact + gamma * residual.
"""

from __future__ import annotations

import functools
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


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx): a pool of four
# uint32 words, hashmix constants INIT_A * MULT_A**c for its c-th call,
# generate_state constants INIT_B * MULT_B**c, and mix(x, y) = L*x - R*y,
# all mod 2**32.  PCG64 seeded from words (s, i) has inc = 2i + 1 and state
# (inc + s) * PCG64_MULT + inc, mod 2**128.
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


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


@functools.lru_cache(maxsize=16)
def _hash_constants(init: int, mult: int, first: int, count: int) -> np.ndarray:
    """init * mult**c mod 2**32 for c = first .. first + count, as a
    read-only uint32 column."""
    out = np.array([init * pow(mult, c, 1 << 32) & _MASK32 for c in range(first, first + count + 1)], dtype=np.uint32)
    out.flags.writeable = False
    return out[:, None]


# generate_state(4, uint64) reads the pool twice for its 8 uint32 words
_STATE_HASH = _hash_constants(_INIT_B, _MULT_B, 0, 2 * _POOL_SIZE)


def _seed_words(seq: np.random.SeedSequence, last: np.ndarray) -> np.ndarray:
    """``SeedSequence(key + [w]).generate_state(4, np.uint64)`` for every word
    w of ``last``, one row each, where ``seq`` is ``SeedSequence(key)`` built
    from a uint32 array of key words.

    The hash constants do not depend on the data, and a word past the pool's
    fourth is hashed with four consecutive constants and mixed into the four
    pool words.  So ``seq``'s pool is extended by every w at once, in uint32
    array operations that wrap mod 2**32 as the hash does.  A key shorter
    than the pool would put w into the pool's first rounds instead; no
    optimizer key is that short, and such keys are hashed one by one.
    """
    key = seq.entropy
    if len(key) < _POOL_SIZE:
        return np.array(
            [np.random.SeedSequence(np.append(key, w)).generate_state(4, np.uint64) for w in last.tolist()],
            dtype=np.uint64,
        ).reshape(-1, 4)
    mix_hash = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * len(key), _POOL_SIZE)
    v = np.asarray(last, dtype=np.uint32) ^ mix_hash[:-1]
    v *= mix_hash[1:]
    v ^= v >> 16
    v *= np.uint32(-_MIX_R & _MASK32)
    v += seq.pool[:, None] * np.uint32(_MIX_L)
    v ^= v >> 16
    state = np.concatenate((v, v)) ^ _STATE_HASH[:-1]
    state *= _STATE_HASH[1:]
    state ^= state >> 16
    # consecutive little-endian word pairs, as generate_state combines them
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8")


def _resolve_swaps(targets: list[int]) -> list[int]:
    """First k entries of range(n) after swapping position i with
    ``targets[i] >= i`` for i = 0..k-1 in turn.  The swaps are kept in a dict,
    so the cost is O(k) whatever n is."""
    moved: dict[int, int] = {}
    out = []
    for i, j in enumerate(targets):
        out.append(moved.get(j, j))
        moved[j] = moved.get(i, i)
    return out


def _partial_fisher_yates(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """First k entries of a Fisher-Yates shuffle of range(n): a uniform
    without-replacement draw of k indices.

    Step i swaps position i with i + rng.integers(n - i).  One vectorised
    ``rng.integers`` call returns exactly those k sequential draws.
    """
    targets = rng.integers(0, np.arange(n, n - k, -1)) + np.arange(k)
    return np.array(_resolve_swaps(targets.tolist()), dtype=np.intp)


def _draw_subsamples(key: tuple[int, ...], shard_sizes, sizes) -> np.ndarray:
    """Every worker's subsample, concatenated in worker order: worker m with
    ``sizes[m] > 0`` draws ``_partial_fisher_yates(shard_sizes[m], sizes[m],
    _stream(key + (m,)))``, and all workers are drawn in one batched pass.

    The workers' seed words come from :func:`_seed_words`, and one PCG64 is
    set to each worker's state in turn to read its raw outputs.  For bounds
    up to 2**32, ``rng.integers`` spends the low and then the high uint32 of
    each output on Lemire's rule: the draw is ``u * bound >> 32``, unless the
    low word of that product is below ``2**32 % bound``, when it rejects u and
    takes the next word (a bound of 1 spends no word; the rule gives its 0
    too).  That rule is applied to all workers at once.  A worker whose draw
    would be rejected is drawn from its own stream by
    ``_partial_fisher_yates`` instead.  A bound above 2**32 (a shard of more
    than 2**32 rows, which numpy draws from whole 64-bit outputs) always
    counts as rejected, because 2**32 % bound is then 2**32.
    """
    sizes = np.asarray(sizes)
    workers = np.flatnonzero(sizes)
    if not workers.size:
        return np.zeros(0, dtype=np.intp)
    n, k = np.asarray(shard_sizes)[workers], sizes[workers]
    seq = np.random.SeedSequence(np.array(_key_words(key), dtype=np.uint32))
    bitgen = np.random.PCG64(seq)  # every worker's state replaces this one
    half = (k + 1) // 2  # raw outputs that hold a worker's k uint32 draws
    raw = []
    for (s0, s1, i0, i1), r in zip(_seed_words(seq, workers).tolist(), half.tolist()):
        inc = ((i0 << 64 | i1) << 1 | 1) & _MASK128
        state = ((inc + (s0 << 64 | s1)) * _PCG64_MULT + inc) & _MASK128
        bitgen.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        raw.append(bitgen.random_raw(r))
    u = np.concatenate(raw).astype("<u8", copy=False).view("<u4")
    first = np.cumsum(k) - k  # each worker's first draw
    draw = np.arange(first[-1] + k[-1])
    step = draw - np.repeat(first, k)
    bound = (np.repeat(n, k) - step).astype(np.uint64)
    product = u[draw + np.repeat(2 * (np.cumsum(half) - half) - first, k)] * bound
    targets = ((product >> 32).astype(np.intp) + step).tolist()
    rejected = (product & _MASK32) < 2**32 % bound
    redraw = np.logical_or.reduceat(rejected, first).tolist()
    out: list[int] = []
    for m, n_m, k_m, f, redo in zip(workers.tolist(), n.tolist(), k.tolist(), first.tolist(), redraw):
        if redo:
            out += _partial_fisher_yates(n_m, k_m, _stream(key + (m,))).tolist()
        else:
            out += _resolve_swaps(targets[f : f + k_m])
    return np.array(out, dtype=np.intp)


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
    local = _partial_fisher_yates(shard.size, n_m, rng)
    return float(estimate_weights(problem, x, x_anchor, sizes, local)[shard_id])


def sample_categorical(dist: Categorical, rng) -> int:
    """One inverse-CDF draw from a categorical distribution (0-based index)."""
    cum = np.cumsum(dist.probabilities)
    cum[-1] = 1.0
    i = int(np.searchsorted(cum, rng.random(), side="right"))
    return min(i, len(dist) - 1)
