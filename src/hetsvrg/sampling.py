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

from . import comm
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

    @classmethod
    def from_weights(cls, base_weights, perturbed_weights) -> "PerturbedPair":
        base = Categorical.from_weights(base_weights)
        pert = Categorical.from_weights(perturbed_weights)
        if len(base) != len(pert):
            raise ValueError("base and perturbed must have the same number of categories")
        return cls(base=base, perturbed=pert)


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
        if self.fixed_n is not None:
            object.__setattr__(self, "fixed_n", comm._count(self.fixed_n, "fixed_n"))
            if self.fixed_n < 1:
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


def subsample_sizes(problem, x, x_anchor, config: EstimationConfig, out=None) -> np.ndarray:
    """Every worker's subsample size under ``config``'s policy.

    ``full`` gives the shard sizes and ``fixed`` the capped fixed size.
    ``lemma1`` applies :func:`subsample_size`, capped at the shard, to every
    shard's bounds: range_norm is ||b - a|| for the coordinate-wise min/max
    envelope of its per-sample gradient differences, and mean_norm the norm of
    their average (the exact shard weight).  The bounds of all shards come
    from one pass over the stacked rows; a shard whose exact weight is zero
    gets size 0; ``out`` keeps that pass's arrays, as in
    :func:`problem.gradient_deltas`.
    """
    sizes = problem.sizes
    if config.subsample_policy == "full":
        return sizes.copy()
    if config.subsample_policy == "fixed":
        return config.size_for_shard(sizes)
    deltas = prob.gradient_deltas(problem, slice(None), x, x_anchor, out)
    chosen = np.zeros(problem.m_workers, dtype=int)
    for m, (range_norm, mean_norm) in enumerate(zip(*_segment_bounds(deltas, sizes))):
        try:
            n = subsample_size(config, problem.param_dim, float(range_norm), float(mean_norm))
        except DegenerateWeights:
            continue  # exact weight is zero, nothing to estimate
        chosen[m] = min(int(sizes[m]), n)
    return chosen


_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15  # SplitMix64's increment, 2**64 / golden ratio


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
    SeedSequence's slower per-int coercion of the key.  It hashes one key per
    call; ``_seed_words`` and ``_seeded`` build the same generators for many
    keys at once, and this is their oracle."""
    words = np.array(_key_words(key), dtype=np.uint32)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(words)))


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx, after O'Neill's
# seed_seq_fe): a pool of 4 uint32 words, hashed with one running
# multiplier, and output words hashed with another
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _mix(x, y):
    """SeedSequence's mix of two uint32 arrays of pool words."""
    r = x * np.uint32(_MIX_L) - y * np.uint32(_MIX_R)
    return r ^ (r >> np.uint32(16))


def _seed_words(prefixes, tags) -> np.ndarray:
    """The PCG64 seed words of every key ``prefixes[c] + (tags[i],)``, as a
    C-contiguous (len(tags), len(prefixes), 4) uint64 array: row [i, c] is
    ``SeedSequence(_key_words(key)).generate_state(4, np.uint64)`` bit for
    bit, and ``_seeded`` makes it the generator of ``_stream(key)``.

    ``tags`` is a uint64 array; each prefix is a tuple of nonnegative ints
    (one ``_key_words`` call per prefix).  ``mix_entropy`` and
    ``generate_state`` run call for call as in SeedSequence, each call one
    uint32 array operation over all keys: the running hash constant depends
    only on the call, never on the key.  A key shorter than the pool reads
    zeros past its end, as SeedSequence does, and a word past the pool is
    mixed into the pool of the keys that have it.
    """
    tags = np.asarray(tags, dtype=np.uint64)
    heads = [_key_words(p) for p in prefixes]
    head_len = np.array([len(w) for w in heads], dtype=np.intp)
    high = tags >> np.uint64(32)
    two = bool(high.any())  # a tag of 2**32 or more takes a second word
    width = max(_POOL, int(head_len.max()) + 1 + two)
    # word-major (word, tag, prefix), so each word of every key is one row
    words = np.zeros((width, tags.size, len(heads)), dtype=np.uint32)
    for c, w in enumerate(heads):
        words[: len(w), :, c] = np.array(w, dtype=np.uint32)[:, None]
    cols = np.arange(len(heads))
    words[head_len, :, cols] = (tags & np.uint64(_MASK32)).astype(np.uint32)
    if two:  # 0 past a one-word tag's end, where no call reads it
        words[head_len + 1, :, cols] = high.astype(np.uint32)
    words = words.reshape(width, -1)
    lengths = (head_len + 1 + (high > 0)[:, None]).ravel()

    const, mult = _INIT_A, _MULT_A

    def hashmix(v):
        nonlocal const
        v = v ^ np.uint32(const)
        const = const * mult & _MASK32
        v = v * np.uint32(const)
        return v ^ (v >> np.uint32(16))

    # mix_entropy
    pool = [hashmix(words[i]) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL, width):
        for dst in range(_POOL):
            pool[dst] = np.where(lengths > src, _mix(pool[dst], hashmix(words[src])), pool[dst])

    # generate_state: 8 words hashed cycling through the pool, read as 4
    # little-endian uint64 pairs
    const, mult = _INIT_B, _MULT_B
    state = np.array([hashmix(pool[i % _POOL]) for i in range(2 * _POOL)])
    out = np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64)
    return out.reshape(tags.size, len(heads), _POOL)


class _SeedWords(np.random.bit_generator.ISeedSequence):
    """Hands PCG64 a row of ``_seed_words`` as its seed state."""

    def __init__(self, words):
        # PCG64 reads the state through a raw pointer: a strided or
        # non-native row would seed it from the wrong memory
        if not (words.dtype == np.uint64 and words.shape == (_POOL,) and words.flags.c_contiguous):
            raise ValueError(f"seed words must be a C-contiguous native uint64 array of {_POOL}")
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words  # PCG64 asks for 4 uint64 words


def _seeded(words) -> np.random.Generator:
    """The generator of ``_stream(key)`` from ``words``, the key's row of
    ``_seed_words``, with no SeedSequence hashed; ``ValueError`` unless the
    row is a C-contiguous native uint64 array of 4."""
    return np.random.Generator(np.random.PCG64(_SeedWords(words)))


def _mix64(z):
    """SplitMix64's finaliser, a bijection of 64-bit words; works on a
    Python int below 2**64 and elementwise on a uint64 array."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _key_hash(key, h: int = 0) -> int:
    """The counter-hash seed of ``key``: its ``_key_words`` folded onto ``h``
    with SplitMix64's increment and finaliser.  Folding a key's tail onto the
    hash of its prefix gives the hash of the whole key."""
    for w in _key_words(key):
        h = _mix64(((h + _GOLDEN) & _MASK64) ^ w)
    return h


def _key_hashes(h, v):
    """``_key_hash((v,), h)`` elementwise over uint64 arrays: the one word
    of each v below 2**32, else its two words, folded onto h."""
    h = _mix64((h + np.uint64(_GOLDEN)) ^ (v & np.uint64(_MASK32)))
    return np.where(v >> np.uint64(32) > 0, _mix64((h + np.uint64(_GOLDEN)) ^ (v >> np.uint64(32))), h)


def _draw_subsamples(hashes, shard_sizes, sizes) -> np.ndarray:
    """C draws of every worker's subsample (for cells, steps or both), in
    one array pass: draw c is keyed by ``hashes[c]``, the ``_key_hash`` of
    its key, and in it worker m draws ``sizes[c, m]`` of
    ``range(shard_sizes[m])`` uniformly without replacement, in ascending
    order.  The result concatenates the draws in key order and each draw's
    workers in worker order; each draw equals its own one-key call.

    Counter-based (Salmon et al., SC'11): slot j of worker m in redraw round
    r reads the top 53 bits of SplitMix64's output at position j + r * 2**32
    of a stream seeded by hashing (key, m), so every draw is a pure function
    of (key, m, j, r) and no worker's draw depends on another's.  Slot j
    takes floor(u * n_m); a slot that repeats an index of a lower slot of its
    worker is redrawn until all are distinct.  The rule treats every index
    alike, so every subset is equally likely, up to the 2**-53 rounding of
    u * n_m (shards below 2**53 rows, sizes below 2**32).  A worker with
    2 k_m > n_m draws the n_m - k_m rows it leaves out instead.

    Each redraw round hashes only the slots it redraws and finds the
    repeats with one ``np.sort`` of packed keys (row << b) | slot, where
    rows are numbered across the stacked shards of the draw's segments and
    b bits hold a slot number.  The keys are distinct, so their order is
    the stable order of the rows.  A key must fit in 63 bits: with S the
    sum of those shard sizes and D the slots drawn, (S - 1).bit_length() +
    (D - 1).bit_length() <= 63, else ``ValueError``, raised before any
    array of slots is made.
    """
    cells, workers = np.nonzero(sizes)
    n, k = np.asarray(shard_sizes)[workers], sizes[cells, workers]
    if (k == n).all():  # every segment takes its whole shard (the ``full`` policy)
        return _segment_ranks(k)
    flip = 2 * k > n
    d = np.where(flip, n - k, k)  # slots each (key, worker) segment draws
    bits = (int(d.sum()) - 1).bit_length()
    if (int(n.sum()) - 1).bit_length() + bits > 63:
        raise ValueError(f"{int(d.sum())} slots over {int(n.sum())} stacked rows do not pack into 63-bit keys")
    # rows are numbered across the segments' stacked shards, so one sort
    # finds the repeats of every segment
    stacked = _segment_starts(n)
    first, scale = np.repeat(stacked, d), np.repeat(n * 2.0**-53, d)
    seeds = _mix64(np.array(hashes, dtype=np.uint64)[cells] + (workers.astype(np.uint64) + 1) * np.uint64(_GOLDEN))
    counters = np.repeat(seeds, d) + _segment_ranks(d).astype(np.uint64) * np.uint64(_GOLDEN)

    def draw_rows(r, slots):
        z = _mix64(counters[slots] + np.uint64(((r << 32) * _GOLDEN) & _MASK64))
        return first[slots] + ((z >> 11) * scale[slots]).astype(np.intp)

    slot, mask = np.arange(d.sum()), (1 << bits) - 1
    rows = draw_rows(0, slice(None))
    for r in itertools.count(1):
        keys = np.sort((rows << bits) | slot)  # a repeat's lowest slot comes first
        out = keys >> bits
        repeat = keys[1:][out[1:] == out[:-1]] & mask
        if not repeat.size:
            break
        rows[repeat] = draw_rows(r, repeat)
    order = keys & mask
    if flip.any():  # such a segment keeps the rows it did not draw
        left_out = np.repeat(flip, d)[order]
        flip_rows = np.repeat(stacked[flip], n[flip]) + _segment_ranks(n[flip])
        kept = np.ones(flip_rows.size, dtype=bool)
        kept[np.searchsorted(flip_rows, out[left_out])] = False
        out = np.sort(np.concatenate((out[~left_out], flip_rows[kept])))
    return out - np.repeat(stacked, k)


def estimate_shard_weight(problem, shard_id: int, x, x_anchor, n_m: int, rng) -> float:
    """Norm of the subsampled mean gradient difference for one shard.

    Draws ``n_m`` sample indices uniformly without replacement, with
    ``rng.choice(shard size, n_m, replace=False)``, and returns
    || mean_j (grad f_j(x) - grad f_j(x_anchor)) ||_2 over the draw.  With
    ``n_m`` equal to the shard size this is the exact difference norm.  This
    is one segment of the optimizer's batched estimate, bit for bit.
    """
    shard = problem.shard(shard_id)
    if not 1 <= n_m <= shard.size:
        raise ValueError(f"n_m must be in [1, {shard.size}], got {n_m}")
    rows, counts = np.sort(rng.choice(shard.size, n_m, replace=False)) + problem.offsets[shard_id], [n_m]
    A, y, ra = prob._gather_block(problem, rows, np.reshape(x_anchor, (1, -1)), counts, 1, {})
    r = prob._residuals(problem, A[0], y[0], np.reshape(x, (1, -1)), counts) - ra[0]
    return float(np.linalg.norm(prob._segment_sums(r, A[0], counts) / n_m, axis=1)[0])  # the batch's norm


def _inverse_cdf(probabilities: np.ndarray, u) -> np.ndarray:
    """Inverse-CDF draws (0-based indices) from ``probabilities`` at the
    uniforms ``u``, elementwise.  Rounding can leave the cumulative sum of
    the positive entries just below a uniform, so a draw past the last
    positive entry falls back to it, as the tree protocols' leaf stage does:
    no draw lands on a zero-weight category."""
    cum = np.cumsum(probabilities)
    cum[-1] = 1.0
    last = probabilities.size - 1 - int(np.argmax(probabilities[::-1] > 0.0))
    return np.minimum(np.searchsorted(cum, u, side="right"), last)


def sample_categorical(dist: Categorical, rng) -> int:
    """One inverse-CDF draw from a categorical distribution (0-based index)."""
    return int(_inverse_cdf(dist.probabilities, rng.random()))
