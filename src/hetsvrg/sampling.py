"""Categorical weight machinery for adaptive worker selection.

Covers categorical distributions (the variance-minimizing one weights each
worker by its gradient-difference norm), subsample-based estimation of those
norms (with the concentration-driven sample-size rule), and the decomposition
of a noisily-estimated categorical distribution into (1 - gamma) * exact +
gamma * residual.
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


SUBSAMPLE_POLICIES = ("fixed", "full")


@dataclass(frozen=True)
class EstimationConfig:
    """How workers estimate their gradient-difference weights.

    subsample_policy : ``fixed`` (capped fraction of the shard, the default)
        or ``full`` (exact weights); see :func:`subsample_sizes`.
    fixed_n : optional override of the fixed subsample size; when None the
        fixed policy uses max(16, ceil(0.1 * shard size)), capped at the shard.
    """

    subsample_policy: str = "fixed"
    fixed_n: int | None = None

    def __post_init__(self):
        if self.subsample_policy not in SUBSAMPLE_POLICIES:
            raise ValueError(f"subsample_policy must be one of {SUBSAMPLE_POLICIES}")
        if self.fixed_n is not None:
            object.__setattr__(self, "fixed_n", comm._count(self.fixed_n, "fixed_n"))
            if self.fixed_n < 1:
                raise ValueError("fixed_n must be at least 1")


def subsample_sizes(shard_sizes, config: EstimationConfig):
    """Each shard's subsample size under ``config``'s policy, elementwise for
    an integer array of shard sizes: the whole shard under ``full``, and
    under ``fixed`` ``fixed_n`` or max(16, ceil(0.1 * shard size)), capped
    at the shard.  It reads no point, so a run's sizes are one constant, at
    least 1 for every nonempty shard."""
    sizes = np.asarray(shard_sizes)
    if config.subsample_policy == "full":
        n = sizes
    else:
        n = config.fixed_n if config.fixed_n is not None else np.maximum(16, np.ceil(0.1 * sizes).astype(int))
    out = np.minimum(sizes, n)
    return out if out.ndim else int(out)


def subsample_size(d: int, range_norm: float, mean_norm: float, *, tau: float, delta: float) -> int:
    """Lemma 1's sample count, guaranteeing relative error ``tau`` in (0, 1]
    with probability 1 - ``delta``, ``delta`` in (0, 1).

    Evaluates ceil( (1/tau^2) * ||b-a||^2 / (2 ||mu||^2) * log(2d / delta) )
    for d-dimensional vectors whose coordinates span range_norm and whose mean
    has norm mean_norm.  Sampling is without replacement, so callers clamp the
    result to the population size.  No run reads it: a run's sizes come from
    :func:`subsample_sizes`.
    """
    d = comm._count(d, "d")  # 2.5 is a ValueError, not a size between d = 2's and d = 3's
    if d < 1:
        raise ValueError("d must be at least 1")
    if not 0.0 < tau <= 1.0:
        raise ValueError(f"tau must be in (0, 1], got {tau}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    for name, norm in (("range_norm", range_norm), ("mean_norm", mean_norm)):
        if not math.isfinite(norm):
            raise ValueError(f"{name} must be finite, got {norm}")
    if range_norm < 0:
        raise ValueError("range_norm must be nonnegative")
    if mean_norm <= 0:
        raise DegenerateWeights("mean norm is zero; the relative-error target is undefined")
    n = (range_norm**2) / (2.0 * mean_norm**2) / tau**2 * math.log(2.0 * d / delta)
    # tolerate float noise at integer boundaries before rounding up
    return max(1, math.ceil(n - 1e-9))


def _segment_starts(counts: np.ndarray) -> np.ndarray:
    return np.cumsum(counts) - counts


def _segment_ranks(counts: np.ndarray) -> np.ndarray:
    """0, 1, .., counts[i] - 1 for every segment i, concatenated."""
    return np.arange(counts.sum()) - np.repeat(_segment_starts(counts), counts)


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
    SeedSequence's slower per-int coercion of the key."""
    words = np.array(_key_words(key), dtype=np.uint32)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(words)))


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


_TABLE_ROWS_PER_SLOT = 8  # stacked rows a slot up to which a table beats the sort: the measured crossover (see README)


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

    Rows are numbered across the stacked shards of the draw's segments, so
    one array finds the repeats of every segment, and each redraw round
    hashes only the slots it redraws.  With S those stacked rows and D the
    slots drawn, a draw with S <= ``_TABLE_ROWS_PER_SLOT`` * D keeps an
    owner table of S entries, each row's lowest slot: round 0 scatters
    every slot into it with ``np.minimum.at``, and each later round looks
    up only the slots that lost (the redrawn ones, and the holders a lower
    redrawn slot took a row from).  The drawn rows are then the table's
    filled entries, and a flipped segment's the empty ones, in ascending
    order with no sort.  The bound is the measured crossover: at 4096 and
    16384 slots the table took 0.4-0.9 of the sort's time at 2-6 stacked
    rows a slot, about as long at 10 and 1.2-2.7 times as long at 16-62.
    A larger S (huge shards, tiny subsamples) would not fit a table, and
    no draw's table holds more than ``_TABLE_ROWS_PER_SLOT`` entries a
    slot: each round then sorts packed keys (row << b) | slot,
    b bits holding a slot number, whose order is the stable order of the
    rows.  Such a key must fit in 63 bits: (S - 1).bit_length() +
    (D - 1).bit_length() <= 63, else ``ValueError``, raised before any
    array of slots is made.
    """
    cells, workers = np.nonzero(sizes)
    n, k = np.asarray(shard_sizes)[workers], sizes[cells, workers]
    flip = 2 * k > n
    d = np.where(flip, n - k, k)  # slots each (key, worker) segment draws
    slots, total = int(d.sum()), int(n.sum())
    table = total <= _TABLE_ROWS_PER_SLOT * slots
    bits = (slots - 1).bit_length()
    if not table and (total - 1).bit_length() + bits > 63:
        raise ValueError(f"{slots} slots over {total} stacked rows do not pack into 63-bit keys")
    stacked = _segment_starts(n)
    first, scale = np.repeat(stacked, d), np.repeat(n * 2.0**-53, d)
    seeds = _mix64(np.array(hashes, dtype=np.uint64)[cells] + (workers.astype(np.uint64) + 1) * np.uint64(_GOLDEN))
    counters = np.repeat(seeds, d) + _segment_ranks(d).astype(np.uint64) * np.uint64(_GOLDEN)

    def draw_rows(r, slots):
        z = _mix64(counters[slots] + np.uint64(((r << 32) * _GOLDEN) & _MASK64))
        return first[slots] + ((z >> 11) * scale[slots]).astype(np.intp)

    slot = np.arange(slots)
    rows = draw_rows(0, slice(None))
    if table:
        owner = np.full(total, slots)  # each row's lowest slot, or ``slots`` where none holds it
        np.minimum.at(owner, rows, slot)
        lost = slot[owner[rows] != slot]
        for r in itertools.count(1):
            if not lost.size:
                break
            rows[lost] = new = draw_rows(r, lost)
            held = owner[new]
            np.minimum.at(owner, new, lost)
            now = owner[new]
            # the holders a lower redrawn slot displaced (an empty row's marker is none) and the redrawn
            # slots a lower one beat; a slot listed twice redraws the same row twice
            lost = np.concatenate((lost[now != lost], held[(now < held) & (held < slots)]))
        drawn = owner < slots
        if flip.any():  # such a segment keeps the rows it did not draw
            drawn ^= np.repeat(flip, n)
        return np.flatnonzero(drawn) - np.repeat(stacked, k)
    mask = (1 << bits) - 1
    for r in itertools.count(1):
        keys = np.sort((rows << bits) | slot)  # a repeat's lowest slot comes first
        out = keys >> bits
        repeat = keys[1:][out[1:] == out[:-1]] & mask
        if not repeat.size:
            break
        rows[repeat] = draw_rows(r, repeat)
    order = keys & mask
    if flip.any():
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
