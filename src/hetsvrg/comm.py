"""Simulated worker/server cluster with explicit communication accounting.

"Sending" is a function call that increments a ledger; there is no real wire.
Two weighted-sampling protocols are provided, both returning R worker indices
drawn with replacement proportionally to locally-held weights:

* ``pc_sample`` -- group leaders sample locally, then pairs of subtree owners
  merge their R candidate index vectors over log2(M/R) synchronous rounds.
* ``optimal_comm_sample`` -- same first stage, but the R candidates are
  spread over R parallel single-index merge chains, trading a stage of R
  rounds up front for O(R + log(M/R)) total latency.

Both make the draws of the tree run one node and one uniform at a time, so
from the same generator state they return the same histogram and differ only
in the messages and rounds they charge.  Weights must be 1-D, finite and
nonnegative, with a positive, finite total; otherwise ``ValueError``.

Scalars are counted per the message contents: an (index, weight) pair costs
2, an (R indices, weight) tuple costs R + 1.  Worker counts that are not a
power-of-two multiple of R are padded with virtual zero-weight workers; the
virtual slots never send chargeable messages and can never be sampled.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np


@dataclass
class CommLedger:
    """Scalars moved per channel class plus synchronous protocol rounds."""

    worker_worker_scalars: int = 0
    worker_server_scalars: int = 0
    server_worker_scalars: int = 0
    parallel_rounds: int = 0

    CSV_HEADER = "phase,worker_worker,worker_server,server_worker,rounds"

    def snapshot(self) -> tuple[int, int, int, int]:
        return (
            self.worker_worker_scalars,
            self.worker_server_scalars,
            self.server_worker_scalars,
            self.parallel_rounds,
        )

    def csv_row(self, phase: str) -> str:
        ww, ws, sw, rounds = self.snapshot()
        return f"{phase},{ww},{ws},{sw},{rounds}"


@dataclass(frozen=True)
class Topology:
    """Cluster shape: M workers sampled in groups of R.

    ``padded_workers`` rounds M up so the padded count is a multiple of R with
    a power-of-two number of groups, as the tree protocols require.
    """

    m_workers: int
    group_size: int

    def __post_init__(self):
        if not 1 <= self.group_size <= self.m_workers:
            raise ValueError(
                f"need m_workers >= group_size >= 1, got M={self.m_workers}, R={self.group_size}"
            )

    @property
    def levels(self) -> int:
        """Merge rounds: log2 of the padded group count."""
        groups = -(-self.m_workers // self.group_size)
        return (groups - 1).bit_length()

    @property
    def padded_workers(self) -> int:
        return (1 << self.levels) * self.group_size


@dataclass(frozen=True)
class SampleHistogram:
    """Multiset of R sampled worker indices, as index -> multiplicity."""

    counts: dict[int, int]
    total: int

    def __post_init__(self):
        if sum(self.counts.values()) != self.total:
            raise ValueError("histogram multiplicities must sum to the draw count")
        if any(m < 1 for m in self.counts.values()) or any(i < 0 for i in self.counts):
            raise ValueError("histogram keys must be worker indices with positive multiplicity")

    @classmethod
    def _drawn(cls, counts: dict[int, int], total: int) -> "SampleHistogram":
        """A histogram tallied from ``total`` drawn worker indices, valid by
        construction, so ``__post_init__``'s check is skipped."""
        hist = object.__new__(cls)
        object.__setattr__(hist, "counts", counts)
        object.__setattr__(hist, "total", total)
        return hist

    def items(self) -> list[tuple[int, int]]:
        """(worker, multiplicity) pairs in ascending worker order."""
        return sorted(self.counts.items())


def _checked_weights(weights) -> np.ndarray:
    """Weights as a 1-D array of nonnegative floats; ``_tree_draw`` checks
    their total, which it forms anyway."""
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1:
        raise ValueError(f"weights must be one-dimensional, got shape {w.shape}")
    if not w.size:
        raise ValueError("need at least one worker weight")
    if not w.min() >= 0.0:  # a NaN minimum fails too
        raise ValueError("weights must be finite and nonnegative")
    return w


@functools.lru_cache(maxsize=64)
def _group_column(groups: int) -> np.ndarray:
    """0 .. groups - 1 as a read-only column."""
    rows = np.arange(groups)
    rows.flags.writeable = False
    return rows[:, None]


def _tree_draw(w: np.ndarray, R: int, topo: Topology, rng) -> list[int]:
    """The R candidates that reach the root of the sampling tree, in O(log G)
    array operations over its G groups.

    The draws are those of the tree run one node at a time: each group with a
    positive total spends R uniforms on inverse-CDF leaf draws (in group
    order), then each merge with a positive total R coin flips (level by
    level, in receiver order), keeping the sender's candidate where
    ``u < sender_total / total``.  Which nodes draw depends only on the
    weights, so one ``rng.random`` call covers them all.
    """
    padded_workers = topo.padded_workers
    groups = padded_workers // R
    padded = w
    if w.size < padded_workers:
        padded = np.zeros(padded_workers)
        padded[: w.size] = w
    padded = padded.reshape(groups, R)
    cum = padded.cumsum(axis=1) if R > 1 else padded  # left to right, as a leader adds

    # node totals, leaves first and then each merge level; blocks have even
    # length, so the pairs (2i, 2i + 1) are always (sender, receiver) and node
    # groups + i is their merge.  An overflow reaches the root and is raised.
    totals = np.empty(2 * groups - 1)
    totals[:groups] = cum[:, -1]
    lo, n = 0, groups
    while n > 1:
        np.add(totals[lo + 1 : lo + n : 2], totals[lo : lo + n : 2], out=totals[lo + n : lo + n + n // 2])
        lo, n = lo + n, n // 2
    root = float(totals[-1])
    if not math.isfinite(root):
        raise ValueError("weights must be finite and have a finite total")
    if not root > 0.0:
        raise ValueError("at least one weight must be positive")
    # totals are sums of nonnegative weights and the root is finite, so a
    # nonzero total is a live node
    n_live = np.count_nonzero(totals)
    if n_live == totals.size:
        u = rng.random(R * n_live).reshape(-1, R)
    else:
        u = np.zeros((totals.size, R))
        u[totals > 0.0] = rng.random(R * n_live).reshape(-1, R)

    # leaf stage: the count of cum <= u in a group is its first entry whose
    # cum exceeds u, always a positive one; u == total falls back to the
    # group's last positive entry.  Complex keys sort by (group, value), so
    # one searchsorted answers every group at once with no arithmetic on cum.
    rows = _group_column(groups)
    if R == 1:
        cand = rows  # a one-worker group always draws its worker
    else:
        keys = np.empty((groups, R), dtype=complex)
        keys.real, keys.imag = rows, cum
        queries = np.empty_like(keys)
        queries.real, queries.imag = rows, u[:groups] * totals[:groups, None]
        first = np.searchsorted(keys.ravel(), queries.ravel(), side="right").reshape(groups, R)
        last = R * rows + (R - 1) - (padded[:, ::-1] > 0.0).argmax(axis=1)[:, None]
        cand = np.minimum(first, last)

    # a dead merge has sender total 0 and so threshold 0: it never takes the
    # sender.  5e-324 is the smallest positive double, so flooring with it
    # leaves every live total as it is and only keeps 0 / 0 away.
    take_sender = u[groups:] < (totals[:-1:2] / np.maximum(totals[groups:], 5e-324))[:, None]
    lo, n = 0, groups // 2
    while n:
        cand = np.where(take_sender[lo : lo + n], cand[0::2], cand[1::2])
        lo, n = lo + n, n // 2
    return cand[0].tolist()


def _senders(levels: int):
    """The sending group of every merge, level by level."""
    for h in range(1, levels + 1):
        yield from range((1 << (h - 1)) - 1, 1 << levels, 1 << h)


@functools.lru_cache(maxsize=64)
def _pc_schedule(m_real: int, R: int) -> tuple[int, int]:
    """Worker-worker scalars and rounds of one ``pc_sample`` call: 2 per real
    non-leader's (index, weight) pair to its leader, R + 1 per merge send from
    a real leader."""
    levels = Topology(m_real, R).levels
    merges = sum((sg + 1) * R <= m_real for sg in _senders(levels))
    return 2 * (m_real - m_real // R) + (R + 1) * merges, 1 + levels


@functools.lru_cache(maxsize=64)
def _optimal_schedule(m_real: int, R: int) -> tuple[int, int]:
    """Worker-worker scalars and rounds of one ``optimal_comm_sample`` call:
    the same leader pairs, 2(R - 1) per real leader spreading its candidates,
    and 2 per chain link sent by a real worker."""
    levels = Topology(m_real, R).levels
    full = m_real // R
    links = sum(min(R, max(0, m_real - sg * R)) for sg in _senders(levels))
    return 2 * (m_real - full) + 2 * (R - 1) * full + 2 * links, R + 1 + levels


def _sample(weights, R: int, ledger: CommLedger, rng, schedule) -> SampleHistogram:
    w = _checked_weights(weights)
    if R < 1:
        raise ValueError("R must be at least 1")
    indices = _tree_draw(w, R, Topology(w.size, R), rng)
    scalars, rounds = schedule(w.size, R)
    ledger.worker_worker_scalars += scalars
    ledger.parallel_rounds += rounds
    counts: dict[int, int] = {}
    for i in indices:
        counts[i] = counts.get(i, 0) + 1
    return SampleHistogram._drawn(counts, R)


def pc_sample(weights, R: int, ledger: CommLedger, rng) -> SampleHistogram:
    """Tree-structured weighted sampling of R indices with replacement.

    Marginal of every slot is w_i / sum(w).  Charges the ledger with the
    exact message schedule: 2 scalars per leader-bound send, R + 1 per merge
    send, and 1 + log2(padded M / R) synchronous rounds.
    """
    return _sample(weights, R, ledger, rng, _pc_schedule)


def optimal_comm_sample(weights, R: int, ledger: CommLedger, rng) -> SampleHistogram:
    """Latency-optimised variant: same draws and O(M) scalars as
    ``pc_sample``, but R single-index merge chains run in parallel so the
    round count is R (leader receive stage) + 1 (candidate spread) +
    log2(padded M / R) instead of per-round R-sized payloads.
    """
    return _sample(weights, R, ledger, rng, _optimal_schedule)


def server_broadcast(ledger: CommLedger, payload_scalars: int, m_workers: int) -> None:
    """Server pushes ``payload_scalars`` values to each of ``m_workers`` workers (one round)."""
    if payload_scalars < 0:
        raise ValueError("payload_scalars must be nonnegative")
    ledger.server_worker_scalars += m_workers * payload_scalars
    ledger.parallel_rounds += 1


def server_gather(ledger: CommLedger, payload_scalars: int, m_workers: int) -> None:
    """Each of ``m_workers`` workers pushes ``payload_scalars`` values to the server (one round)."""
    if payload_scalars < 0:
        raise ValueError("payload_scalars must be nonnegative")
    ledger.worker_server_scalars += m_workers * payload_scalars
    ledger.parallel_rounds += 1
