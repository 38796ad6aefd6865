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
``pc_sample_cells`` runs ``pc_sample`` for C cells (a (C, M) weight array,
one generator and ledger per cell) in one array pass over all their trees;
each cell's draws are those of its own call.

Scalars are counted per the message contents: an (index, weight) pair costs
2, an (R indices, weight) tuple costs R + 1.  Worker counts that are not a
power-of-two multiple of R are padded with virtual zero-weight workers; the
virtual slots never send chargeable messages and can never be sampled.
"""

from __future__ import annotations

import functools
import math
import operator
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
    a power-of-two number of groups, as the tree protocols require.  Both
    counts are stored as ``int`` (see ``_count``).
    """

    m_workers: int
    group_size: int

    def __post_init__(self):
        object.__setattr__(self, "m_workers", _count(self.m_workers, "m_workers"))
        object.__setattr__(self, "group_size", _count(self.group_size, "group_size"))
        if not 1 <= self.group_size <= self.m_workers:
            raise ValueError(
                f"need m_workers >= group_size >= 1, got M={self.m_workers}, R={self.group_size}"
            )

    @functools.cached_property
    def levels(self) -> int:
        """Merge rounds: log2 of the padded group count."""
        groups = -(-self.m_workers // self.group_size)
        return (groups - 1).bit_length()

    @functools.cached_property
    def padded_workers(self) -> int:
        return (1 << self.levels) * self.group_size


@dataclass(frozen=True)
class SampleHistogram:
    """Multiset of the ``total`` worker indices a protocol drew, as index ->
    multiplicity; the protocols tally it from their draws."""

    counts: dict[int, int]
    total: int

    def items(self) -> list[tuple[int, int]]:
        """(worker, multiplicity) pairs in ascending worker order."""
        return sorted(self.counts.items())


_topology = functools.lru_cache(maxsize=64)(Topology)


def _count(value, name: str) -> int:
    """``value`` as an ``int`` through ``operator.index``, so a numpy integer
    is accepted and 2.0 or 2.5 is a ``ValueError``.  Counts are converted
    before they key a cache: 2, np.int64(2) and 2.0 hash and compare equal."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _checked_weights(weights, ndim: int = 1) -> np.ndarray:
    """Weights as an ``ndim``-dimensional array of nonnegative floats;
    ``_tree_draw`` checks their totals, which it forms anyway."""
    w = np.asarray(weights, dtype=float)
    if w.ndim != ndim:
        raise ValueError(f"weights must be {('one', 'two')[ndim - 1]}-dimensional, got shape {w.shape}")
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


@functools.lru_cache(maxsize=64)
def _group_starts(groups: int, R: int) -> np.ndarray:
    """The first flat index, R * group, of each of R queries per group, as
    a read-only (groups * R,) array: where ``_upper_bound`` starts them."""
    starts = np.repeat(np.arange(0, groups * R, R), R)
    starts.flags.writeable = False
    return starts


@functools.lru_cache(maxsize=64)
def _level_order(cells: int, groups: int) -> np.ndarray:
    """For every node of ``_tree_draw``'s level-major order (each level's
    nodes, cell by cell), its index in the (cell, node) order, where each
    cell's 2 * groups - 1 nodes run from its leaves to its root."""
    nodes, parts, start, n = 2 * groups - 1, [], 0, groups
    while n:
        parts.append((nodes * _group_column(cells) + np.arange(start, start + n)).ravel())
        start, n = start + n, n // 2
    order = np.concatenate(parts)
    order.flags.writeable = False
    return order


def _tree_draw(w: np.ndarray, R: int, topo: Topology, rngs) -> np.ndarray:
    """The R candidates that reach the root of the sampling tree of each of
    C cells, as a (C, R) array, in O(log G) array operations over the G
    groups of all cells at once, plus ceil(log2 R) + 1 gathers over their
    padded slots for the leaf draws.  ``w`` is (C, M).

    A cell's tree has 2G - 1 nodes: its G groups, then each merge level in
    receiver order.  Cell c's live nodes (those with a positive total) read
    R uniforms each, in that order, from one ``rngs[c].random`` call, and
    its draws are those of its tree run one node at a time: each live group
    spends its R uniforms on inverse-CDF leaf draws, then each live merge
    its R coin flips, keeping the sender's candidate where ``u <
    sender_total / total``.  A leaf draw counts its group's cumulative sums
    ``<= u * total`` with ``_upper_bound``.  The nodes are kept level by
    level, cell by cell within a level, so every sum and draw stays within
    one cell.
    """
    cells = w.shape[0]
    padded_workers = topo.padded_workers
    rows = cells * (padded_workers // R)  # (cell, group) rows
    padded = w
    if w.shape[1] < padded_workers:
        padded = np.zeros((cells, padded_workers))
        padded[:, : w.shape[1]] = w
    padded = padded.reshape(rows, R)
    cum = padded.cumsum(axis=1) if R > 1 else padded  # left to right, as a leader adds

    # node totals, groups first and then each merge level; below the roots
    # every level has an even number of nodes per cell, so the pairs
    # (2i, 2i + 1) are always (sender, receiver) of one cell and node rows + i
    # is their merge.  An overflow reaches a root and is raised.
    totals = np.empty(2 * rows - cells)
    totals[:rows] = cum[:, -1]
    lo, n = 0, rows
    while n > cells:
        np.add(totals[lo + 1 : lo + n : 2], totals[lo : lo + n : 2], out=totals[lo + n : lo + n + n // 2])
        lo, n = lo + n, n // 2
    roots = totals[-cells:].tolist()  # in [0, inf]: the weights are nonnegative, so no NaN
    if max(roots) == math.inf:
        raise ValueError("weights must be finite and have a finite total")
    if not min(roots) > 0.0:
        raise ValueError("at least one weight must be positive")
    if cells == 1:
        u = _rng_uniforms(rngs[0], totals, R)
    else:  # to and from the (cell, node) order
        order = _level_order(cells, padded_workers // R)
        by_cell = np.empty_like(totals)
        by_cell[order] = totals
        u = np.concatenate([_rng_uniforms(rng, t, R) for rng, t in zip(rngs, by_cell.reshape(cells, -1))])[order]

    # leaf stage: the count of cum <= u in a group is its first entry whose
    # cum exceeds u, always a positive one; u == total falls back to the
    # group's last positive entry.  One upper bound per group answers every
    # group of every cell at once, in ceil(log2 R) + 1 gathers over the
    # padded slots, with no arithmetic on cum.
    row = _group_column(rows)
    if R == 1:
        cand = row  # a one-worker group always draws its worker
    else:
        first = _upper_bound(cum, u[:rows] * totals[:rows, None])
        last = R * row + (R - 1) - (padded[:, ::-1] > 0.0).argmax(axis=1)[:, None]
        cand = np.minimum(first, last)

    # a dead merge has sender total 0 and so threshold 0: it never takes the
    # sender.  5e-324 is the smallest positive double, so flooring with it
    # leaves every live total as it is and only keeps 0 / 0 away.
    take_sender = u[rows:] < (totals[:-cells:2] / np.maximum(totals[rows:], 5e-324))[:, None]
    lo, n = 0, rows // 2
    while n >= cells:
        cand = np.where(take_sender[lo : lo + n], cand[0::2], cand[1::2])
        lo, n = lo + n, n // 2
    # candidates index the cells' stacked padded rows
    return cand - padded_workers * _group_column(cells) if cells > 1 else cand


def _upper_bound(cum: np.ndarray, q: np.ndarray) -> np.ndarray:
    """For (rows, R) ``cum``, each row sorted, and (rows, R) queries ``q``,
    the flat index R * i + (the count of cum[i] <= q[i, j]): what
    ``np.searchsorted(cum[i], q[i], side="right")`` gives, offset by row
    i's start.  A branchless upper bound (Khuong and Morin, "Array Layouts
    for Comparison-Based Searching", 2017) halves every query's range
    [first, first + n] at once, so it takes ceil(log2 R) + 1 gathers; the
    comparisons are exact, so the counts are too."""
    rows, R = cum.shape
    flat, q = cum.ravel(), q.ravel()
    first = _group_starts(rows, R).copy()
    n = R
    while n > 1:
        half = n // 2
        first += half * (flat[half - 1 :].take(first) <= q)
        n -= half
    first += flat.take(first) <= q
    return first.reshape(rows, R)


def _rng_uniforms(rng, totals: np.ndarray, R: int) -> np.ndarray:
    """The (nodes, R) uniforms of one tree's nodes with 1-D ``totals``: R
    per live node, in node order, from one ``rng.random(R * live nodes)``
    call, and 0 for a dead node.  Totals are sums of nonnegative weights
    with finite roots, so a nonzero total is a live node."""
    n_live = np.count_nonzero(totals)
    if n_live == totals.size:
        return rng.random(R * n_live).reshape(-1, R)
    u = np.zeros((totals.size, R))
    u[totals > 0.0] = rng.random(R * n_live).reshape(-1, R)
    return u


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


def _charge(ledger: CommLedger, schedule, m_real: int, R: int) -> None:
    scalars, rounds = schedule(m_real, R)
    ledger.worker_worker_scalars += scalars
    ledger.parallel_rounds += rounds


def _sample(weights, R: int, ledger: CommLedger, rng, schedule) -> SampleHistogram:
    w = _checked_weights(weights)
    R = _count(R, "R")  # Topology rejects R < 1
    indices = _tree_draw(w[None], R, _topology(w.size, R), (rng,))[0].tolist()
    _charge(ledger, schedule, w.size, R)
    counts: dict[int, int] = {}
    for i in indices:
        counts[i] = counts.get(i, 0) + 1
    return SampleHistogram(counts, R)


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


def pc_sample_cells(weights, R: int, ledgers, rngs) -> np.ndarray:
    """``pc_sample`` for C cells in one tree draw: ``weights`` is (C, M),
    and cell c's call is charged to ``ledgers[c]`` and reads ``rngs[c]`` as
    its own ``pc_sample`` call would, so it draws the same workers, and
    successive calls read each generator on as successive ``pc_sample``
    calls would.  Returns
    the (C, R) drawn workers, each row in slot order.  Anything but one
    ledger and one generator per cell is a ``ValueError``, raised before any
    draw."""
    w = _checked_weights(weights, ndim=2)
    R = _count(R, "R")  # Topology rejects R < 1
    if not len(ledgers) == len(rngs) == w.shape[0]:
        raise ValueError(f"{w.shape[0]} cells need one ledger and one generator each, "
                         f"got {len(ledgers)} ledgers and {len(rngs)} generators")
    draws = _tree_draw(w, R, _topology(w.shape[1], R), rngs)
    for ledger in ledgers:
        _charge(ledger, _pc_schedule, w.shape[1], R)
    return draws


def _server_scalars(payload_scalars: int, m_workers: int) -> int:
    """Scalars of one server round: ``payload_scalars`` for each of
    ``m_workers`` workers, both nonnegative counts (see ``_count``), else
    ``ValueError`` before any ledger is charged."""
    payload_scalars, m_workers = _count(payload_scalars, "payload_scalars"), _count(m_workers, "m_workers")
    if payload_scalars < 0 or m_workers < 0:
        raise ValueError("payload_scalars and m_workers must be nonnegative")
    return m_workers * payload_scalars


def server_broadcast(ledger: CommLedger, payload_scalars: int, m_workers: int) -> None:
    """Server pushes ``payload_scalars`` values to each of ``m_workers`` workers (one round)."""
    ledger.server_worker_scalars += _server_scalars(payload_scalars, m_workers)
    ledger.parallel_rounds += 1


def server_gather(ledger: CommLedger, payload_scalars: int, m_workers: int) -> None:
    """Each of ``m_workers`` workers pushes ``payload_scalars`` values to the server (one round)."""
    ledger.worker_server_scalars += _server_scalars(payload_scalars, m_workers)
    ledger.parallel_rounds += 1
