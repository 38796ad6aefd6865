"""Simulated worker/server cluster with explicit communication accounting.

"Sending" is a function call that increments a ledger; there is no real wire.
Two weighted-sampling protocols are provided, both returning R worker indices
drawn with replacement proportionally to locally-held weights:

* ``pc_sample`` -- group leaders sample locally, then pairs of subtree owners
  merge their R candidate index vectors over log2(M/R) synchronous rounds.
* ``optimal_comm_sample`` -- same first stage, but the R candidates are
  spread over R parallel single-index merge chains, trading a stage of R
  rounds up front for O(R + log(M/R)) total latency.

Scalars are counted per the message contents: an (index, weight) pair costs
2, an (R indices, weight) tuple costs R + 1.  Worker counts that are not a
power-of-two multiple of R are padded with virtual zero-weight workers; the
virtual slots never send chargeable messages and can never be sampled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


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

    def items(self) -> list[tuple[int, int]]:
        """(worker, multiplicity) pairs in ascending worker order."""
        return sorted(self.counts.items())


@dataclass
class NodeState:
    """What one tree node holds mid-protocol: candidate indices and the
    cumulative weight of the subtree it represents."""

    held_indices: list = field(default_factory=list)
    cumulative_weight: float = 0.0


def _checked_weights(weights) -> list[float]:
    w = [float(v) for v in weights]
    if not w:
        raise ValueError("need at least one worker weight")
    # one pass: NaN fails both comparisons; a local inf keeps the per-item
    # check as cheap as the old sign test on wide topologies
    inf = math.inf
    if not all(0.0 <= v < inf for v in w):
        raise ValueError("weights must be finite and nonnegative")
    if not any(w):
        raise ValueError("at least one weight must be positive")
    return w


def _draw_index(weights: list[float], offset: int, total: float, rng) -> int:
    """Inverse-CDF draw over ``weights``; zero-weight entries are never picked."""
    u = rng.random() * total
    acc = 0.0
    last = offset
    for j, wv in enumerate(weights):
        if wv > 0.0:
            acc += wv
            last = offset + j
            if u < acc:
                return last
    return last  # u landed on the top boundary; return the last positive entry


def _group_states(w: list[float], R: int, groups: int, rng) -> list[NodeState]:
    """Leaders sample R in-group indices with replacement (the leaf stage)."""
    states = []
    for g in range(groups):
        local = w[g * R : (g + 1) * R]
        total = sum(local)
        node = NodeState(cumulative_weight=total)
        if total > 0.0:
            node.held_indices = [_draw_index(local, g * R, total, rng) for _ in range(R)]
        states.append(node)
    return states


def _line1_scalars(m_real: int, R: int) -> int:
    """Gather-to-leader cost: every real non-leader sends an (index, weight) pair."""
    real_leaders = len(range(R - 1, m_real, R))
    return 2 * (m_real - real_leaders)


def pc_sample(weights, R: int, ledger: CommLedger, rng) -> SampleHistogram:
    """Tree-structured weighted sampling of R indices with replacement.

    Marginal of every slot is w_i / sum(w).  Charges the ledger with the
    exact message schedule: 2 scalars per leader-bound send, R + 1 per merge send,
    and 1 + log2(padded M / R) synchronous rounds.
    """
    w = _checked_weights(weights)
    if R < 1:
        raise ValueError("R must be at least 1")
    topo = Topology(len(w), R)
    w_pad = w + [0.0] * (topo.padded_workers - len(w))
    groups = topo.padded_workers // R

    ledger.worker_worker_scalars += _line1_scalars(len(w), R)
    ledger.parallel_rounds += 1 + topo.levels

    nodes = _group_states(w_pad, R, groups, rng)
    for h in range(1, topo.levels + 1):
        step = 1 << h
        for rg in range(step - 1, groups, step):
            sg = rg - step // 2
            sender_slot = sg * R + R - 1
            if sender_slot < len(w):
                ledger.worker_worker_scalars += R + 1
            _merge_into(nodes[rg], nodes[sg], R, rng)

    final = nodes[groups - 1]
    counts: dict[int, int] = {}
    for i in final.held_indices:
        counts[i] = counts.get(i, 0) + 1
    return SampleHistogram(counts=counts, total=R)


def _merge_into(receiver: NodeState, sender: NodeState, R: int, rng) -> None:
    """Receiver resamples each slot between its own and the sender's candidate,
    weighted by the two subtree totals."""
    total = receiver.cumulative_weight + sender.cumulative_weight
    if total > 0.0:
        thresh = sender.cumulative_weight / total
        receiver.held_indices = [
            sender.held_indices[j] if rng.random() < thresh else receiver.held_indices[j]
            for j in range(R)
        ]
    receiver.cumulative_weight = total


def optimal_comm_sample(weights, R: int, ledger: CommLedger, rng) -> SampleHistogram:
    """Latency-optimised variant: same marginals and O(M) scalars as
    ``pc_sample``, but R single-index merge chains run in parallel so the
    round count is R (leader receive stage) + 1 (candidate spread) +
    log2(padded M / R) instead of per-round R-sized payloads.
    """
    w = _checked_weights(weights)
    if R < 1:
        raise ValueError("R must be at least 1")
    topo = Topology(len(w), R)
    w_pad = w + [0.0] * (topo.padded_workers - len(w))
    groups = topo.padded_workers // R

    ledger.worker_worker_scalars += _line1_scalars(len(w), R)
    ledger.parallel_rounds += R + 1 + topo.levels

    group_nodes = _group_states(w_pad, R, groups, rng)
    # candidate spread: leader keeps slot R-1, sends (index, weight) pairs to
    # the other R-1 machines of its group
    slots = []
    for g, node in enumerate(group_nodes):
        leader_slot = g * R + R - 1
        if leader_slot < len(w):
            ledger.worker_worker_scalars += 2 * (R - 1)
        for j in range(R):
            held = [node.held_indices[j]] if node.held_indices else []
            slots.append(NodeState(held_indices=held, cumulative_weight=node.cumulative_weight))

    for h in range(1, topo.levels + 1):
        step = 1 << h
        for rg in range(step - 1, groups, step):
            sg = rg - step // 2
            for j in range(R):
                sender_slot = sg * R + j
                if sender_slot < len(w):
                    ledger.worker_worker_scalars += 2
                _merge_into(slots[rg * R + j], slots[sender_slot], 1, rng)

    counts: dict[int, int] = {}
    for j in range(R):
        i = slots[(groups - 1) * R + j].held_indices[0]
        counts[i] = counts.get(i, 0) + 1
    return SampleHistogram(counts=counts, total=R)


def server_broadcast(ledger: CommLedger, payload_scalars: int, m_workers: int) -> None:
    """Server pushes ``payload_scalars`` values to every worker (one round)."""
    if payload_scalars < 0:
        raise ValueError("payload_scalars must be nonnegative")
    ledger.server_worker_scalars += m_workers * payload_scalars
    ledger.parallel_rounds += 1


def server_gather(ledger: CommLedger, payload_scalars: int, m_workers: int) -> None:
    """Every worker pushes ``payload_scalars`` values to the server (one round)."""
    if payload_scalars < 0:
        raise ValueError("payload_scalars must be nonnegative")
    ledger.worker_server_scalars += m_workers * payload_scalars
    ledger.parallel_rounds += 1
