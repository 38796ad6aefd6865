"""The array tree draw against the sequential tree it replaces.

``sequential_pc`` and ``sequential_optimal`` run the sampling tree one node
and one uniform at a time and charge the ledger one message at a time.  Their
sums are explicit left-to-right loops, the order a leader adding its group's
weights one by one would use (``sum()`` is compensated on Python >= 3.12 and
can differ by an ulp).  Both protocols must match them on histogram, ledger
and final generator state, and every cell of a many-cell draw must match
them on its own uniforms.  The leaf stage's upper bound is also checked
against the complex-keyed ``searchsorted`` it replaced, and the whole draw
against the sequential tree at up to 4096 workers and R = 64.
"""

from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hetsvrg import comm


@dataclass
class Node:
    """Candidate indices held by a tree node and its subtree's total weight."""

    held: list = field(default_factory=list)
    total: float = 0.0


def _left_sum(values) -> float:
    acc = 0.0
    for v in values:
        acc += v
    return acc


def _draw_index(local, offset, total, rng) -> int:
    """Inverse-CDF draw over ``local``; zero-weight entries are never picked."""
    u = rng.random() * total
    acc = 0.0
    last = offset
    for j, wv in enumerate(local):
        if wv > 0.0:
            acc += wv
            last = offset + j
            if u < acc:
                return last
    return last  # u landed on the top boundary: the last positive entry


def _leaf_stage(w, R, groups, rng) -> list[Node]:
    nodes = []
    for g in range(groups):
        local = w[g * R : (g + 1) * R]
        node = Node(total=_left_sum(local))
        if node.total > 0.0:
            node.held = [_draw_index(local, g * R, node.total, rng) for _ in range(R)]
        nodes.append(node)
    return nodes


def _merge_into(receiver: Node, sender: Node, R: int, rng) -> None:
    total = receiver.total + sender.total
    if total > 0.0:
        thresh = sender.total / total
        receiver.held = [
            sender.held[j] if rng.random() < thresh else receiver.held[j] for j in range(R)
        ]
    receiver.total = total


def _merges(groups):
    """(level, receiver group, sender group) in protocol order."""
    h = 1
    while (1 << h) <= groups:
        step = 1 << h
        for rg in range(step - 1, groups, step):
            yield h, rg, rg - step // 2
        h += 1


def _histogram(indices):
    counts = {}
    for i in indices:
        counts[i] = counts.get(i, 0) + 1
    return counts


def _padded(weights, R):
    topo = comm.Topology(len(weights), R)
    w = [float(v) for v in weights] + [0.0] * (topo.padded_workers - len(weights))
    return w, topo, topo.padded_workers // R


def sequential_pc(weights, R, ledger, rng) -> dict:
    w, topo, groups = _padded(weights, R)
    m = len(weights)
    for i in range(m):
        if i % R != R - 1:
            ledger.worker_worker_scalars += 2  # (index, weight) to the leader
    ledger.parallel_rounds += 1 + topo.levels
    nodes = _leaf_stage(w, R, groups, rng)
    for _, rg, sg in _merges(groups):
        if sg * R + R - 1 < m:
            ledger.worker_worker_scalars += R + 1  # (R indices, weight)
        _merge_into(nodes[rg], nodes[sg], R, rng)
    return _histogram(nodes[groups - 1].held)


def sequential_optimal(weights, R, ledger, rng) -> dict:
    w, topo, groups = _padded(weights, R)
    m = len(weights)
    for i in range(m):
        if i % R != R - 1:
            ledger.worker_worker_scalars += 2
    ledger.parallel_rounds += R + 1 + topo.levels
    group_nodes = _leaf_stage(w, R, groups, rng)
    slots = []
    for g, node in enumerate(group_nodes):
        for j in range(R):
            if g * R + R - 1 < m and j != R - 1:
                ledger.worker_worker_scalars += 2  # leader spreads one candidate
            held = [node.held[j]] if node.held else []
            slots.append(Node(held=held, total=node.total))
    for _, rg, sg in _merges(groups):
        for j in range(R):
            if sg * R + j < m:
                ledger.worker_worker_scalars += 2  # one chain link
            _merge_into(slots[rg * R + j], slots[sg * R + j], 1, rng)
    return _histogram(slot.held[0] for slot in slots[(groups - 1) * R :])


class ScriptedRng:
    """Uniforms from a fixed cycle, scalar or batched, counting what it hands
    out; lets boundary values such as 0 and the largest double below 1 reach
    every comparison."""

    def __init__(self, values):
        self.values = values
        self.used = 0

    def random(self, size=None):
        n = 1 if size is None else size
        out = [self.values[(self.used + k) % len(self.values)] for k in range(n)]
        self.used += n
        return out[0] if size is None else np.array(out)


WEIGHT = st.one_of(
    st.just(0.0),
    st.integers(1, 4).map(float),  # ties between cumulative sums and draws
    st.sampled_from([-0.0, 5e-324, 1e-300, 1e-20]),  # signed zero, subnormal, absorbed
    st.floats(min_value=0.0, max_value=1e300, allow_subnormal=True),
)


@st.composite
def cases(draw, max_m=64):
    m = draw(st.integers(1, max_m))
    R = draw(st.integers(1, m))
    weights = draw(st.lists(WEIGHT, min_size=m, max_size=m))
    if not any(v > 0.0 for v in weights):
        weights[draw(st.integers(0, m - 1))] = draw(st.floats(min_value=1e-300, max_value=1e300))
    return weights, R


PAIRS = [(comm.pc_sample, sequential_pc), (comm.optimal_comm_sample, sequential_optimal)]


def _run(protocol, weights, R, rng, calls=3):
    ledger = comm.CommLedger()
    hists = [protocol(weights, R, ledger, rng) for _ in range(calls)]
    return hists, ledger.snapshot()


class TestMatchesSequentialTree:
    @settings(max_examples=300, deadline=None)
    @given(cases(), st.integers(0, 2**64 - 1))
    @example(([1.0, 2.0, 3.0, 4.0], 4), 0)  # R = M: no merge level
    @example(([2.5], 1), 7)  # M = 1
    @example(([0.0, 0.0, 5.0, 0.0, 1.0], 2), 3)  # padded, zero groups
    def test_histogram_ledger_and_stream(self, case, seed):
        weights, R = case
        for protocol, reference in PAIRS:
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            hists, snapshot = _run(protocol, weights, R, rng)
            ref_ledger = comm.CommLedger()
            ref_counts = [reference(weights, R, ref_ledger, ref_rng) for _ in range(3)]
            assert [list(h.counts.items()) for h in hists] == [list(c.items()) for c in ref_counts]
            assert all(type(i) is int for h in hists for i in h.counts)
            assert snapshot == ref_ledger.snapshot()
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    @settings(max_examples=200, deadline=None)
    @given(cases(max_m=24), st.lists(st.sampled_from([0.0, 0.5, 1.0 - 2.0**-53, 0.25]), min_size=1))
    @example(([5e-324, 5e-324], 2), [1.0 - 2.0**-53])  # u * total == total
    @example(([5e-324, 5e-324, 0.0], 3), [1.0 - 2.0**-53])  # ... before a zero weight
    @example(([1.0, 1e-20, 0.0, 3.0], 2), [0.0, 1.0 - 2.0**-53])
    def test_boundary_uniforms(self, case, values):
        weights, R = case
        for protocol, reference in PAIRS:
            rng, ref_rng = ScriptedRng(values), ScriptedRng(values)
            hists, _ = _run(protocol, weights, R, rng, calls=2)
            ref_counts = [reference(weights, R, comm.CommLedger(), ref_rng) for _ in range(2)]
            assert [h.counts for h in hists] == ref_counts
            assert rng.used == ref_rng.used


class TestLedgerSchedule:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 1200).flatmap(lambda m: st.tuples(st.just(m), st.integers(1, m))))
    @example((4096, 16))
    @example((1000, 8))
    @example((7, 7))
    def test_closed_form_matches_message_count(self, shape):
        # the charge depends only on the shape, so one positive weight will do
        m, R = shape
        weights = [0.0] * (m - 1) + [1.0]
        for protocol, reference in PAIRS:
            ledger, ref_ledger = comm.CommLedger(), comm.CommLedger()
            protocol(weights, R, ledger, np.random.default_rng(0))
            reference(weights, R, ref_ledger, np.random.default_rng(0))
            assert ledger.snapshot() == ref_ledger.snapshot()


class TestSameDraws:
    @settings(max_examples=200, deadline=None)
    @given(cases(max_m=200), st.integers(0, 2**64 - 1))
    def test_protocols_share_every_draw(self, case, seed):
        weights, R = case
        pc_rng, oc_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        pc, _ = _run(comm.pc_sample, weights, R, pc_rng)
        oc, _ = _run(comm.optimal_comm_sample, weights, R, oc_rng)
        assert [list(h.counts.items()) for h in pc] == [list(h.counts.items()) for h in oc]
        assert pc_rng.bit_generator.state == oc_rng.bit_generator.state


def _live_nodes(weights, R):
    """Whether each tree node's total is positive, in ``comm._tree_draw``'s
    node order: the groups, then each merge level in receiver order."""
    w, _, groups = _padded(weights, R)
    level = [_left_sum(w[g * R : (g + 1) * R]) for g in range(groups)]
    live = [v > 0.0 for v in level]
    while len(level) > 1:
        level = [level[i + 1] + level[i] for i in range(0, len(level), 2)]
        live += [v > 0.0 for v in level]
    return np.array(live)


@st.composite
def cell_cases(draw):
    """C in 1..4 cells of M weights each, every cell with a positive one."""
    cells = draw(st.integers(1, 4))
    m = draw(st.integers(1, 40))
    R = draw(st.integers(1, m))
    rows = []
    for _ in range(cells):
        weights = draw(st.lists(WEIGHT, min_size=m, max_size=m))
        if not any(v > 0.0 for v in weights):
            weights[draw(st.integers(0, m - 1))] = draw(st.floats(min_value=1e-300, max_value=1e300))
        rows.append(weights)
    return rows, R


def _one_group(R, cells):
    """``cells`` rows of R weights in {0, 1, 2}: zeros and ties, each row
    with a positive weight."""
    return [[float((i + c) % 3) for i in range(R)] for c in range(cells)]


class TestCellAxis:
    @settings(max_examples=200, deadline=None)
    @given(cell_cases(), st.integers(0, 2**32 - 1), st.floats(0.0, 0.5))
    @example(([[1.0, 0.0, 2.0, 0.0, 3.0], [0.0, 0.0, 0.0, 0.0, 1.0], [4.0, 4.0, 0.0, 1.0, 0.0]], 2), 1, 0.0)
    @example(([[0.0, 1.0, 1.0, 2.0, 0.0, 0.0, 5.0], [3.0] * 7], 3), 2, 0.3)  # M = 7 not 2**h * R
    # M = R > 1: each cell is one group, so no merge level widens the group
    # column to R slots
    @example((_one_group(2, 1), 2), 3, 0.3).via("one group, R = 2")
    @example((_one_group(2, 3), 2), 4, 0.3).via("three one-group cells, R = 2")
    @example((_one_group(5, 1), 5), 5, 0.3).via("one group, R = 5")
    @example((_one_group(5, 3), 5), 6, 0.3).via("three one-group cells, R = 5")
    @example((_one_group(16, 1), 16), 7, 0.3).via("one group, R = 16")
    @example((_one_group(16, 3), 16), 8, 0.3).via("three one-group cells, R = 16")
    def test_every_cell_matches_the_sequential_tree(self, case, seed, boundary_share):
        """One draw over C cells gives, for every cell, the histogram the
        sequential protocols give when a stub generator replays that cell's
        live-node uniforms from a (C, nodes, R) array, and it reads exactly
        those uniforms."""
        rows, R = case
        m = len(rows[0])
        topo = comm.Topology(m, R)
        shape = (len(rows), 2 * (topo.padded_workers // R) - 1, R)
        rng = np.random.default_rng(seed)
        u = rng.random(shape)
        edge = rng.random(shape) < boundary_share  # 0 and the largest double below 1
        u[edge] = rng.choice([0.0, 1.0 - 2.0**-53], size=int(edge.sum()))
        live = [_live_nodes(weights, R) for weights in rows]
        replays = [ScriptedRng(u[c][live[c]].ravel().tolist()) for c in range(len(rows))]
        draws = comm._tree_draw(np.array(rows), R, topo, replays)
        assert draws.shape == (len(rows), R)
        for c, weights in enumerate(rows):
            assert replays[c].used == len(replays[c].values)
            for reference in (sequential_pc, sequential_optimal):
                replay = ScriptedRng(replays[c].values)
                assert reference(weights, R, comm.CommLedger(), replay) == _histogram(draws[c].tolist())
                assert replay.used == len(replay.values)


def complex_key_leaf_search(cum, q):
    """The leaf search ``comm._tree_draw`` used before ``comm._upper_bound``:
    complex keys sort by (row, value), so one searchsorted over the flat
    (row, cum) keys answers every row's queries at once."""
    rows, R = cum.shape
    row = np.arange(rows)[:, None]
    keys = np.empty((rows, R), dtype=complex)
    keys.real, keys.imag = row, cum
    queries = np.empty_like(keys)
    queries.real, queries.imag = row, q
    return np.searchsorted(keys.ravel(), queries.ravel(), side="right").reshape(rows, R)


BOUNDARY_U = [0.0, 1.0 - 2.0**-53]


def _wide_weights(m, seed, zero_share, tied):
    """``m`` weights, about ``zero_share`` of them zero; tied ones are drawn
    from {1, 2, 3}, so cumulative sums and draws tie, the others lognormal."""
    rng = np.random.default_rng(seed)
    w = rng.integers(1, 4, m).astype(float) if tied else rng.lognormal(0.0, 1.5, m)
    w[rng.random(m) < zero_share] = 0.0
    if not w.any():
        w[rng.integers(m)] = 1.0
    return w


class TestLeafSearch:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 300), st.integers(1, 64), st.integers(0, 2**32 - 1), st.floats(0.0, 0.5),
           st.booleans(), st.floats(0.0, 0.5))
    @example(1, 1, 0, 0.0, False, 0.0)
    @example(3, 64, 1, 0.5, True, 0.5)
    @example(256, 16, 2, 0.1, False, 0.3)
    def test_upper_bound_matches_the_complex_key_search(self, rows, R, seed, zero_share, tied, boundary_share):
        rng = np.random.default_rng(seed)
        cum = _wide_weights(rows * R, seed, zero_share, tied).reshape(rows, R).cumsum(axis=1)
        u = rng.random((rows, R))
        edge = rng.random((rows, R)) < boundary_share
        u[edge] = rng.choice(BOUNDARY_U, size=int(edge.sum()))
        q = u * cum[:, -1:]
        # queries equal to a cumulative sum of their row, its total among them
        on_sum = rng.random((rows, R)) < boundary_share
        q[on_sum] = np.take_along_axis(cum, rng.integers(0, R, (rows, R)), axis=1)[on_sum]
        q[:, 0] = cum[:, -1]
        got = comm._upper_bound(cum, R * np.arange(rows)[:, None], q)
        assert got.shape == (rows, R)
        assert np.array_equal(got, complex_key_leaf_search(cum, q))

    @pytest.mark.parametrize("total", [5e-324, 3e-300, 1.0, 7.0, 1e300])
    def test_top_uniform_on_the_total(self, total):
        # u * total == total for the largest uniform below 1 at a subnormal
        # total; the count is then R, past the group, as before
        cum = np.array([[0.0, total, total, total], [total / 2, total / 2, total, total]])
        q = (1.0 - 2.0**-53) * cum[:, -1:] * np.ones((1, 4))
        assert np.array_equal(comm._upper_bound(cum, np.array([[0], [4]]), q), complex_key_leaf_search(cum, q))


class TestWideTrees:
    @settings(max_examples=12, deadline=None)
    @given(st.integers(1, 4096).flatmap(lambda m: st.tuples(st.just(m), st.integers(1, min(m, 64)))),
           st.integers(1, 3), st.integers(0, 2**32 - 1), st.floats(0.1, 0.5), st.booleans(),
           st.floats(0.0, 0.5))
    @example((4096, 16), 1, 1, 0.1, False, 0.1)
    @example((1000, 7), 1, 2, 0.3, True, 0.2)  # 143 groups padded to 256
    @example((4095, 64), 1, 3, 0.5, True, 0.5)  # the last group is padded
    @example((1000, 8), 3, 4, 0.3, True, 0.2).via("protocol_wide's (1000, 8), padded to 1024, three cells")
    @example((4096, 16), 3, 5, 0.3, False, 0.2).via("protocol_wide's (4096, 16), three cells")
    def test_tree_draw_matches_the_sequential_tree(self, shape, cells, seed, zero_share, tied, boundary_share):
        """``_tree_draw`` over 1 to 3 cells at protocol_wide's shapes and
        beyond, each cell fed its live nodes' uniforms, some of them 0 and
        the largest double below 1, draws for every cell what
        ``sequential_pc`` draws and reads exactly those uniforms.  The
        second cell's first half is zero (dead groups and dead merges), the
        third has one live leaf (every merge is one-sided)."""
        m, R = shape
        rows = [_wide_weights(m, seed + c, zero_share, tied) for c in range(cells)]
        if cells > 1:
            rows[1][: m // 2] = 0.0
            if not rows[1].any():
                rows[1][-1] = 1.0
        if cells > 2:
            rows[2][:] = 0.0
            rows[2][m // 3] = 2.0
        rng = np.random.default_rng(seed)
        replays = []
        for weights in rows:
            u = rng.random((int(_live_nodes(weights.tolist(), R).sum()), R))
            edge = rng.random(u.shape) < boundary_share
            u[edge] = rng.choice(BOUNDARY_U, size=int(edge.sum()))
            replays.append(ScriptedRng(u.ravel().tolist()))
        draws = comm._tree_draw(np.array(rows), R, comm.Topology(m, R), replays)
        assert draws.shape == (cells, R)
        for weights, replay, drawn in zip(rows, replays, draws):
            assert replay.used == len(replay.values)
            ref_replay = ScriptedRng(replay.values)
            assert sequential_pc(weights.tolist(), R, comm.CommLedger(), ref_replay) == _histogram(drawn.tolist())
            assert ref_replay.used == len(ref_replay.values)


class TestRootSlots:
    """The merges run first, on groups, and the leaf search only for the
    C * R slots that reach the cells' roots."""

    def test_searches_the_root_slots_only(self, monkeypatch):
        searched, upper_bound = [], comm._upper_bound

        def spy(cum, start, q):
            found = upper_bound(cum, start, q)
            searched.append(found.size)
            return found

        monkeypatch.setattr(comm, "_upper_bound", spy)
        w = _wide_weights(4096, 5, 0.1, False)
        for protocol in (comm.pc_sample, comm.optimal_comm_sample):
            protocol(w, 16, comm.CommLedger(), np.random.default_rng(0))
        assert searched == [16, 16]
        cells = 3
        searched.clear()
        comm.pc_sample_cells(np.tile(w, (cells, 1)), 16, [comm.CommLedger() for _ in range(cells)],
                             [np.random.default_rng(c) for c in range(cells)])
        assert searched == [cells * 16]
