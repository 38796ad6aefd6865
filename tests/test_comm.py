"""Tree-sampling protocols: marginals, message counts, rounds, determinism."""

import math
import zlib

import numpy as np
import pytest
from scipy import stats

from hetsvrg import comm

CONFIGS = [(4, 1), (8, 2), (12, 3), (16, 4)]

WEIGHT_SETS = {
    "uniform": lambda m: [1.0] * m,
    "ramp": lambda m: [float(i + 1) for i in range(m)],
    "spiky": lambda m: [1.0] * (m - 1) + [float(3 * m)],
}


def pooled_marginals(protocol, weights, R, n_indices, seed):
    """Empirical index frequencies pooled over all R slots of repeated calls."""
    rng = np.random.default_rng(seed)
    ledger = comm.CommLedger()
    counts = np.zeros(len(weights))
    calls = n_indices // R
    for _ in range(calls):
        hist = protocol(weights, R, ledger, rng)
        for idx, mult in hist.items():
            counts[idx] += mult
    return counts / counts.sum(), ledger, calls


def schedule_scalars(M, R):
    """Message-by-message count of the R-vector merge protocol: 2 scalars per
    leader-bound send, R + 1 per merge send, summed over the binary tree."""
    total = 2 * (M - M // R)
    levels = int(math.log2(M // R))
    for h in range(1, levels + 1):
        total += (R + 1) * (M // (2**h * R))
    return total


class TestPcMarginals:
    @pytest.mark.parametrize("M,R", CONFIGS)
    @pytest.mark.parametrize("kind", sorted(WEIGHT_SETS))
    def test_marginals_match_weights(self, M, R, kind):
        weights = WEIGHT_SETS[kind](M)
        n = 100_000
        seed = zlib.crc32(f"{M}-{R}-{kind}".encode())
        freq, _, _ = pooled_marginals(comm.pc_sample, weights, R, n, seed=seed)
        exact = np.asarray(weights) / sum(weights)
        tol = 4.0 * np.sqrt(exact * (1 - exact) / n)
        assert np.all(np.abs(freq - exact) <= tol)

    def test_single_positive_weight_takes_all(self):
        rng = np.random.default_rng(0)
        hist = comm.pc_sample([0.0, 0.0, 5.0, 0.0], 3, comm.CommLedger(), rng)
        assert hist.counts == {2: 3}

    def test_slots_are_independent(self):
        # with-replacement draws: unordered pair frequencies must match
        # p_i^2 for doubles and 2 p_i p_j for distinct pairs
        M, R, n_calls = 4, 2, 50_000
        weights = [1.0, 2.0, 3.0, 4.0]
        p = np.asarray(weights) / sum(weights)
        rng = np.random.default_rng(77)
        ledger = comm.CommLedger()
        observed = {}
        for _ in range(n_calls):
            hist = comm.pc_sample(weights, R, ledger, rng)
            pair = []
            for idx, mult in hist.items():
                pair.extend([idx] * mult)
            key = tuple(sorted(pair))
            observed[key] = observed.get(key, 0) + 1
        keys = [(i, j) for i in range(M) for j in range(i, M)]
        obs = np.array([observed.get(k, 0) for k in keys], dtype=float)
        exp = np.array(
            [p[i] ** 2 if i == j else 2 * p[i] * p[j] for i, j in keys]
        ) * n_calls
        result = stats.chisquare(obs, exp * obs.sum() / exp.sum())
        assert result.pvalue > 0.001


class TestPcCosts:
    @pytest.mark.parametrize("M,R", CONFIGS + [(32, 8)])
    def test_scalar_bound_and_schedule(self, M, R):
        ledger = comm.CommLedger()
        comm.pc_sample([1.0] * M, R, ledger, np.random.default_rng(0))
        assert ledger.worker_worker_scalars == schedule_scalars(M, R)
        assert ledger.worker_worker_scalars <= 3 * M - M // R

    def test_figure_topology_count(self):
        ledger = comm.CommLedger()
        comm.pc_sample(list(range(1, 13)), 3, ledger, np.random.default_rng(1))
        # 2 scalars from each of the 8 non-leaders, then merge sends of
        # R+1=4 scalars: two at the first level, one at the second
        assert ledger.worker_worker_scalars == 2 * (12 - 4) + 4 * 2 + 4 * 1
        assert ledger.worker_worker_scalars == 28
        assert ledger.worker_worker_scalars <= 3 * 12 - 12 // 3

    @pytest.mark.parametrize("M,R", CONFIGS + [(32, 8)])
    def test_round_count(self, M, R):
        ledger = comm.CommLedger()
        comm.pc_sample([1.0] * M, R, ledger, np.random.default_rng(0))
        assert ledger.parallel_rounds == 1 + int(math.log2(M // R))

    def test_padding_keeps_virtual_workers_out(self):
        # M=5, R=2 pads to 8 slots; virtual workers never appear in histograms
        rng = np.random.default_rng(3)
        ledger = comm.CommLedger()
        for _ in range(500):
            hist = comm.pc_sample([1.0, 2.0, 3.0, 4.0, 5.0], 2, ledger, rng)
            assert all(0 <= i < 5 for i in hist.counts)

    @pytest.mark.parametrize("protocol", [comm.pc_sample, comm.optimal_comm_sample])
    def test_padded_topology_marginals(self, protocol):
        # marginals stay exact when the worker count needs padding
        weights = [1.0, 2.0, 3.0, 4.0, 5.0]
        n = 60_000
        freq, _, _ = pooled_marginals(protocol, weights, 2, n, seed=11)
        exact = np.asarray(weights) / sum(weights)
        tol = 4.0 * np.sqrt(exact * (1 - exact) / n)
        assert np.all(np.abs(freq - exact) <= tol)

    def test_other_channels_untouched(self):
        ledger = comm.CommLedger()
        comm.pc_sample([1.0] * 8, 2, ledger, np.random.default_rng(0))
        assert ledger.worker_server_scalars == 0
        assert ledger.server_worker_scalars == 0


class TestOptimalComm:
    def test_marginals_match_pc(self):
        M, R, n = 8, 2, 100_000
        weights = [float(i + 1) for i in range(M)]
        exact = np.asarray(weights) / sum(weights)
        f_pc, _, _ = pooled_marginals(comm.pc_sample, weights, R, n, seed=5)
        f_oc, _, _ = pooled_marginals(comm.optimal_comm_sample, weights, R, n, seed=6)
        assert np.all(np.abs(f_pc - exact) <= 0.01)
        assert np.all(np.abs(f_oc - exact) <= 0.01)

    def test_round_structure(self):
        ledger = comm.CommLedger()
        comm.optimal_comm_sample([1.0] * 16, 4, ledger, np.random.default_rng(0))
        # R receive rounds, one candidate-spread round, log2(M/R) merge rounds
        assert ledger.parallel_rounds == 4 + 1 + 2
        assert ledger.parallel_rounds <= 4 + int(math.log2(16 // 4)) + 2

    @pytest.mark.parametrize("M,R", CONFIGS + [(32, 8)])
    def test_rounds_within_bound(self, M, R):
        ledger = comm.CommLedger()
        comm.optimal_comm_sample([1.0] * M, R, ledger, np.random.default_rng(0))
        assert ledger.parallel_rounds <= R + int(math.log2(M // R)) + 2

    def test_r_one_matches_pc_schedule(self):
        lpc, loc = comm.CommLedger(), comm.CommLedger()
        comm.pc_sample([1.0] * 8, 1, lpc, np.random.default_rng(0))
        comm.optimal_comm_sample([1.0] * 8, 1, loc, np.random.default_rng(0))
        assert lpc.worker_worker_scalars == loc.worker_worker_scalars

    def test_scalars_linear_in_m(self):
        for M, R in CONFIGS:
            ledger = comm.CommLedger()
            comm.optimal_comm_sample([1.0] * M, R, ledger, np.random.default_rng(0))
            assert ledger.worker_worker_scalars <= 6 * M


class TestDeterminism:
    @pytest.mark.parametrize("protocol", [comm.pc_sample, comm.optimal_comm_sample])
    def test_same_seed_same_everything(self, protocol):
        runs = []
        for _ in range(2):
            rng = np.random.default_rng(1234)
            ledger = comm.CommLedger()
            hists = [protocol([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 2, ledger, rng) for _ in range(20)]
            runs.append(([h.counts for h in hists], ledger.snapshot()))
        assert runs[0] == runs[1]


class TestProtocolPins:
    """Two calls' histograms and the final ``default_rng`` state of each
    public protocol for fixed inputs.  The public path draws R uniforms per
    live node from the caller's generator, so these integers must not move;
    a change to them has to be made on purpose and stated."""

    CASES = {
        "m8_r4_zero_weight": ([1.0, 0.0, 2.0, 3.0, 0.5, 4.0, 1.0, 1.0], 4, [
            [(2, 1), (3, 1), (5, 2)],
            [(0, 2), (3, 1), (5, 1)],
        ], 291953420558629910071102558238947742342),
        "m1000_r8": ([(i % 7) * 0.5 for i in range(1000)], 8, [
            [(157, 1), (230, 1), (396, 1), (418, 1), (719, 1), (795, 1), (801, 1), (935, 1)],
            [(45, 1), (250, 1), (454, 1), (530, 1), (557, 1), (704, 1), (767, 1), (788, 1)],
        ], 216233172338274055897898946667122084718),
        # 424 zero weights (10.4%), one whole group among them, and many ties
        "m4096_r16": ([0.0 if i % 10 == 3 or 512 <= i < 528 else ((i * 37) % 11 + 1) * 0.25
                       for i in range(4096)], 16, [
            [(309, 1), (428, 1), (1251, 1), (1564, 1), (1816, 1), (1864, 1), (2040, 1), (2111, 1),
             (2231, 1), (2480, 1), (2707, 1), (2925, 1), (2941, 1), (3437, 1), (3461, 1), (3695, 1)],
            [(111, 1), (222, 1), (546, 1), (670, 1), (894, 1), (1317, 1), (1465, 1), (2404, 1),
             (2535, 1), (2892, 1), (2950, 1), (3396, 1), (3484, 1), (3562, 1), (3726, 1), (3980, 1)],
        ], 140184306277788572266166067070499572574),
    }

    @pytest.mark.parametrize("protocol", [comm.pc_sample, comm.optimal_comm_sample])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_histograms_and_generator_state(self, protocol, case):
        weights, R, want, state = self.CASES[case]
        rng = np.random.default_rng(2024)
        assert [protocol(weights, R, comm.CommLedger(), rng).items() for _ in range(2)] == want
        assert rng.bit_generator.state["state"]["state"] == state


class TestServerPrimitives:
    def test_zero_payload_only_rounds(self):
        ledger = comm.CommLedger()
        comm.server_broadcast(ledger, 0, 8)
        comm.server_gather(ledger, 0, 8)
        assert ledger.snapshot() == (0, 0, 0, 2)

    def test_vector_broadcast(self):
        ledger = comm.CommLedger()
        comm.server_broadcast(ledger, 10, 8)
        assert ledger.server_worker_scalars == 80

    def test_vector_gather(self):
        ledger = comm.CommLedger()
        comm.server_gather(ledger, 10, 8)
        assert ledger.worker_server_scalars == 80

    def test_negative_payload_rejected(self):
        with pytest.raises(ValueError):
            comm.server_broadcast(comm.CommLedger(), -1, 4)

    @pytest.mark.parametrize("primitive", [comm.server_broadcast, comm.server_gather])
    def test_negative_worker_count_rejected(self, primitive):
        # (3, -2) then (2, -5) once left the ledger at (0, -10, -6, 2)
        ledger = comm.CommLedger()
        with pytest.raises(ValueError, match="m_workers must be nonnegative"):
            primitive(ledger, 3, -2)
        assert ledger.snapshot() == (0, 0, 0, 0)

    @pytest.mark.parametrize("primitive", [comm.server_broadcast, comm.server_gather])
    @pytest.mark.parametrize("payload, workers, name", [(2.5, 3, "payload_scalars"), (3, 1.5, "m_workers"),
                                                        (np.float64(2.0), 3, "payload_scalars"), (2, "3", "m_workers")])
    def test_counts_must_be_integers(self, primitive, payload, workers, name):
        # broadcast (2.5, 3) then gather (3, 1.5) once left the ledger at (0, 4.5, 7.5, 2)
        ledger = comm.CommLedger()
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            primitive(ledger, payload, workers)
        assert ledger.snapshot() == (0, 0, 0, 0)

    def test_numpy_integer_counts_charge_python_ints(self):
        ledger = comm.CommLedger()
        comm.server_broadcast(ledger, np.int64(10), np.int32(8))
        comm.server_gather(ledger, np.uint8(3), np.int64(2))
        assert ledger.snapshot() == (0, 6, 80, 2)
        assert all(type(v) is int for v in ledger.snapshot())
        assert ledger.csv_row("step") == "step,0,6,80,2"


class TestValidation:
    def test_all_zero_weights(self):
        with pytest.raises(ValueError):
            comm.pc_sample([0.0, 0.0], 1, comm.CommLedger(), np.random.default_rng(0))

    def test_negative_weight(self):
        with pytest.raises(ValueError):
            comm.pc_sample([1.0, -1.0], 1, comm.CommLedger(), np.random.default_rng(0))

    @pytest.mark.parametrize("protocol", [comm.pc_sample, comm.optimal_comm_sample])
    @pytest.mark.parametrize(
        "weights",
        [[math.nan, 1.0, 2.0, 3.0], [math.inf, 1.0, 2.0, 3.0], [-math.inf, 1.0, 2.0, 3.0], [math.nan] * 4],
        ids=["nan", "inf", "-inf", "all-nan"],
    )
    def test_non_finite_weight(self, protocol, weights):
        # a NaN or infinite weight would be silently skipped or win every draw
        with pytest.raises(ValueError, match="finite"):
            protocol(weights, 2, comm.CommLedger(), np.random.default_rng(0))

    @pytest.mark.parametrize("protocol", [comm.pc_sample, comm.optimal_comm_sample])
    @pytest.mark.parametrize(
        "weights,R",
        [([1e308, 1e308, 1.0, 1.0], 1), ([1e308, 1e308], 2), ([1e308, 1.0, 1e308, 1.0], 2)],
    )
    def test_overflowing_total(self, protocol, weights, R):
        # an infinite subtree total turns a merge threshold into inf/inf = nan
        # (that sender never wins) or a leaf draw into inf * u (the last
        # positive worker always wins); numpy reports the overflow first
        with pytest.warns(RuntimeWarning, match="overflow"), pytest.raises(ValueError, match="finite total"):
            protocol(weights, R, comm.CommLedger(), np.random.default_rng(0))

    @pytest.mark.parametrize("protocol", [comm.pc_sample, comm.optimal_comm_sample])
    def test_largest_finite_total_accepted(self, protocol):
        rng = np.random.default_rng(0)
        seen = set()
        for _ in range(200):
            seen.update(protocol([8e307, 8e307, 1e307, 1.0], 1, comm.CommLedger(), rng).counts)
        assert {0, 1, 2} <= seen

    @pytest.mark.parametrize("protocol", [comm.pc_sample, comm.optimal_comm_sample])
    @pytest.mark.parametrize("weights", [3.0, [[1.0, 2.0], [3.0, 4.0]], np.ones((4, 1))], ids=["0-d", "2-d", "column"])
    def test_weights_must_be_one_dimensional(self, protocol, weights):
        with pytest.raises(ValueError, match="one-dimensional"):
            protocol(weights, 1, comm.CommLedger(), np.random.default_rng(0))

    @pytest.mark.parametrize("ledgers,rngs", [(1, 2), (2, 1), (2, 3), (3, 2)])
    def test_cells_need_one_ledger_and_one_generator_each(self, ledgers, rngs):
        # one ledger would be charged once for two cells' draws; a spare
        # generator would go unread
        ledger_list = [comm.CommLedger() for _ in range(ledgers)]
        rng_list = [np.random.default_rng(i) for i in range(rngs)]
        states = [rng.bit_generator.state for rng in rng_list]
        with pytest.raises(ValueError, match=f"2 cells need one ledger and one generator each, "
                                             f"got {ledgers} ledgers and {rngs} generators"):
            comm.pc_sample_cells(np.ones((2, 8)), 2, ledger_list, rng_list)
        assert all(ledger.snapshot() == (0, 0, 0, 0) for ledger in ledger_list)
        assert [rng.bit_generator.state for rng in rng_list] == states  # raised before any draw

    def test_bad_group_size(self):
        with pytest.raises(ValueError):
            comm.pc_sample([1.0, 1.0], 0, comm.CommLedger(), np.random.default_rng(0))
        with pytest.raises(ValueError):
            comm.pc_sample([1.0, 1.0], 3, comm.CommLedger(), np.random.default_rng(0))

    @pytest.mark.parametrize("first, then", [(np.int64(2), 2), (2, np.int64(2))], ids=["numpy-first", "int-first"])
    def test_numpy_integer_group_size_keeps_the_topology_cache_whole(self, first, then):
        # 2 and np.int64(2) hash and compare equal, so a cached Topology that
        # kept a numpy integer was handed to every later M = 4, R = 2 call
        comm._topology.cache_clear()
        weights = [1.0, 2.0, 3.0, 4.0]
        hists = []
        for R in (first, then):
            for protocol in (comm.pc_sample, comm.optimal_comm_sample):
                hists.append(protocol(weights, R, comm.CommLedger(), np.random.default_rng(3)).items())
            assert comm.pc_sample_cells(np.array([weights]), R, [comm.CommLedger()],
                                        [np.random.default_rng(3)]).shape == (1, 2)
        assert hists == [hists[0]] * 4
        assert type(comm._topology(4, 2).group_size) is int

    @pytest.mark.parametrize("R", [2.5, 2.0, np.float64(2.0)])
    def test_non_integral_group_size(self, R):
        comm._topology.cache_clear()
        comm.pc_sample([1.0, 2.0, 3.0, 4.0], 2, comm.CommLedger(), np.random.default_rng(0))  # 2 is cached
        for call in (
            lambda: comm.pc_sample([1.0, 2.0, 3.0, 4.0], R, comm.CommLedger(), np.random.default_rng(0)),
            lambda: comm.optimal_comm_sample([1.0, 2.0, 3.0, 4.0], R, comm.CommLedger(), np.random.default_rng(0)),
            lambda: comm.pc_sample_cells(np.ones((1, 4)), R, [comm.CommLedger()], [np.random.default_rng(0)]),
            lambda: comm.Topology(4, R),
        ):
            with pytest.raises(ValueError, match="must be an integer"):
                call()

    def test_topology_stores_numpy_integers_as_int(self):
        topo = comm.Topology(np.int64(8), np.int64(2))
        assert type(topo.m_workers) is int and type(topo.group_size) is int
        assert topo.levels == 2 and topo.padded_workers == 8

    def test_topology_padding(self):
        topo = comm.Topology(12, 3)
        assert topo.padded_workers == 12 and topo.levels == 2
        topo = comm.Topology(5, 2)
        assert topo.padded_workers == 8 and topo.levels == 2
        topo = comm.Topology(7, 7)
        assert topo.padded_workers == 7 and topo.levels == 0

    def test_histogram_items_in_worker_order(self):
        hist = comm.SampleHistogram(counts={3: 1, 1: 2}, total=3)
        assert hist.items() == [(1, 2), (3, 1)]

    @pytest.mark.parametrize("sampler", [comm.pc_sample, comm.optimal_comm_sample])
    def test_protocol_histograms_pass_validation(self, sampler):
        # R draws in all, each of a real worker, each key drawn at least once
        rng = np.random.default_rng(5)
        for M, R in [(1, 1), (6, 4), (13, 3), (64, 8)]:
            hist = sampler(rng.random(M), R, comm.CommLedger(), rng)
            assert hist.total == R and sum(hist.counts.values()) == R
            assert set(hist.counts) <= set(range(M))
            assert min(hist.counts.values()) >= 1

    def test_ledger_csv_row(self):
        ledger = comm.CommLedger(worker_worker_scalars=3, parallel_rounds=2)
        assert comm.CommLedger.CSV_HEADER == "phase,worker_worker,worker_server,server_worker,rounds"
        assert ledger.csv_row("sample") == "sample,3,0,0,2"
