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

    def test_bad_group_size(self):
        with pytest.raises(ValueError):
            comm.pc_sample([1.0, 1.0], 0, comm.CommLedger(), np.random.default_rng(0))
        with pytest.raises(ValueError):
            comm.pc_sample([1.0, 1.0], 3, comm.CommLedger(), np.random.default_rng(0))

    def test_topology_padding(self):
        topo = comm.Topology(12, 3)
        assert topo.padded_workers == 12 and topo.levels == 2
        topo = comm.Topology(5, 2)
        assert topo.padded_workers == 8 and topo.levels == 2
        topo = comm.Topology(7, 7)
        assert topo.padded_workers == 7 and topo.levels == 0

    def test_histogram_validation(self):
        with pytest.raises(ValueError):
            comm.SampleHistogram(counts={0: 2}, total=3)
        with pytest.raises(ValueError):
            comm.SampleHistogram(counts={-1: 3}, total=3)
        hist = comm.SampleHistogram(counts={3: 1, 1: 2}, total=3)
        assert hist.items() == [(1, 2), (3, 1)]

    @pytest.mark.parametrize("sampler", [comm.pc_sample, comm.optimal_comm_sample])
    def test_protocol_histograms_pass_validation(self, sampler):
        # the protocols build their histograms without the constructor's check
        rng = np.random.default_rng(5)
        for M, R in [(1, 1), (6, 4), (13, 3), (64, 8)]:
            hist = sampler(rng.random(M), R, comm.CommLedger(), rng)
            assert hist == comm.SampleHistogram(counts=dict(hist.counts), total=R)

    def test_ledger_csv_row(self):
        ledger = comm.CommLedger(worker_worker_scalars=3, parallel_rounds=2)
        assert comm.CommLedger.CSV_HEADER == "phase,worker_worker,worker_server,server_worker,rounds"
        assert ledger.csv_row("sample") == "sample,3,0,0,2"
