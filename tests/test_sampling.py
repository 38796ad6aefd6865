"""Categorical machinery: optimal weights, decomposition, subsampled estimates."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from hetsvrg import problem as prob
from hetsvrg import sampling as smp


def sequential_fisher_yates(n, k, rng):
    """Reference partial Fisher-Yates: step i swaps position i with
    i + rng.integers(n - i), one scalar draw per step; positions never
    touched keep their own index, so no array of length n is needed."""
    held = {}
    out = []
    for i in range(k):
        j = i + int(rng.integers(n - i))
        at_i, at_j = held.get(i, i), held.get(j, j)
        held[i], held[j] = at_j, at_i
        out.append(at_j)
    return out


def random_pair(rng, m=6, max_rel=0.3):
    """A strictly positive base and a perturbation bounded by max_rel * w."""
    w = rng.uniform(0.5, 5.0, size=m)
    delta = rng.uniform(-max_rel, max_rel, size=m) * w
    return smp.PerturbedPair.from_weights(w, w + delta)


class TestOptimalDistribution:
    def test_equal_norms_give_uniform(self):
        dist = smp.optimal_distribution([1.0, 1.0, 1.0, 1.0])
        np.testing.assert_allclose(dist.probabilities, 0.25)

    def test_direct_normalisation(self):
        dist = smp.optimal_distribution([1.0, 3.0])
        np.testing.assert_allclose(dist.probabilities, [0.25, 0.75])

    def test_beats_every_simplex_grid_point(self):
        # second-moment objective sum(g_m^2 / p_m) minimised over the 3-simplex
        norms = np.array([1.0, 2.0, 5.0])
        dist = smp.optimal_distribution(norms)

        def objective(p):
            return float(np.sum(norms**2 / p))

        best = objective(dist.probabilities)
        grid = np.arange(0.01, 1.0, 0.01)
        for p1 in grid:
            for p2 in grid:
                p3 = 1.0 - p1 - p2
                if p3 >= 0.01 - 1e-12:
                    assert best <= objective(np.array([p1, p2, p3])) + 1e-9

    def test_beats_uniform_on_random_norms(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            norms = rng.uniform(0.0, 3.0, size=5)
            if norms.sum() == 0:
                continue
            dist = smp.optimal_distribution(norms)
            uniform = np.full(5, 0.2)
            with np.errstate(divide="ignore"):
                at_opt = np.sum(norms**2 / dist.probabilities, where=norms > 0)
                at_uni = np.sum(norms**2 / uniform)
            assert at_opt <= at_uni + 1e-9

    def test_all_zero_signals_degenerate(self):
        with pytest.raises(smp.DegenerateWeights):
            smp.optimal_distribution([0.0, 0.0])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            smp.optimal_distribution([1.0, -0.1])

    def test_overflowing_total_rejected(self):
        # finite weights whose sum overflows would give all-zero probabilities,
        # and sample_categorical would then always return the last index
        with pytest.warns(RuntimeWarning, match="overflow"), pytest.raises(ValueError, match="finite total"):
            smp.Categorical.from_weights([1e308, 1e308, 1.0])
        assert smp.Categorical.from_weights([1e308, 7e307, 1.0]).probabilities.sum() == pytest.approx(1.0)


class TestDecomposition:
    def test_worked_example(self):
        pair = smp.PerturbedPair.from_weights([40, 40, 60, 60], [39, 41, 58, 61])
        dec = smp.decompose_perturbed(pair)
        exact_gamma = 1.0 - (58.0 / 199.0) / 0.3
        np.testing.assert_allclose(dec.gamma, exact_gamma, atol=1e-12)
        np.testing.assert_allclose([1.0 - dec.gamma, dec.gamma], [0.9715, 0.0285], atol=1e-4)

    def test_zero_delta(self):
        pair = smp.PerturbedPair.from_weights([2.0, 3.0], [2.0, 3.0])
        dec = smp.decompose_perturbed(pair)
        assert dec.gamma == 0.0
        mix = (1 - dec.gamma) * pair.base.probabilities + dec.gamma * dec.residual.probabilities
        np.testing.assert_allclose(mix, pair.perturbed.probabilities, atol=1e-15)

    def test_reconstruction_identity(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            pair = random_pair(rng)
            dec = smp.decompose_perturbed(pair)
            mix = (1 - dec.gamma) * pair.base.probabilities + dec.gamma * dec.residual.probabilities
            np.testing.assert_allclose(mix, pair.perturbed.probabilities, atol=1e-12)
            assert np.all(dec.residual.weights >= 0)
            assert dec.residual.weights.min() == 0.0

    @settings(max_examples=300, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(st.floats(1e-6, 1e6), st.floats(1e-6, 1e6)), min_size=1, max_size=40
        )
    )
    def test_mixture_identity_for_any_positive_weights(self, pairs):
        base, perturbed = zip(*pairs)
        pair = smp.PerturbedPair.from_weights(base, perturbed)
        dec = smp.decompose_perturbed(pair)
        mix = (1 - dec.gamma) * pair.base.probabilities + dec.gamma * dec.residual.probabilities
        np.testing.assert_allclose(mix, pair.perturbed.probabilities, rtol=0, atol=1e-12)

    def test_gamma_is_minimal(self):
        rng = np.random.default_rng(7)
        checked = 0
        for _ in range(500):
            pair = random_pair(rng)
            dec = smp.decompose_perturbed(pair)
            if dec.gamma <= 0:
                continue
            shrunk = 0.999 * dec.gamma
            residual = (pair.perturbed.probabilities - (1 - shrunk) * pair.base.probabilities) / shrunk
            assert residual.min() < 0
            checked += 1
        assert checked > 450

    def test_zero_base_weight_rejected(self):
        base = smp.Categorical.from_weights([0.0, 1.0])
        pert = smp.Categorical.from_weights([0.5, 1.0])
        pair = smp.PerturbedPair(base=base, perturbed=pert, deltas=pert.weights - base.weights)
        with pytest.raises(ValueError):
            smp.decompose_perturbed(pair)

    def test_mixture_sampling_matches_direct(self):
        # two-stage draw (Bernoulli(gamma), then base or residual) against the
        # perturbed distribution itself, chi-square at significance 0.001
        rng = np.random.default_rng(11)
        pair = random_pair(rng, m=6)
        dec = smp.decompose_perturbed(pair)
        n = 100_000
        pick_residual = rng.random(n) < dec.gamma
        base_cum = np.cumsum(pair.base.probabilities)
        res_cum = np.cumsum(dec.residual.probabilities)
        draws = np.where(
            pick_residual,
            np.searchsorted(res_cum, rng.random(n), side="right"),
            np.searchsorted(base_cum, rng.random(n), side="right"),
        ).clip(max=5)
        observed = np.bincount(draws, minlength=6)
        expected = pair.perturbed.probabilities * n
        result = stats.chisquare(observed, expected)
        assert result.pvalue > 0.001


class TestGammaInverseBound:
    def test_zero_delta_gives_one(self):
        pair = smp.PerturbedPair.from_weights([1.0, 2.0], [1.0, 2.0])
        assert smp.gamma_inverse_bound(pair) == pytest.approx(1.0)

    def test_worked_example(self):
        pair = smp.PerturbedPair.from_weights([40, 40, 60, 60], [39, 41, 58, 61])
        gamma = 1.0 - (58.0 / 199.0) / 0.3
        assert smp.gamma_inverse_bound(pair) == pytest.approx(1.0 / (1.0 - gamma), rel=1e-10)

    def test_third_rule_bound(self):
        rng = np.random.default_rng(13)
        for _ in range(2000):
            pair = random_pair(rng, m=5, max_rel=1.0 / 3.0)
            assert smp.gamma_inverse_bound(pair) <= 2.0 + 1e-12


class TestSubsampleSize:
    def cfg(self, tau, delta):
        return smp.EstimationConfig(tau=tau, delta=delta)

    def test_unit_case(self):
        n = smp.subsample_size(self.cfg(1.0, 2.0 / math.e), d=1, range_norm=math.sqrt(2), mean_norm=1.0)
        assert n == 1

    def test_halving_tau_quadruples(self):
        base = smp.subsample_size(self.cfg(1.0, 2.0 / math.e), d=1, range_norm=math.sqrt(2), mean_norm=1.0)
        quad = smp.subsample_size(self.cfg(0.5, 2.0 / math.e), d=1, range_norm=math.sqrt(2), mean_norm=1.0)
        assert quad == 4 * base

    def test_third_tau_example(self):
        n = smp.subsample_size(self.cfg(1.0 / 3.0, 0.05), d=10, range_norm=math.sqrt(2), mean_norm=1.0)
        assert n == math.ceil(9 * math.log(400))
        assert n == 54

    def test_zero_mean_signals_degenerate(self):
        with pytest.raises(smp.DegenerateWeights):
            smp.subsample_size(self.cfg(0.5, 0.1), d=3, range_norm=1.0, mean_norm=0.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            smp.EstimationConfig(tau=0.0)
        with pytest.raises(ValueError):
            smp.EstimationConfig(delta=1.0)
        with pytest.raises(ValueError):
            smp.EstimationConfig(subsample_policy="guess")
        with pytest.raises(ValueError):
            smp.EstimationConfig(fixed_n=0)

    def test_fixed_policy_size(self):
        cfg = smp.EstimationConfig()
        assert cfg.size_for_shard(50) == 16
        assert cfg.size_for_shard(500) == 50
        assert cfg.size_for_shard(10) == 10
        assert smp.EstimationConfig(fixed_n=5).size_for_shard(50) == 5

    @settings(max_examples=200, deadline=None)
    @given(sizes=st.lists(st.integers(1, 2**40), min_size=1, max_size=20), fixed_n=st.none() | st.integers(1, 300))
    def test_fixed_sizes_match_per_shard_rule(self, sizes, fixed_n):
        cfg = smp.EstimationConfig(fixed_n=fixed_n)
        expected = [min(n, fixed_n or max(16, math.ceil(0.1 * n))) for n in sizes]
        assert cfg.size_for_shard(np.array(sizes)).tolist() == expected
        assert [cfg.size_for_shard(n) for n in sizes] == expected


class TestEstimateShardWeight:
    def setup_method(self):
        self.problem = prob.generate_heterogeneous(prob.LINEAR, 4, 100, 5, 2.0, seed=3)
        rng = np.random.default_rng(1)
        self.x = rng.normal(size=self.problem.param_dim)
        self.anchor = np.zeros(self.problem.param_dim)

    def test_zero_at_anchor(self):
        rng = np.random.default_rng(0)
        w = smp.estimate_shard_weight(self.problem, 0, self.x, self.x, 4, rng)
        assert w == 0.0

    def test_full_sample_is_exact(self):
        size = self.problem.shard(1).size
        exact = np.linalg.norm(
            prob.shard_gradient(self.problem, 1, self.x)
            - prob.shard_gradient(self.problem, 1, self.anchor)
        )
        w = smp.estimate_shard_weight(self.problem, 1, self.x, self.anchor, size, np.random.default_rng(5))
        assert w == pytest.approx(exact, abs=1e-12)

    def test_out_of_range_size(self):
        with pytest.raises(ValueError):
            smp.estimate_shard_weight(self.problem, 0, self.x, self.anchor, 0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            smp.estimate_shard_weight(
                self.problem, 0, self.x, self.anchor, self.problem.shard(0).size + 1, np.random.default_rng(0)
            )

    @pytest.mark.parametrize("tau", [0.2, 1.0 / 3.0])
    @pytest.mark.parametrize("delta", [0.05, 0.1])
    def test_concentration_coverage(self, tau, delta):
        # empirical failure rate of the relative-error guarantee stays below delta
        cfg = smp.EstimationConfig(tau=tau, delta=delta)
        m = 2
        size = self.problem.shard(m).size
        exact = smp.estimate_shard_weight(self.problem, m, self.x, self.anchor, size, np.random.default_rng(0))
        range_norm, mean_norm = smp.lemma_bounds(self.problem, m, self.x, self.anchor)
        n = min(size, smp.subsample_size(cfg, self.problem.param_dim, range_norm, mean_norm))
        rng = np.random.default_rng(99)
        fails = sum(
            abs(smp.estimate_shard_weight(self.problem, m, self.x, self.anchor, n, rng) - exact)
            > tau * exact
            for _ in range(2000)
        )
        assert fails / 2000 <= delta

    def test_lemma_bounds_match_brute_force(self):
        deltas = prob.gradient_delta_matrix(self.problem, 0, self.x, self.anchor)
        range_norm, mean_norm = smp.lemma_bounds(self.problem, 0, self.x, self.anchor)
        assert range_norm == pytest.approx(
            np.linalg.norm(deltas.max(axis=0) - deltas.min(axis=0))
        )
        assert mean_norm == pytest.approx(np.linalg.norm(deltas.mean(axis=0)))

    def test_matches_subsample_gradient_difference(self):
        # the estimate is the norm of the shard-gradient difference on the
        # sorted reference draw from the same stream
        for m in range(self.problem.m_workers):
            size = self.problem.shard(m).size
            idx = np.sort(sequential_fisher_yates(size, 9, np.random.default_rng(m)))
            ref = np.linalg.norm(
                prob.shard_gradient(self.problem, m, self.x, sample_indices=idx)
                - prob.shard_gradient(self.problem, m, self.anchor, sample_indices=idx)
            )
            w = smp.estimate_shard_weight(self.problem, m, self.x, self.anchor, 9, np.random.default_rng(m))
            assert w == pytest.approx(ref, rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 2**62), k_share=st.floats(0.0, 1.0), seed=st.integers(0, 2**128))
    @example(n=2**32 + 1, k_share=1e-9, seed=2**64 + 7)
    @example(n=2**40, k_share=1e-11, seed=0)
    @example(n=25, k_share=1.0, seed=3)
    def test_fisher_yates_matches_sequential_reference(self, n, k_share, seed):
        # same indices as k scalar draws, and the generator ends in the same
        # state, so every later draw from it is unchanged too
        k = min(n, 40, round(k_share * n))
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        assert smp._partial_fisher_yates(n, k, rng).tolist() == sequential_fisher_yates(n, k, ref_rng)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_without_replacement(self):
        # a subsample of the full shard size must visit every index exactly once
        idx = smp._partial_fisher_yates(20, 20, np.random.default_rng(3))
        assert sorted(idx) == list(range(20))
        small = smp._partial_fisher_yates(20, 7, np.random.default_rng(4))
        assert len(set(small.tolist())) == 7


def worker_stream(key, m):
    """Worker m's stream, built by numpy from the full key."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(tuple(key) + (m,))))


def per_worker_draws(key, shard_sizes, sizes):
    """Every worker's subsample drawn one worker at a time from its own stream."""
    out = []
    for m, (n, k) in enumerate(zip(shard_sizes, sizes)):
        if k:
            out += smp._partial_fisher_yates(n, k, worker_stream(key, m)).tolist()
    return out


KEY_INTS = st.integers(0, 2**32 - 1) | st.integers(2**32, 2**96)


class TestBatchedDraws:
    @settings(max_examples=300, deadline=None)
    @given(prefix=st.lists(KEY_INTS, max_size=9), last=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=5))
    @example(prefix=[2**40 + 3, 2**64 + 5, 2, 3, 17], last=[0, 1, 2])
    @example(prefix=[], last=[7])
    def test_seed_words_match_seed_sequence(self, prefix, last):
        # prefixes of 0 to 9 ints give keys of 1 to 10 words, and multi-word
        # ints longer ones
        words = np.array(smp._key_words(prefix), dtype=np.uint32)
        got = smp._seed_words(np.random.SeedSequence(words), np.array(last))
        want = [np.random.SeedSequence(tuple(prefix) + (w,)).generate_state(4, np.uint64).tolist() for w in last]
        assert got.tolist() == want

    @settings(max_examples=200, deadline=None)
    @given(
        key=st.lists(KEY_INTS, max_size=6),
        shards=st.lists(
            st.tuples(st.integers(1, 300) | st.integers(1, 2**62), st.integers(0, 40), st.booleans()),
            min_size=1,
            max_size=12,
        ),
    )
    @example(key=[2**40 + 3, 2**64 + 5, 2, 3, 17], shards=[(40, 20, False), (40, 0, False), (47, 47, False)])
    @example(key=[1, 2, 1, 1], shards=[(1, 1, False), (25, 25, True), (2**32, 3, False), (2**32 - 1, 3, False)])
    @example(key=[9, 2, 4, 4], shards=[(3 * 2**30 + c, 6, False) for c in range(12)])
    @example(key=[1, 2, 3, 4], shards=[(5, 0, False), (6, 0, False)])
    def test_draws_match_per_worker_fisher_yates(self, key, shards):
        # ragged sizes; k = 0, k = n and n = 1; a bound of exactly 2**32 is a
        # plain uint32 draw; shards of more than 2**32 rows, and bounds near
        # 3 * 2**30 (Lemire rejects about a quarter of the draws there), take
        # the per-worker path on the worker's own stream
        shard_sizes = [n for n, _, _ in shards]
        sizes = [n if full and n <= 300 else min(n, k) for n, k, full in shards]
        got = smp._draw_subsamples(tuple(key), np.array(shard_sizes), np.array(sizes))
        assert got.dtype == np.intp
        assert got.tolist() == per_worker_draws(key, shard_sizes, sizes)

    def test_rejections_fall_back_to_the_worker_stream(self, monkeypatch):
        # bounds near 3 * 2**30: some workers hit a rejection and are redrawn
        # from their own streams, the others are drawn in the batch
        redrawn = []
        oracle = smp._partial_fisher_yates

        def spy(n, k, rng):
            redrawn.append(n)
            return oracle(n, k, rng)

        monkeypatch.setattr(smp, "_partial_fisher_yates", spy)
        shard_sizes = np.full(16, 3 * 2**30 + 1)
        sizes = np.full(16, 3)
        got = smp._draw_subsamples((5, 2, 1, 1), shard_sizes, sizes).tolist()
        assert 0 < len(redrawn) < 16
        monkeypatch.setattr(smp, "_partial_fisher_yates", oracle)
        assert got == per_worker_draws((5, 2, 1, 1), shard_sizes.tolist(), sizes.tolist())


class TestSampleCategorical:
    def test_single_category(self):
        dist = smp.Categorical.from_weights([3.0])
        assert smp.sample_categorical(dist, np.random.default_rng(0)) == 0

    def test_zero_mass_never_drawn(self):
        dist = smp.Categorical.from_weights([0.0, 1.0])
        rng = np.random.default_rng(1)
        assert all(smp.sample_categorical(dist, rng) == 1 for _ in range(200))

    def test_empirical_frequency(self):
        dist = smp.Categorical.from_weights([1.0, 3.0])
        rng = np.random.default_rng(2)
        draws = sum(smp.sample_categorical(dist, rng) for _ in range(100_000))
        assert abs(draws / 100_000 - 0.75) <= 0.01

    def test_categorical_validation(self):
        with pytest.raises(ValueError):
            smp.Categorical.from_weights([])
        with pytest.raises(ValueError):
            smp.Categorical.from_weights([np.nan, 1.0])
        with pytest.raises(smp.DegenerateWeights):
            smp.Categorical.from_weights([0.0, 0.0])
        dist = smp.Categorical.from_weights([2.0, 6.0])
        assert dist.probabilities.sum() == pytest.approx(1.0, abs=1e-12)
