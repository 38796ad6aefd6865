"""Categorical machinery: optimal weights, decomposition, subsampled estimates."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from hetsvrg import problem as prob
from hetsvrg import sampling as smp


def shard_deltas(p, m, x, anchor):
    """Shard m's per-sample gradient differences r(a'x) - r(a'anchor) times a, one row per sample."""
    s = p.shard(m)
    r = prob._pointwise_residual(p.task, s.aug @ x, s.y) - prob._pointwise_residual(p.task, s.aug @ anchor, s.y)
    return r[:, None] * s.aug


def lemma1_sizes(p, x, anchor, tau, delta):
    """Lemma 1's subsample size of every shard at x against the anchor,
    capped at the shard: :func:`sampling.subsample_size` of its
    :func:`shard_deltas`, range_norm the norm of their coordinate-wise
    max - min and mean_norm the norm of their mean (the exact shard
    weight)."""
    sizes = []
    for m in range(p.m_workers):
        deltas = shard_deltas(p, m, x, anchor)
        range_norm = np.linalg.norm(deltas.max(axis=0) - deltas.min(axis=0))
        n = smp.subsample_size(p.param_dim, range_norm, np.linalg.norm(deltas.mean(axis=0)), tau=tau, delta=delta)
        sizes.append(min(p.shard(m).size, n))
    return sizes


def random_pair(rng, m=6, max_rel=0.3):
    """A strictly positive base and a perturbation bounded by max_rel * w."""
    w = rng.uniform(0.5, 5.0, size=m)
    delta = rng.uniform(-max_rel, max_rel, size=m) * w
    return smp.PerturbedPair.from_weights(w, w + delta)


class TestOptimalDistribution:
    def test_equal_norms_give_uniform(self):
        dist = smp.Categorical.from_weights([1.0, 1.0, 1.0, 1.0])
        np.testing.assert_allclose(dist.probabilities, 0.25)

    def test_direct_normalisation(self):
        dist = smp.Categorical.from_weights([1.0, 3.0])
        np.testing.assert_allclose(dist.probabilities, [0.25, 0.75])

    def test_beats_every_simplex_grid_point(self):
        # second-moment objective sum(g_m^2 / p_m) minimised over the 3-simplex
        norms = np.array([1.0, 2.0, 5.0])
        dist = smp.Categorical.from_weights(norms)

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
            dist = smp.Categorical.from_weights(norms)
            uniform = np.full(5, 0.2)
            with np.errstate(divide="ignore"):
                at_opt = np.sum(norms**2 / dist.probabilities, where=norms > 0)
                at_uni = np.sum(norms**2 / uniform)
            assert at_opt <= at_uni + 1e-9

    def test_all_zero_signals_degenerate(self):
        with pytest.raises(smp.DegenerateWeights):
            smp.Categorical.from_weights([0.0, 0.0])

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            smp.Categorical.from_weights([1.0, -0.1])

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
        pair = smp.PerturbedPair(base=base, perturbed=pert)
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
    def test_unit_case(self):
        n = smp.subsample_size(d=1, range_norm=math.sqrt(2), mean_norm=1.0, tau=1.0, delta=2.0 / math.e)
        assert n == 1

    def test_halving_tau_quadruples(self):
        base = smp.subsample_size(d=1, range_norm=math.sqrt(2), mean_norm=1.0, tau=1.0, delta=2.0 / math.e)
        quad = smp.subsample_size(d=1, range_norm=math.sqrt(2), mean_norm=1.0, tau=0.5, delta=2.0 / math.e)
        assert quad == 4 * base

    def test_third_tau_example(self):
        n = smp.subsample_size(d=10, range_norm=math.sqrt(2), mean_norm=1.0, tau=1.0 / 3.0, delta=0.05)
        assert n == math.ceil(9 * math.log(400))
        assert n == 54

    def test_zero_mean_signals_degenerate(self):
        with pytest.raises(smp.DegenerateWeights):
            smp.subsample_size(d=3, range_norm=1.0, mean_norm=0.0, tau=0.5, delta=0.1)

    @pytest.mark.parametrize("bad, match", [
        (dict(d=2.5), "d must be an integer"),  # once a size between d = 2's and d = 3's
        (dict(d=2.0), "d must be an integer"),
        (dict(range_norm=math.nan), "range_norm must be finite"),
        (dict(range_norm=math.inf), "range_norm must be finite"),
        (dict(range_norm=-math.inf), "range_norm must be finite"),
        (dict(mean_norm=math.nan), "mean_norm must be finite"),
        (dict(mean_norm=math.inf), "mean_norm must be finite"),
    ])
    def test_rejects_a_fractional_d_and_non_finite_norms(self, bad, match):
        args = dict(d=3, range_norm=1.0, mean_norm=0.5) | bad
        with pytest.raises(ValueError, match=match):
            smp.subsample_size(**args, tau=0.5, delta=0.1)

    def test_config_validation(self):
        for tau, delta in ((0.0, 0.05), (1.5, 0.05), (0.5, 0.0), (0.5, 1.0)):
            with pytest.raises(ValueError, match="tau must be|delta must be"):
                smp.subsample_size(d=3, range_norm=1.0, mean_norm=0.5, tau=tau, delta=delta)
        with pytest.raises(TypeError):  # Lemma 1's inputs, not a run's: no config carries them
            smp.EstimationConfig(tau=0.5)
        with pytest.raises(TypeError):  # and subsample_size has no defaults for them
            smp.subsample_size(d=3, range_norm=1.0, mean_norm=0.5)
        with pytest.raises(ValueError):
            smp.EstimationConfig(subsample_policy="guess")
        with pytest.raises(ValueError):
            smp.EstimationConfig(fixed_n=0)

    @pytest.mark.parametrize("fixed_n", [2.5, np.float64(3.0), 3.0])
    def test_non_integer_fixed_n_rejected(self, fixed_n):
        # the drawer once failed on it with a numpy casting TypeError
        with pytest.raises(ValueError, match="fixed_n must be an integer"):
            smp.EstimationConfig(fixed_n=fixed_n)

    def test_numpy_integer_fixed_n_is_read_as_int(self):
        cfg = smp.EstimationConfig(fixed_n=np.int64(5))
        assert type(cfg.fixed_n) is int and smp.subsample_sizes(50, cfg) == 5

    def test_fixed_policy_size(self):
        cfg = smp.EstimationConfig()
        assert smp.subsample_sizes(50, cfg) == 16
        assert smp.subsample_sizes(500, cfg) == 50
        assert smp.subsample_sizes(10, cfg) == 10
        assert smp.subsample_sizes(50, smp.EstimationConfig(fixed_n=5)) == 5
        assert smp.subsample_sizes(50, smp.EstimationConfig(subsample_policy="full", fixed_n=5)) == 50

    @settings(max_examples=200, deadline=None)
    @given(sizes=st.lists(st.integers(1, 2**40), min_size=1, max_size=20), fixed_n=st.none() | st.integers(1, 300))
    def test_fixed_sizes_match_per_shard_rule(self, sizes, fixed_n):
        cfg = smp.EstimationConfig(fixed_n=fixed_n)
        expected = [min(n, fixed_n or max(16, math.ceil(0.1 * n))) for n in sizes]
        assert smp.subsample_sizes(np.array(sizes), cfg).tolist() == expected
        assert [smp.subsample_sizes(n, cfg) for n in sizes] == expected
        full = smp.EstimationConfig(subsample_policy="full", fixed_n=fixed_n)
        assert smp.subsample_sizes(np.array(sizes), full).tolist() == sizes


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
        # empirical failure rate of the relative-error guarantee stays below
        # delta, on shards whose Lemma 1 sizes (20 to 124 of 200 rows) make
        # the estimate a real subsample; features centred away from 0 keep
        # the sizes below the shard size
        rng = np.random.default_rng(12)
        shards = [
            prob.Shard(m, 2.0 + 0.2 * 1.5**m * rng.normal(size=(200, 3)), rng.normal(size=200)) for m in range(4)
        ]
        p = prob.ShardedProblem(shards, prob.LINEAR)
        x, anchor = np.random.default_rng(1).normal(size=p.param_dim), np.zeros(p.param_dim)
        sizes = lemma1_sizes(p, x, anchor, tau, delta)
        for m in (0, 1):
            size = p.shard(m).size
            n = int(sizes[m])
            assert n < size
            exact = smp.estimate_shard_weight(p, m, x, anchor, size, np.random.default_rng(0))
            rng = np.random.default_rng(99)
            fails = sum(
                abs(smp.estimate_shard_weight(p, m, x, anchor, n, rng) - exact) > tau * exact for _ in range(2000)
            )
            assert fails / 2000 <= delta

    def test_shipped_drawer_coverage(self):
        # acceptance check 05's linear preset, point, tau, delta and draws per
        # shard, drawn by the optimizer's drawer: its Lemma 1 sizes 1, 1, 3
        # and 21 of 50 rows miss the relative-error target at most delta of
        # the time, the estimate the norm of the drawn rows' mean difference
        tau, delta = 1.0 / 3.0, 0.05
        p = prob.generate_heterogeneous(prob.LINEAR, 8, 500, 10, 3.0, seed=42)
        x, anchor = np.random.default_rng(7).normal(size=p.param_dim), np.zeros(p.param_dim)
        sizes = np.array(lemma1_sizes(p, x, anchor, tau, delta))
        sizes[sizes == p.sizes] = 0  # a whole-shard estimate is exact and cannot miss
        assert sizes.tolist() == [1, 1, 3, 21, 0, 0, 0, 0]
        draws = 2000 // p.m_workers
        rows = smp._draw_subsamples([smp._key_hash((42, t)) for t in range(draws)], p.sizes, np.tile(sizes, (draws, 1)))
        workers = np.flatnonzero(sizes)
        for m, drawn in zip(workers, np.split(rows.reshape(draws, -1), np.cumsum(sizes[workers])[:-1], axis=1)):
            deltas = shard_deltas(p, m, x, anchor)
            exact = np.linalg.norm(deltas.mean(axis=0))
            estimates = np.linalg.norm(deltas[drawn].mean(axis=1), axis=1)
            assert np.mean(np.abs(estimates - exact) > tau * exact) <= delta

    def test_matches_subsample_gradient_difference(self):
        # the estimate is the norm of the mean per-sample gradient difference
        # on the sorted reference draw from the same generator
        p = self.problem
        for m in range(p.m_workers):
            idx = np.sort(np.random.default_rng(m).choice(p.shard(m).size, 9, replace=False))
            diffs = [prob.atomic_gradient(p, m, j, self.x) - prob.atomic_gradient(p, m, j, self.anchor) for j in idx]
            ref = np.linalg.norm(np.mean(diffs, axis=0))
            w = smp.estimate_shard_weight(p, m, self.x, self.anchor, 9, np.random.default_rng(m))
            assert w == pytest.approx(ref, rel=1e-12)


def slices(draw, sizes):
    """Each worker's indices out of a draw concatenated in worker order."""
    return np.split(draw, np.cumsum(sizes)[:-1])


def draw_one(key, shard_sizes, sizes):
    """The draw of one key (a tuple of ints) with one row of sizes."""
    return smp._draw_subsamples([smp._key_hash(key)], shard_sizes, np.asarray(sizes)[None])


def shard_draws(largest=2**40):
    """Ragged (shard size, subsample size) pairs: k = 0, k = 1, k = n, 2k > n
    and n = 1 all occur, and shards of up to ``largest`` rows, far larger
    than any subsample."""
    return st.lists(
        st.integers(1, 60).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n)))
        | st.tuples(st.integers(61, largest), st.integers(0, 40)),
        min_size=1,
        max_size=10,
    )


SHARD_DRAWS = shard_draws()
KEYS = st.lists(st.integers(0, 2**32 - 1) | st.integers(2**32, 2**96), min_size=1, max_size=6).map(tuple)


@st.composite
def key_grids(draw, largest=2**40):
    """C keys, M shard sizes (up to ``largest`` rows) and ragged (C, M)
    subsample sizes: zero rows, k = n and 2k > n all occur."""
    shard_sizes = draw(st.lists(st.integers(1, 60) | st.integers(61, largest), min_size=1, max_size=8))
    keys = draw(st.lists(KEYS, min_size=1, max_size=5))
    sizes = [[draw(st.integers(0, min(n, 60))) for n in shard_sizes] for _ in keys]
    return keys, np.array(shard_sizes), np.array(sizes)


class TestSubsampleDrawer:
    @settings(max_examples=300, deadline=None)
    @given(key=KEYS, shards=SHARD_DRAWS)
    @example(key=(2**40 + 3, 2**64 + 5, 2, 3, 17), shards=[(1, 1), (1, 0), (50, 16), (30, 16), (47, 47), (2, 1)])
    @example(key=(7, 2), shards=[(1, 1), (3, 0), (47, 47), (2**40, 0), (60, 60)])  # whole shards only
    def test_each_worker_gets_its_size_in_distinct_ascending_indices(self, key, shards):
        shard_sizes, sizes = np.array(shards).T
        got = draw_one(key, shard_sizes, sizes)
        assert got.dtype == np.intp and got.shape == (sizes.sum(),)
        for idx, n in zip(slices(got, sizes), shard_sizes):
            assert np.all(np.diff(idx) > 0)  # ascending, so distinct
            assert idx.size == 0 or 0 <= idx[0] and idx[-1] < n
        # the same key gives the same draw
        assert draw_one(key, shard_sizes, sizes).tolist() == got.tolist()

    @settings(max_examples=200, deadline=None)
    @given(key=KEYS, shards=SHARD_DRAWS)
    def test_worker_drawn_alone_matches_its_slice(self, key, shards):
        shard_sizes, sizes = np.array(shards).T
        batch = slices(draw_one(key, shard_sizes, sizes), sizes)
        for m in range(sizes.size):
            alone = np.zeros_like(sizes)
            alone[m] = sizes[m]
            assert draw_one(key, shard_sizes, alone).tolist() == batch[m].tolist()

    @settings(max_examples=150, deadline=None)
    @given(grid=key_grids())
    @example(grid=([(1, 2, 3, t) for t in range(12)], np.full(20, 30), np.full((12, 20), 15)))  # ten rounds
    @example(grid=([(9, t) for t in range(3)], np.full(20, 30), np.full((3, 20), 14)))  # 60 segments of 14 of 30
    @example(grid=([(5,), (2**40 + 3, 2**64 + 5, 2, 3)], np.array([30, 7, 9, 50, 2**40]),
                   np.array([[16, 7, 0, 16, 0], [0, 0, 9, 50, 40]])))
    def test_each_key_of_a_list_matches_its_own_draw(self, grid):
        """A list of keys with (C, M) sizes gives each key's own one-key draw,
        concatenated in key order."""
        keys, shard_sizes, sizes = grid
        alone = [draw_one(key, shard_sizes, row) for key, row in zip(keys, sizes)]
        batch = smp._draw_subsamples([smp._key_hash(key) for key in keys], shard_sizes, sizes)
        assert batch.tolist() == np.concatenate(alone).tolist()

    @pytest.mark.parametrize("n, k", [(20, 5), (20, 15), (7, 4)])
    def test_inclusion_frequencies_match_k_over_n(self, n, k):
        # 4000 draws (80 keys of 50 workers each); every index's inclusion
        # count is Binomial(4000, k/n), and each must lie within 5 standard
        # deviations (a false alarm has probability below 1e-5 over all
        # indices).  (20, 5) takes the direct path, (20, 15) and (7, 4) the
        # complement path.
        workers, keys = 50, 80
        counts = np.zeros(n, dtype=int)
        for t in range(keys):
            draw = draw_one((3, 2, 1, t), np.full(workers, n), np.full(workers, k))
            counts += np.bincount(draw, minlength=n)
        trials, p = workers * keys, k / n
        bound = 5.0 * math.sqrt(trials * p * (1 - p))
        assert np.abs(counts - trials * p).max() <= bound

    @pytest.mark.parametrize("n, k", [(50, 16), (30, 16)])
    def test_draws_at_different_keys_and_workers_overlap_as_independent_ones(self, n, k):
        # two independent uniform k-subsets of n share k**2 / n indices on
        # average (hypergeometric); the mean over 1000 pairs must lie within
        # 5 standard errors of it, for pairs that differ in the epoch, in the
        # step, or in the worker
        workers, pairs = 10, 1000
        var = k * (k / n) * ((n - k) / n) * ((n - k) / (n - 1))
        bound = 5.0 * math.sqrt(var / pairs)
        shard_sizes, sizes = np.full(workers, n), np.full(workers, k)

        def draws(epoch, step):
            return slices(draw_one((9, 2, epoch, step), shard_sizes, sizes), sizes)

        by_epoch, by_step, by_worker = [], [], []
        for t in range(pairs // workers):
            a, b, c = draws(1, t), draws(2, t), draws(1, t + pairs)
            for m in range(workers):
                by_epoch.append(np.intersect1d(a[m], b[m]).size)
                by_step.append(np.intersect1d(a[m], c[m]).size)
                by_worker.append(np.intersect1d(a[m], a[(m + 1) % workers]).size)
        for overlaps in (by_epoch, by_step, by_worker):
            assert abs(np.mean(overlaps) - k * k / n) <= bound


ROUNDS_AHEAD = 4  # the reference hashes redraw rounds four at a time


def reference_draw(hashes, shard_sizes, sizes):
    """The drawer as it was before its packed-key sort: every redraw round
    stable-argsorts all slots, and the rounds are hashed ``ROUNDS_AHEAD`` at
    a time for every slot.  Its draws define the weights channel's stream."""
    cells, workers = np.nonzero(sizes)
    n, k = np.asarray(shard_sizes)[workers], sizes[cells, workers]
    if (k == n).all():
        return smp._segment_ranks(k)
    flip = 2 * k > n
    d = np.where(flip, n - k, k)
    stacked = smp._segment_starts(n)
    first, scale = np.repeat(stacked, d), np.repeat(n * 2.0**-53, d)
    seeds = smp._mix64(np.array(hashes, dtype=np.uint64)[cells]
                       + (workers.astype(np.uint64) + 1) * np.uint64(smp._GOLDEN))
    counters = np.repeat(seeds, d) + smp._segment_ranks(d).astype(np.uint64) * np.uint64(smp._GOLDEN)

    def draw_rows(rounds):
        r = np.asarray(rounds, dtype=np.uint64)[:, None]
        z = smp._mix64(counters + (r << np.uint64(32)) * np.uint64(smp._GOLDEN))
        return first + ((z >> 11) * scale).astype(np.intp)

    ahead = draw_rows(range(ROUNDS_AHEAD))
    rows = ahead[0]
    for r in itertools.count(1):
        order = np.argsort(rows, kind="stable")
        repeat = order[1:][rows[order[1:]] == rows[order[:-1]]]
        if not repeat.size:
            break
        if r % ROUNDS_AHEAD == 0:
            ahead = draw_rows(range(r, r + ROUNDS_AHEAD))
        rows[repeat] = ahead[r % ROUNDS_AHEAD, repeat]
    out = rows[order]
    if flip.any():
        left_out = np.repeat(flip, d)[order]
        flip_rows = np.repeat(stacked[flip], n[flip]) + smp._segment_ranks(n[flip])
        kept = np.ones(flip_rows.size, dtype=bool)
        kept[np.searchsorted(flip_rows, out[left_out])] = False
        out = np.sort(np.concatenate((out[~left_out], flip_rows[kept])))
    return out - np.repeat(stacked, k)


def bench_block(seed, n, k, workers, cells, steps):
    """A block of the estimator's draw at a benchmark's shape: ``steps``
    steps of ``cells`` cells, each worker drawing k of its n rows."""
    keys = [(seed, c, 2, 1, t) for t in range(2, 2 + steps) for c in range(cells)]
    return keys, np.full(workers, n), np.full((len(keys), workers), k)


PATHS = {"table": 2**62, "sort": 0}  # the forced side's _TABLE_ROWS_PER_SLOT
TABLE_SHARDS = 2**12  # rows of the largest shard a forced table path draws from


class TestDrawerReference:
    """The drawer, on its owner-table path and on its packed-key sort path,
    against the stable-argsort drawer they replaced."""

    @settings(max_examples=300, deadline=None)
    @given(grid=key_grids())
    @example(grid=([(1, 2, 3, t) for t in range(12)], np.full(20, 30), np.full((12, 20), 15)))  # ten rounds
    @example(grid=([(4, t) for t in range(40)], np.full(8, 60), np.full((40, 8), 12)))  # 3840 slots
    def test_key_grids_match_the_reference_byte_for_byte(self, grid):
        keys, shard_sizes, sizes = grid
        hashes = [smp._key_hash(key) for key in keys]
        got = smp._draw_subsamples(hashes, shard_sizes, sizes)
        want = reference_draw(hashes, shard_sizes, sizes)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(key=KEYS, shards=SHARD_DRAWS)
    @example(key=(7, 2), shards=[(1, 1), (3, 0), (47, 47), (2**40, 0), (60, 60)])  # whole shards only
    @example(key=(5,), shards=[(2**40, 40)] * 10)  # ten 2**40-row shards
    def test_shard_draws_match_the_reference_byte_for_byte(self, key, shards):
        shard_sizes, sizes = np.array(shards).T
        hashes = [smp._key_hash(key)]
        got = smp._draw_subsamples(hashes, shard_sizes, sizes[None])
        want = reference_draw(hashes, shard_sizes, sizes[None])
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("shard_sizes, sizes", [
        ([2**61, 2**61, 2**61], [1, 1, 1]),  # rows alone need 63 bits, slots 2
        ([2**62, 2**40], [2**40, 2**39]),  # 2**40 + 2**39 slots: terabytes, were they made
    ])
    def test_keys_past_63_bits_raise_before_any_slot_array(self, shard_sizes, sizes, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an array of slots was made")

        for name in ("repeat", "arange", "empty", "zeros"):
            monkeypatch.setattr(np, name, refuse)
        with pytest.raises(ValueError, match="63-bit"):
            smp._draw_subsamples([smp._key_hash((1,))], np.array(shard_sizes), np.array([sizes]))

    @pytest.mark.parametrize("path", PATHS)
    @settings(max_examples=200, deadline=None)
    @given(grid=key_grids(largest=TABLE_SHARDS))
    @example(grid=bench_block(33, 50, 16, 8, 5, 6))  # linear_sweep's 16 of 50: 10 redraw rounds
    @example(grid=bench_block(55, 30, 16, 8, 4, 6))  # 16 of 30, the complement path: 13 redraw rounds
    @example(grid=bench_block(34, 250, 25, 64, 2, 5))  # scale_asd's 25 of 250: 6 redraw rounds
    @example(grid=([(7, 2)], np.array([1, 3, 47, 60]), np.array([[1, 0, 47, 60]])))  # whole shards only
    def test_either_path_matches_the_reference_on_key_grids(self, path, grid):
        keys, shard_sizes, sizes = grid
        hashes = [smp._key_hash(key) for key in keys]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(smp, "_TABLE_ROWS_PER_SLOT", PATHS[path])
            got = smp._draw_subsamples(hashes, shard_sizes, sizes)
        want = reference_draw(hashes, shard_sizes, sizes)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("path", PATHS)
    @settings(max_examples=200, deadline=None)
    @given(key=KEYS, shards=shard_draws(largest=TABLE_SHARDS))
    @example(key=(3, 1), shards=[(50, 16)] * 64)  # 1024 slots of one key, 16 of 50
    @example(key=(3, 2), shards=[(30, 16)] * 64 + [(1, 1), (2, 1)])  # complement and whole shards
    @example(key=(3, 3), shards=[(250, 25)] * 64)
    def test_either_path_matches_the_reference_on_shard_draws(self, path, key, shards):
        shard_sizes, sizes = np.array(shards).T
        hashes = [smp._key_hash(key)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(smp, "_TABLE_ROWS_PER_SLOT", PATHS[path])
            got = smp._draw_subsamples(hashes, shard_sizes, sizes[None])
        want = reference_draw(hashes, shard_sizes, sizes[None])
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("shard_sizes, sizes, path", [
        ([50] * 8, [16] * 8, "table"),  # 3.1 stacked rows a slot
        ([30] * 8, [16] * 8, "table"),  # 16 of 30 draws the 14 it leaves out: 2.1 a slot
        ([250] * 64, [25] * 64, "sort"),  # 10 a slot
        ([2**40] * 10, [40] * 10, "sort"),
    ])
    def test_the_path_follows_stacked_rows_per_slot(self, shard_sizes, sizes, path, monkeypatch):
        tables = []
        full = np.full
        monkeypatch.setattr(np, "full", lambda shape, *a, **kw: tables.append(shape) or full(shape, *a, **kw))
        smp._draw_subsamples([smp._key_hash((1,))], np.array(shard_sizes), np.array([sizes]))
        assert tables == ([sum(shard_sizes)] if path == "table" else [])

    def test_keys_of_exactly_63_bits_draw(self):
        # 2**57 stacked rows (57 bits) and 64 slots (6 bits)
        got = smp._draw_subsamples([smp._key_hash((3,))], np.array([2**56, 2**56]), np.array([[32, 32]]))
        want = reference_draw([smp._key_hash((3,))], np.array([2**56, 2**56]), np.array([[32, 32]]))
        assert got.tobytes() == want.tobytes()


class TestSampleCategorical:
    def test_single_category(self):
        dist = smp.Categorical.from_weights([3.0])
        assert smp.sample_categorical(dist, np.random.default_rng(0)) == 0

    def test_zero_mass_never_drawn(self):
        dist = smp.Categorical.from_weights([0.0, 1.0])
        rng = np.random.default_rng(1)
        assert all(smp.sample_categorical(dist, rng) == 1 for _ in range(200))

    def test_top_uniform_never_draws_a_trailing_zero_weight(self):
        # the positive probabilities sum to just below 1, so the largest
        # uniform below 1 lies past them: the draw falls back to the last
        # positive entry, not the zero-weight one the forced 1.0 would give
        rng = np.random.default_rng(0)
        for _ in range(6):  # the sixth draw of seven weights is such a case
            weights = rng.random(7)
        dist = smp.Categorical.from_weights(list(weights) + [0.0])
        assert np.cumsum(dist.probabilities)[-2] == 1.0 - 2.0**-53

        class TopUniform:
            def random(self, size=None):
                return np.nextafter(1.0, 0.0) if size is None else np.full(size, np.nextafter(1.0, 0.0))

        assert smp.sample_categorical(dist, TopUniform()) == 6
        np.testing.assert_array_equal(smp._inverse_cdf(dist.probabilities, TopUniform().random((2, 3))), 6)

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
