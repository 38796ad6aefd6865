"""Gradients, smoothness metadata, generation, and CSV round-trips."""

import numpy as np
import pytest

from hetsvrg import problem as prob


def _loss_of_sample(task, aug_row, y, x):
    z = float(aug_row @ x)
    if task == prob.LINEAR:
        return (z - y) ** 2
    return float(np.logaddexp(0.0, z) - y * z)


def _fd_gradient(f, x, h=1e-6):
    """Central finite differences, the reference for every analytic gradient."""
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2 * h)
    return g


def _power_iteration_top_eig(mat, iters=500):
    v = np.ones(mat.shape[0]) / np.sqrt(mat.shape[0])
    for _ in range(iters):
        w = mat @ v
        n = np.linalg.norm(w)
        if n == 0:
            return 0.0
        v = w / n
    return float(v @ mat @ v)


def small_problem(task=prob.LINEAR, m=3, total=60, dim=4, growth=1.5, seed=0):
    return prob.generate_heterogeneous(task, m, total, dim, growth, seed)


class TestAtomicGradient:
    def test_stationary_sample_gives_zero(self):
        shard = prob.Shard(0, [[1.0, 0.0]], [0.0])
        p = prob.ShardedProblem([shard], prob.LINEAR)
        g = prob.atomic_gradient(p, 0, 0, np.zeros(3))
        np.testing.assert_array_equal(g, np.zeros(3))

    def test_linear_example(self):
        shard = prob.Shard(0, [[1.0, 0.0]], [1.0])
        p = prob.ShardedProblem([shard], prob.LINEAR)
        g = prob.atomic_gradient(p, 0, 0, np.zeros(3))
        # residual -1, gradient 2*(-1)*(a, 1)
        np.testing.assert_allclose(g, [-2.0, 0.0, -2.0], atol=1e-12)
        f = lambda x: _loss_of_sample(prob.LINEAR, shard.aug[0], 1.0, x)
        np.testing.assert_allclose(g, _fd_gradient(f, np.zeros(3)), atol=1e-6)

    def test_logistic_zero_logit_label_one(self):
        shard = prob.Shard(0, [[2.0, -1.0]], [1.0])
        p = prob.ShardedProblem([shard], prob.LOGISTIC)
        g = prob.atomic_gradient(p, 0, 0, np.zeros(3))
        np.testing.assert_allclose(g, -0.5 * np.array([2.0, -1.0, 1.0]), atol=1e-12)
        f = lambda x: _loss_of_sample(prob.LOGISTIC, shard.aug[0], 1.0, x)
        np.testing.assert_allclose(g, _fd_gradient(f, np.zeros(3)), atol=1e-6)

    @pytest.mark.parametrize("task", prob.TASKS)
    def test_matches_finite_differences_randomly(self, task):
        rng = np.random.default_rng(5)
        for trial in range(100):
            p = small_problem(task, seed=trial % 7)
            x = rng.normal(size=p.param_dim)
            m = int(rng.integers(p.m_workers))
            j = int(rng.integers(p.shard(m).size))
            g = prob.atomic_gradient(p, m, j, x)
            f = lambda z: _loss_of_sample(task, p.shard(m).aug[j], p.shard(m).y[j], z)
            fd = _fd_gradient(f, x)
            np.testing.assert_allclose(g, fd, rtol=1e-5, atol=1e-5)

    def test_index_and_dimension_errors(self):
        p = small_problem()
        with pytest.raises(ValueError):
            prob.atomic_gradient(p, 0, 0, np.zeros(p.param_dim + 1))
        with pytest.raises(IndexError):
            prob.atomic_gradient(p, p.m_workers, 0, np.zeros(p.param_dim))
        with pytest.raises(IndexError):
            prob.atomic_gradient(p, 0, p.shard(0).size, np.zeros(p.param_dim))


class TestShardGradient:
    def test_single_sample_equals_atomic(self):
        shard = prob.Shard(0, [[0.5, 2.0]], [1.5])
        p = prob.ShardedProblem([shard], prob.LINEAR)
        x = np.array([0.3, -0.2, 0.1])
        np.testing.assert_array_equal(
            prob.shard_gradient(p, 0, x), prob.atomic_gradient(p, 0, 0, x)
        )

    def test_opposite_gradients_cancel(self):
        # same features, opposite residuals: the two atomic gradients are g and -g
        shard = prob.Shard(0, [[1.0], [1.0]], [-1.0, 1.0])
        p = prob.ShardedProblem([shard], prob.LINEAR)
        g0 = prob.atomic_gradient(p, 0, 0, np.zeros(2))
        g1 = prob.atomic_gradient(p, 0, 1, np.zeros(2))
        np.testing.assert_array_equal(g0, -g1)
        np.testing.assert_allclose(prob.shard_gradient(p, 0, np.zeros(2)), np.zeros(2), atol=1e-15)

    def test_five_sample_brute_force(self):
        rng = np.random.default_rng(3)
        shard = prob.Shard(0, rng.normal(size=(5, 3)), rng.normal(size=5))
        p = prob.ShardedProblem([shard], prob.LINEAR)
        x = rng.normal(size=4)
        brute = np.mean([prob.atomic_gradient(p, 0, j, x) for j in range(5)], axis=0)
        np.testing.assert_allclose(prob.shard_gradient(p, 0, x), brute, rtol=1e-12, atol=1e-12)

    def test_subset_indices(self):
        p = small_problem()
        x = np.ones(p.param_dim)
        sub = prob.shard_gradient(p, 1, x, sample_indices=[0, 2])
        brute = 0.5 * (prob.atomic_gradient(p, 1, 0, x) + prob.atomic_gradient(p, 1, 2, x))
        np.testing.assert_allclose(sub, brute, rtol=1e-12, atol=1e-12)
        with pytest.raises(IndexError):
            prob.shard_gradient(p, 1, x, sample_indices=[p.shard(1).size])


class TestFullGradient:
    def test_single_worker(self):
        p = small_problem(m=1)
        x = np.linspace(-1, 1, p.param_dim)
        np.testing.assert_array_equal(prob.full_gradient(p, x), prob.shard_gradient(p, 0, x))

    def test_identical_shards(self):
        rng = np.random.default_rng(1)
        X, y = rng.normal(size=(4, 3)), rng.normal(size=4)
        shards = [prob.Shard(i, X.copy(), y.copy()) for i in range(3)]
        p = prob.ShardedProblem(shards, prob.LINEAR)
        x = rng.normal(size=4)
        np.testing.assert_allclose(
            prob.full_gradient(p, x), prob.shard_gradient(p, 0, x), rtol=1e-12
        )

    @pytest.mark.parametrize("task", prob.TASKS)
    def test_matches_finite_differences_of_total_loss(self, task):
        p = small_problem(task, m=3, seed=9)
        rng = np.random.default_rng(2)
        x = rng.normal(size=p.param_dim)
        fd = _fd_gradient(lambda z: prob.full_loss(p, z), x)
        np.testing.assert_allclose(prob.full_gradient(p, x), fd, rtol=1e-5, atol=1e-5)

    def test_equals_flat_mean_for_equal_shards(self):
        p = small_problem(m=4, total=100, seed=4)
        assert len({s.size for s in p.shards}) == 1
        rng = np.random.default_rng(8)
        x = rng.normal(size=p.param_dim)
        flat = np.mean(
            [
                prob.atomic_gradient(p, m, j, x)
                for m in range(p.m_workers)
                for j in range(p.shard(m).size)
            ],
            axis=0,
        )
        np.testing.assert_allclose(prob.full_gradient(p, x), flat, rtol=1e-12, atol=1e-12)


class TestLipschitzInfo:
    def test_zero_feature_sample(self):
        # feature vector 0 leaves only the bias coordinate: curvature 2 * 1
        shard = prob.Shard(0, [[0.0, 0.0]], [1.0])
        p = prob.ShardedProblem([shard], prob.LINEAR)
        info = prob.lipschitz_info(p)
        np.testing.assert_allclose(info.per_sample, [2.0])

    def test_identity_gram_single_sample(self):
        # a bias-only sample has Gram matrix [[1]]; top eigenvalue doubles
        shard = prob.Shard(0, np.zeros((1, 0)), [0.5])
        p = prob.ShardedProblem([shard], prob.LINEAR)
        info = prob.lipschitz_info(p)
        oracle = _power_iteration_top_eig(2.0 * shard.aug.T @ shard.aug / shard.size)
        np.testing.assert_allclose(info.per_shard, [oracle])
        np.testing.assert_allclose(info.per_shard, [2.0])

    @pytest.mark.parametrize("task", prob.TASKS)
    def test_per_shard_matches_power_iteration(self, task):
        p = small_problem(task, seed=12)
        info = prob.lipschitz_info(p)
        curv = 2.0 if task == prob.LINEAR else 0.25
        for m, s in enumerate(p.shards):
            oracle = _power_iteration_top_eig(curv * s.aug.T @ s.aug / s.size)
            np.testing.assert_allclose(info.per_shard[m], oracle, rtol=1e-8)

    @pytest.mark.parametrize("task", prob.TASKS)
    def test_gradient_smoothness_bound(self, task):
        p = small_problem(task, seed=21)
        info = prob.lipschitz_info(p)
        assert info.l_bar <= info.l_max
        assert np.all(info.per_sample >= 0) and np.all(info.per_shard >= 0)
        rng = np.random.default_rng(0)
        for _ in range(50):
            x, y = rng.normal(size=(2, p.param_dim))
            for m in range(p.m_workers):
                lhs = np.linalg.norm(prob.shard_gradient(p, m, x) - prob.shard_gradient(p, m, y))
                assert lhs <= info.per_shard[m] * np.linalg.norm(x - y) * (1 + 1e-9)

    def test_shard_bound_below_sample_mean(self):
        p = small_problem(seed=3)
        info = prob.lipschitz_info(p)
        start = 0
        for m, s in enumerate(p.shards):
            sample_mean = info.per_sample[start : start + s.size].mean()
            assert info.per_shard[m] <= sample_mean * (1 + 1e-12)
            start += s.size

    def test_strong_convexity(self):
        p = small_problem(seed=6)
        info = prob.lipschitz_info(p)
        assert info.strong_convexity > 0
        hess = sum(2.0 / s.size * s.aug.T @ s.aug for s in p.shards) / p.m_workers
        np.testing.assert_allclose(
            info.strong_convexity, np.linalg.eigvalsh(hess)[0], rtol=1e-10
        )
        p_log = small_problem(prob.LOGISTIC, seed=6)
        assert prob.lipschitz_info(p_log).strong_convexity == 0.0


class TestGenerate:
    def test_linear_preset_shape(self):
        p = prob.generate_heterogeneous(prob.LINEAR, 8, 500, 10, 3.0, seed=0)
        assert p.m_workers == 8 and p.dim == 10
        assert [s.size for s in p.shards] == [50] * 8
        assert p.test_X.shape == (100, 10)

    def test_logistic_preset_shape(self):
        p = prob.generate_heterogeneous(prob.LOGISTIC, 8, 300, 100, 3.0, seed=0)
        assert [s.size for s in p.shards] == [30] * 8
        assert p.test_X.shape == (60, 100)
        labels = np.concatenate([s.y for s in p.shards])
        assert set(np.unique(labels)) <= {0.0, 1.0}

    def test_remainder_goes_to_last_shard(self):
        p = prob.generate_heterogeneous(prob.LINEAR, 3, 50, 2, 1.5, seed=0)
        # 40 training rows over 3 workers
        assert [s.size for s in p.shards] == [13, 13, 14]

    def test_growth_one_is_homogeneous(self):
        p = prob.generate_heterogeneous(prob.LINEAR, 8, 500, 10, 1.0, seed=1)
        info = prob.lipschitz_info(p)
        assert info.l_max / info.l_bar <= 1.5

    def test_growth_makes_shard_constants_increase(self):
        per_seed = []
        for seed in range(10):
            p = prob.generate_heterogeneous(prob.LINEAR, 6, 240, 8, 2.0, seed=seed)
            per_seed.append(prob.lipschitz_info(p).per_shard)
        med = np.median(per_seed, axis=0)
        assert np.all(np.diff(med) > 0)

    def test_deterministic(self):
        a = prob.generate_heterogeneous(prob.LINEAR, 4, 80, 3, 2.0, seed=33)
        b = prob.generate_heterogeneous(prob.LINEAR, 4, 80, 3, 2.0, seed=33)
        for sa, sb in zip(a.shards, b.shards):
            np.testing.assert_array_equal(sa.X, sb.X)
            np.testing.assert_array_equal(sa.y, sb.y)
        np.testing.assert_array_equal(a.test_X, b.test_X)

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            prob.generate_heterogeneous(prob.LINEAR, 0, 100, 3, 2.0, seed=0)
        with pytest.raises(ValueError):
            prob.generate_heterogeneous(prob.LINEAR, 10, 8, 3, 2.0, seed=0)
        with pytest.raises(ValueError):
            prob.generate_heterogeneous(prob.LINEAR, 2, 100, 0, 2.0, seed=0)
        with pytest.raises(ValueError):
            prob.generate_heterogeneous("poisson", 2, 100, 3, 2.0, seed=0)


class TestCsvRoundTrip:
    def test_round_trip(self, tmp_path):
        p = small_problem(m=3, total=40, dim=3, seed=17)
        path = tmp_path / "data.csv"
        prob.save_csv(p, path)
        q = prob.load_csv(path, prob.LINEAR)
        assert q.m_workers == p.m_workers
        for sp, sq in zip(p.shards, q.shards):
            np.testing.assert_array_equal(sp.X, sq.X)
            np.testing.assert_array_equal(sp.y, sq.y)
        np.testing.assert_array_equal(p.test_X, q.test_X)
        np.testing.assert_array_equal(p.test_y, q.test_y)

    def test_bad_column_count_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("worker_id,target,f_0\n0,1.0,2.0\n0,1.0\n")
        with pytest.raises(prob.DatasetFormatError, match=":3"):
            prob.load_csv(path, prob.LINEAR)

    def test_non_numeric_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("worker_id,target,f_0\n0,one,2.0\n")
        with pytest.raises(prob.DatasetFormatError, match=":2"):
            prob.load_csv(path, prob.LINEAR)

    def test_non_contiguous_workers_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("worker_id,target,f_0\n0,1.0,2.0\n2,1.0,2.0\n")
        with pytest.raises(prob.DatasetFormatError, match="contiguous"):
            prob.load_csv(path, prob.LINEAR)

    def test_empty_and_missing_header(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(prob.DatasetFormatError, match="empty"):
            prob.load_csv(path, prob.LINEAR)
        path.write_text("a,b,c\n")
        with pytest.raises(prob.DatasetFormatError, match="header"):
            prob.load_csv(path, prob.LINEAR)


class TestEvaluation:
    def test_test_metrics_regression_has_nan_accuracy(self):
        p = small_problem(seed=2)
        loss, acc = prob.test_metrics(p, np.zeros(p.param_dim))
        assert np.isfinite(loss) and np.isnan(acc)

    def test_test_metrics_classification_accuracy(self):
        p = small_problem(prob.LOGISTIC, m=2, total=50, dim=3, seed=2)
        loss, acc = prob.test_metrics(p, np.zeros(p.param_dim))
        assert np.isfinite(loss) and 0.0 <= acc <= 1.0

    def test_problem_without_test_rows(self):
        shard = prob.Shard(0, [[1.0]], [0.0])
        p = prob.ShardedProblem([shard], prob.LINEAR)
        loss, acc = prob.test_metrics(p, np.zeros(2))
        assert np.isnan(loss) and np.isnan(acc)


class TestStackedRows:
    def remainder_problem(self, task):
        # 3 workers over 40 training rows: the last shard holds the remainder
        return prob.generate_heterogeneous(task, 3, 50, 4, 1.7, seed=5)

    @pytest.mark.parametrize("task", prob.TASKS)
    def test_full_loss_is_mean_of_shard_losses(self, task):
        p = self.remainder_problem(task)
        assert [s.size for s in p.shards] == [13, 13, 14]
        rng = np.random.default_rng(8)
        for _ in range(5):
            x = rng.normal(size=p.param_dim)
            per_shard = np.mean([prob.shard_loss(p, m, x) for m in range(p.m_workers)])
            assert prob.full_loss(p, x) == pytest.approx(per_shard, rel=1e-12)

    def test_shards_view_the_stacked_matrix(self):
        p = self.remainder_problem(prob.LINEAR)
        assert p.aug.shape == (p.n_total, p.param_dim)
        np.testing.assert_array_equal(p.offsets, [0, 13, 26, 40])
        np.testing.assert_array_equal(p.aug[:, -1], 1.0)
        for m, s in enumerate(p.shards):
            assert np.shares_memory(s.aug, p.aug)
            assert np.shares_memory(s.X, p.aug)
            assert np.shares_memory(s.y, p.y)
            np.testing.assert_array_equal(s.aug, p.aug[p.offsets[m] : p.offsets[m + 1]])
            np.testing.assert_array_equal(s.X, s.aug[:, :-1])

    def test_input_shards_left_untouched(self):
        X = np.arange(6.0).reshape(3, 2)
        shard = prob.Shard(0, X, [1.0, 2.0, 3.0])
        p = prob.ShardedProblem([shard], prob.LINEAR)
        assert shard.X is X and p.shards[0] is not shard
        np.testing.assert_array_equal(p.shards[0].X, X)
