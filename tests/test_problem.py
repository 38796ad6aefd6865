"""Gradients, smoothness metadata, generation, and CSV round-trips."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hetsvrg import comm, optim
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

    @pytest.mark.parametrize("name, bad", [("m_workers", 2.5), ("samples_total", 100.5), ("dim", 2.5),
                                           ("dim", np.float64(4.0)), ("m_workers", "2")])
    def test_shape_must_be_integers(self, name, bad):
        shape = {"m_workers": 2, "samples_total": 100, "dim": 3, name: bad}
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            prob.generate_heterogeneous(prob.LINEAR, **shape, growth_base=2.0, seed=0)

    def test_numpy_integer_shape_matches_python_ints(self):
        a = prob.generate_heterogeneous(prob.LINEAR, np.int64(3), np.int32(60), np.int64(2), 2.0, seed=4)
        b = prob.generate_heterogeneous(prob.LINEAR, 3, 60, 2, 2.0, seed=4)
        assert a.m_workers == 3 and a.dim == 2
        np.testing.assert_array_equal(a.aug, b.aug)
        np.testing.assert_array_equal(a.test_y, b.test_y)


class TestShardWorkerId:
    @pytest.mark.parametrize("bad", [0.7, 1.9, np.float64(0.0), "0"])
    def test_worker_id_must_be_an_integer(self, bad):
        # int() once ran 0.7 as worker 0 and 1.9 as worker 1
        with pytest.raises(ValueError, match="worker_id must be an integer"):
            prob.Shard(bad, [[1.0]], [0.0])

    def test_numpy_integer_worker_id_is_stored_as_int(self):
        shard = prob.Shard(np.int64(1), [[1.0]], [0.0])
        assert type(shard.worker_id) is int and shard.worker_id == 1
        p = prob.ShardedProblem([prob.Shard(np.int32(0), [[1.0]], [0.0]), shard], prob.LINEAR)
        assert [s.worker_id for s in p.shards] == [0, 1]

    @pytest.mark.parametrize("worker", ["0.7", "1.9", "1e0"])
    def test_csv_fractional_worker_id_is_a_format_error(self, worker, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(f"worker_id,target,f_0\n0,1.0,2.0\n{worker},1.0,2.0\n")
        with pytest.raises(prob.DatasetFormatError, match=":3: column 'worker_id' is not an integer"):
            prob.load_csv(path, prob.LINEAR)


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

    @pytest.mark.parametrize("task, value, line", [(prob.LINEAR, "nan", 4), (prob.LOGISTIC, "inf", 3)])
    def test_non_finite_feature_reports_line(self, task, value, line, tmp_path):
        rows = ["worker_id,target,f_0,f_1", "0,1.0,0.5,2.0", "1,0.0,1.5,-1.0", "-1,1.0,0.5,0.5"]
        rows[line - 1] = rows[line - 1].rsplit(",", 1)[0] + "," + value
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(prob.DatasetFormatError, match=f":{line}: non-finite"):
            prob.load_csv(path, task)


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


class TestStackedShardGradients:
    """``_shard_gradients`` gives each pick ``shard_gradient``'s bits, for
    shards on both sides of the stacking bound in one call."""

    P = 41  # parameters; shards of at most _STACKED_SHARD // P rows are gathered and stacked

    @settings(max_examples=80, deadline=None)
    @given(task=st.sampled_from(prob.TASKS), data=st.data(), seed=st.integers(0, 2**32 - 1))
    def test_equals_shard_gradient_bit_for_bit(self, task, data, seed):
        bound = prob._STACKED_SHARD // self.P
        small = data.draw(st.lists(st.integers(1, bound), min_size=1, max_size=3))
        large = data.draw(st.lists(st.integers(bound + 1, bound + 40), min_size=1, max_size=2))
        sizes = data.draw(st.permutations(small + large))
        M = len(sizes)
        rng = np.random.default_rng(seed)
        shards = []
        for m, n in enumerate(sizes):
            y = rng.integers(0, 2, size=n).astype(float) if task == prob.LOGISTIC else rng.normal(size=n)
            shards.append(prob.Shard(m, rng.normal(size=(n, self.P - 1)) * rng.uniform(0.1, 3.0), y))
        problem = prob.ShardedProblem(shards, task)
        workers = data.draw(st.lists(st.integers(0, M - 1), min_size=1, max_size=3 * M))
        out = {}
        for _ in range(2):  # the second call reuses the kept buffers and shard blocks
            X = rng.normal(size=(len(workers), self.P))
            G = prob._shard_gradients(problem, np.array(workers), X, out)
            assert G.shape == X.shape
            for i, m in enumerate(workers):
                np.testing.assert_array_equal(G[i], prob.shard_gradient(problem, m, X[i]))

    def test_buffers_hold_only_the_picks_of_one_size(self):
        # 64 workers of 64 distinct shard sizes, all stacked: the kept
        # buffers are one pick of the largest size, not a block per size
        rng, p = np.random.default_rng(3), 5
        shards = [prob.Shard(m, rng.normal(size=(m + 1, p - 1)), rng.normal(size=m + 1)) for m in range(64)]
        problem = prob.ShardedProblem(shards, prob.LINEAR)
        workers, X, out = np.arange(64), rng.normal(size=(64, p)), {}
        assert 64 * p <= prob._STACKED_SHARD
        G = prob._shard_gradients(problem, workers, X, out)
        for i, m in enumerate(workers):
            np.testing.assert_array_equal(G[i], prob.shard_gradient(problem, m, X[i]))
        assert sorted(out) == ["aug", "y"]
        assert out["aug"].size == 64 * p and out["y"].size == 64


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

    @pytest.mark.parametrize("where", ["feature", "target", "test feature", "test target"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_problem_rejects_non_finite_rows(self, where, value):
        X, y, test_X, test_y = np.ones((3, 2)), np.zeros(3), np.ones((2, 2)), np.zeros(2)
        {"feature": X, "target": y, "test feature": test_X, "test target": test_y}[where].flat[1] = value
        with pytest.raises(ValueError, match="must be finite"):
            prob.ShardedProblem([prob.Shard(0, X, y)], prob.LINEAR, test_X=test_X, test_y=test_y)


def per_shard_generation(task, m_workers, samples_total, dim, growth_base, seed):
    """``generate_heterogeneous`` as it once ran, the reference for its
    in-place draws: each shard's normals times its scale as an array of its
    own, the same for the held-out rows, then the public constructor."""
    train_total = samples_total - samples_total // 5
    rng = np.random.default_rng(seed)
    x_star = rng.normal(size=dim + 1)
    scales = growth_base ** (np.arange(m_workers, dtype=float) - max(m_workers - 2, 0))
    counts = [train_total // m_workers] * m_workers
    counts[-1] += train_total % m_workers
    train_X = [rng.normal(size=(counts[m], dim)) * scales[m] for m in range(m_workers)]
    test_owner = np.arange(samples_total - train_total) % m_workers
    test_X = rng.normal(size=(test_owner.size, dim)) * scales[test_owner][:, None]
    z_train = [X @ x_star[:-1] + x_star[-1] for X in train_X]
    z_test = test_X @ x_star[:-1] + x_star[-1]
    if task == prob.LINEAR:
        noise_sd = 0.1 * float(np.std(np.concatenate(z_train + [z_test])))
        y_train = [z + rng.normal(size=z.shape) * noise_sd for z in z_train]
        y_test = z_test + rng.normal(size=z_test.shape) * noise_sd
    else:
        y_train = [(z > 0).astype(float) for z in z_train]
        y_test = (z_test > 0).astype(float)
    shards = [prob.Shard(m, train_X[m], y_train[m]) for m in range(m_workers)]
    return prob.ShardedProblem(shards, task, test_X=test_X, test_y=y_test)


class TestInPlaceGeneration:
    @pytest.mark.parametrize("task", prob.TASKS)
    @pytest.mark.parametrize("shape", [
        (3, 50, 4, 1.7, 5),  # 40 training rows: the last shard holds 14
        (7, 1003, 13, 1.1, 9),  # 803 rows over 7: the last holds 119
        (1, 37, 6, 1.3, 2),  # one worker
        (64, 20000, 50, 1.2, 1),  # the scale_asd benchmark's shape
    ])
    def test_rows_match_per_shard_generation_bit_for_bit(self, task, shape):
        got, want = prob.generate_heterogeneous(task, *shape), per_shard_generation(task, *shape)
        for name in ("aug", "y", "test_aug", "test_X", "test_y", "sizes", "offsets"):
            a, b = getattr(got, name), getattr(want, name)
            assert (a.dtype, a.shape) == (b.dtype, b.shape), name
            assert a.tobytes() == b.tobytes(), name

    def test_construction_peak_stays_near_the_rows_kept(self):
        # the rows are drawn into the arrays the problem keeps: at most one
        # shard's or the held-out set's draw and a finiteness mask on top
        # (a per-shard list stacked into a copy peaked at 1.93x)
        prob.generate_heterogeneous(prob.LINEAR, 2, 100, 3, 1.2, 1)  # warm caches
        tracemalloc.start()
        try:
            p = prob.generate_heterogeneous(prob.LINEAR, 64, 20000, 50, 1.2, 1)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kept >= p.aug.nbytes + p.test_aug.nbytes
        assert peak <= 1.25 * kept

    def test_held_out_rows_are_stored_once(self):
        generated = small_problem(prob.LOGISTIC)
        shard = prob.Shard(0, np.ones((3, 2)), [0.0, 1.0, 2.0])
        constructed = prob.ShardedProblem([shard], prob.LINEAR, test_X=np.ones((2, 2)), test_y=[1.0, 2.0])
        for p in (generated, constructed):
            assert np.shares_memory(p.test_X, p.test_aug)
            np.testing.assert_array_equal(p.test_X, p.test_aug[:, :-1])
            np.testing.assert_array_equal(p.test_aug[:, -1], 1.0)
        empty = prob.ShardedProblem([shard], prob.LINEAR)
        assert empty.test_aug.shape == (0, 3) and empty.test_X.shape == (0, 2) and empty.test_y.shape == (0,)

    @pytest.mark.parametrize("rows", [1, 3])
    @pytest.mark.parametrize("given, missing", [("test_X", "test_y"), ("test_y", "test_X")])
    def test_held_out_arguments_come_together(self, rows, given, missing):
        # test_y alone once dropped the targets; test_X alone was reported
        # as non-finite or as a shape mismatch
        held_out = {"test_X": np.ones((rows, 2)), "test_y": np.zeros(rows)}
        with pytest.raises(ValueError, match=f"{missing} is missing"):
            prob.ShardedProblem([prob.Shard(0, np.ones((3, 2)), np.zeros(3))], prob.LINEAR,
                                **{given: held_out[given]})


@st.composite
def scaled_linear_problems(draw):
    """Linear problems with ragged shards whose feature scales span 1e-5 to
    1e2, and 1 to 40 held-out rows at randomly chosen shards' scales.  Every
    shard has at least two rows per parameter, and each shard and the
    held-out set get noise of 1% to 100% of their targets' root mean square,
    so no shard is fitted exactly: the row-by-row oracle itself loses digits,
    about eps * |y| / residual, on rows fitted almost exactly (see
    ``problem._QuadraticLoss``)."""
    m = draw(st.integers(1, 6))
    dim = draw(st.integers(1, 5))
    sizes = draw(st.lists(st.integers(2 * (dim + 1), 2 * (dim + 1) + 30), min_size=m, max_size=m))
    scales = 10.0 ** np.array(draw(st.lists(st.floats(-5.0, 2.0), min_size=m, max_size=m)))
    noise = 10.0 ** draw(st.floats(-2.0, 0.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x_true = rng.normal(size=dim + 1)

    def rows(row_scales):
        X = rng.normal(size=(row_scales.size, dim)) * row_scales[:, None]
        z = X @ x_true[:-1] + x_true[-1]
        return X, z + noise * np.sqrt(np.mean(z**2)) * rng.normal(size=z.size)

    shards = [prob.Shard(k, *rows(np.full(n, scales[k]))) for k, n in enumerate(sizes)]
    test_X, test_y = rows(scales[rng.integers(m, size=draw(st.integers(1, 40)))])
    return prob.ShardedProblem(shards, prob.LINEAR, test_X=test_X, test_y=test_y)


def direct_loss(p, x):
    """The stacked row-by-row training loss: one mat-vec, per-shard means."""
    residuals = (p.aug @ x - p.y) ** 2
    return float(np.mean(np.add.reduceat(residuals, p.offsets[:-1]) / p.sizes))


def direct_test_loss(p, x):
    return float(np.mean((p.test_aug @ x - p.test_y) ** 2))


def least_squares_minimum(p):
    weights = np.repeat(1.0 / np.sqrt(p.m_workers * p.sizes), p.sizes)
    return np.linalg.lstsq(p.aug * weights[:, None], p.y * weights, rcond=None)[0]


class TestQuadraticForm:
    @settings(max_examples=300, deadline=None)
    @given(p=scaled_linear_problems(), seed=st.integers(0, 2**32 - 1), far=st.floats(0.0, 3.0))
    def test_matches_direct_evaluation(self, p, seed, far):
        rng = np.random.default_rng(seed)
        x_star = least_squares_minimum(p)
        points = [
            x_star,
            x_star + 1e-6 * rng.normal(size=p.param_dim),
            np.zeros(p.param_dim),
            10.0**far * rng.normal(size=p.param_dim),
        ]
        for x in points:
            assert prob.full_loss(p, x) == pytest.approx(direct_loss(p, x), rel=1e-12, abs=0.0)
            loss, acc = prob.test_metrics(p, x)
            assert loss == pytest.approx(direct_test_loss(p, x), rel=1e-12, abs=0.0)
            assert np.isnan(acc)

    @settings(max_examples=300, deadline=None)
    @given(
        p=scaled_linear_problems(),
        seed=st.integers(0, 2**32 - 1),
        exponent=st.sampled_from([0, 3, 4, 100, 154, 160, 200, 308]),
        special=st.sampled_from([None, np.inf, -np.inf, np.nan]),
    )
    def test_guard_diverges_exactly_when_direct_form_does(self, p, seed, exponent, special):
        rng = np.random.default_rng(seed)
        cfg = optim.OptimizerConfig(eta=0.1, epochs=1, inner_iters=1)
        x0 = np.zeros(p.param_dim)
        recorder = optim._Cell(cfg, x0, prob.full_loss(p, x0))
        with np.errstate(all="ignore"):
            x = rng.normal(size=p.param_dim) * 10.0**exponent
            if special is not None:
                x[rng.integers(p.param_dim)] = special
            direct = direct_loss(p, x)
            assume(not np.isfinite(direct) or abs(direct - recorder.limit) > 1e-6 * recorder.limit)
            recorder.x = x
            optim._observe(p, 1, 1, [recorder], x[None])
            diverged = isinstance(recorder.outcome, optim.Diverged)
        assert diverged == (not np.isfinite(direct) or direct > recorder.limit)

    def test_held_out_rows_factored_in_blocks(self):
        # 600 held-out rows: blocks of 256, 256 and 88
        p = prob.generate_heterogeneous(prob.LINEAR, 4, 3000, 5, 1.5, seed=1)
        assert p.test_y.size == 600
        rng = np.random.default_rng(2)
        for x in [least_squares_minimum(p), np.zeros(p.param_dim), rng.normal(size=p.param_dim)]:
            assert prob.test_metrics(p, x)[0] == pytest.approx(direct_test_loss(p, x), rel=1e-12, abs=0.0)

    def test_forms_are_built_once(self):
        p = small_problem(seed=4)
        x = np.ones(p.param_dim)
        prob.full_loss(p, x)
        prob.test_metrics(p, x)
        train, test = p._train_form, p._test_form
        prob.full_loss(p, 2 * x)
        prob.test_metrics(p, 2 * x)
        assert p._train_form is train and p._test_form is test


@st.composite
def ragged_problems(draw):
    """Problems of either task with 1 to 4 shards of 1 to 37 rows, 0 to 37
    held-out rows (no test set at 0) and 1 to 12 features: the row counts
    are mostly not multiples of 4, where BLAS mat-vecs take their tail
    paths."""
    task = draw(st.sampled_from(prob.TASKS))
    m = draw(st.integers(1, 4))
    dim = draw(st.integers(1, 12))
    sizes = draw(st.lists(st.integers(1, 37), min_size=m, max_size=m))
    n_test = draw(st.integers(0, 37))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def targets(n):
        return rng.normal(size=n) if task == prob.LINEAR else (rng.random(n) < 0.5).astype(float)

    shards = [prob.Shard(k, rng.normal(size=(n, dim)) * 2.0**k, targets(n)) for k, n in enumerate(sizes)]
    test = dict(test_X=rng.normal(size=(n_test, dim)), test_y=targets(n_test)) if n_test else {}
    return prob.ShardedProblem(shards, task, **test)


@st.composite
def points(draw, p):
    """1 to 16 points for ``p`` (a grid of 15 cells is evaluated in one
    call): normal, scaled by up to 1e308, some holding an inf or a nan."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    out = []
    for _ in range(draw(st.integers(1, 16))):
        with np.errstate(over="ignore"):
            x = rng.normal(size=p.param_dim) * 10.0 ** draw(st.sampled_from([-2, 0, 1, 3, 100, 200, 308]))
        special = draw(st.sampled_from([None, None, np.inf, -np.inf, np.nan]))
        if special is not None:
            x[rng.integers(p.param_dim)] = special
        out.append(x)
    return np.array(out)


def solo_bytes(*values):
    return np.array(values, dtype=float).tobytes()


def one_point_losses(p, x):
    """(train loss, test loss, test accuracy) of one point by the one-point
    formulas: the quadratic forms, or one mat-vec over exactly the training
    rows and one over exactly the held-out rows."""
    if p.task == prob.LINEAR:
        test = (p._test_form(x), np.nan) if p.test_y.size else (np.nan, np.nan)
        return (p._train_form(x), *test)
    losses = prob._pointwise_loss(p.task, p.aug @ x, p.y)
    train = np.mean(np.add.reduceat(losses, p.offsets[:-1]) / p.sizes)
    if not p.test_y.size:
        return train, np.nan, np.nan
    z = p.test_aug @ x
    return train, np.mean(prob._pointwise_loss(p.task, z, p.test_y)), np.mean((z > 0) == (p.test_y > 0.5))


class TestBatchedEvaluation:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), p=ragged_problems())
    def test_batch_equals_each_point_alone(self, data, p):
        X = data.draw(points(p))
        with np.errstate(all="ignore"):
            train = prob._batch_full_loss(p, X)
            test_loss, test_acc = prob._batch_test_metrics(p, X)
            alone = [(prob.full_loss(p, x), *prob.test_metrics(p, x)) for x in X]
            oracle = [one_point_losses(p, x) for x in X]
        assert all(type(v) is float for v in (*train, *test_loss, *test_acc))
        batch = np.array([train, test_loss, test_acc]).T
        assert batch.tobytes() == np.array(alone).tobytes() == np.array(oracle).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), p=ragged_problems(), t=st.integers(1, 6), eval_every=st.integers(1, 3))
    def test_observe_guards_and_records_each_cell_as_alone(self, data, p, t, eval_every):
        """Every cell of one ``_observe`` call diverges, or records a row on
        the evaluation cadence only, exactly as its point alone dictates."""
        X = data.draw(points(p))
        x0 = np.zeros(p.param_dim)
        config = optim.OptimizerConfig(eta=0.1, epochs=1, inner_iters=6, eval_every=eval_every)
        cells = [optim._Cell(config, x0, prob.full_loss(p, x0)) for _ in X]
        for c, x in zip(cells, X):
            c.x = x
        with np.errstate(all="ignore"):
            optim._observe(p, 2, t, cells, np.asarray(X, dtype=float))
            for c, x in zip(cells, X):
                train = prob.full_loss(p, x)
                if not np.isfinite(train) or train > c.limit:
                    assert isinstance(c.outcome, optim.Diverged) and c.rows == []
                    assert str(c.outcome) == f"train loss {train} exceeded the guard at epoch 2, step {t}"
                    assert c.outcome.trace.final_x.tobytes() == x.tobytes()
                    continue
                assert c.outcome is None
                if t % eval_every:
                    assert c.rows == []
                    continue
                (row,) = c.rows
                assert all(type(v) is float for v in (row.train_loss, row.test_loss, row.test_accuracy))
                assert (row.epoch, row.step) == (2, t)
                assert solo_bytes(row.train_loss, row.test_loss, row.test_accuracy) == solo_bytes(
                    train, *prob.test_metrics(p, x))


def ulps(a, b):
    """Distance in units in the last place between arrays of nonnegative floats."""
    return np.abs(np.asarray(a).view(np.int64) - np.asarray(b).view(np.int64))


# finite logits from +-5e-324 (subnormals included) through +-1e308, and the
# range where log1p(e^-|z|) is neither 0 nor below one ulp of |z|
finite_logits = st.floats(-1e308, 1e308) | st.floats(-800.0, 800.0) | st.floats(-40.0, 40.0)


class TestSoftplus:
    """``problem._softplus``, the logistic loss's log(1 + e^z), against
    ``np.logaddexp(0, z)`` (which ``_loss_of_sample`` keeps as the oracle)."""

    @settings(max_examples=300, deadline=None)
    @given(z=st.lists(finite_logits, min_size=1, max_size=70))
    @example(z=[0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 745.2, -745.2, 36.8, -36.8])
    def test_within_two_ulp_of_logaddexp(self, z):
        z = np.array(z)
        soft = prob._softplus(z)
        assert soft.dtype == float and soft.shape == z.shape
        assert ulps(soft, np.logaddexp(0.0, z)).max() <= 2

    def test_within_two_ulp_over_a_dense_sweep(self):
        mags = np.logspace(-323.3, 308, 200_001)
        z = np.concatenate([mags, -mags, np.linspace(-800.0, 800.0, 200_001)])
        assert ulps(prob._softplus(z), np.logaddexp(0.0, z)).max() <= 2

    def test_non_finite_logits_match_logaddexp(self):
        z = np.array([np.inf, -np.inf, np.nan, -np.float64(np.nan)])
        with np.errstate(invalid="ignore"):
            oracle = np.logaddexp(0.0, z)
        np.testing.assert_array_equal(oracle, [np.inf, 0.0, np.nan, np.nan])
        assert prob._softplus(z).tobytes() == oracle.tobytes()  # a nan keeps its sign bit

    @settings(max_examples=300, deadline=None)
    @given(cells=st.integers(1, 6), n=st.integers(0, 70), shift=st.integers(0, 7), seed=st.integers(0, 2**32 - 1))
    def test_each_row_of_a_stack_is_that_row_alone(self, cells, n, shift, seed):
        """The batched losses evaluate a (C, N) stack of logits and a cell's
        row must have the bits it has alone, at any length and alignment
        (the kernels are SIMD with masked tails), a nan's sign bit included
        (a point holding an inf or a nan gives nan logits of either sign)."""
        rng = np.random.default_rng(seed)
        Z = rng.normal(size=(cells, n)) * 2.0 ** rng.integers(-4, 10, size=(cells, n))
        odd = rng.random((cells, n)) < 0.2
        Z[odd] = rng.choice([np.inf, -np.inf, np.nan, -np.float64(np.nan)], size=odd.sum())
        y = (rng.random(n) < 0.5).astype(float)
        with np.errstate(invalid="ignore"):
            stacked = prob._pointwise_loss(prob.LOGISTIC, Z, y)
            for row, z in zip(stacked, Z):
                moved = np.empty(n + shift)[shift:]  # the row alone, another offset into a new buffer
                moved[:] = z
                assert row.tobytes() == prob._pointwise_loss(prob.LOGISTIC, z, y).tobytes()
                assert row.tobytes() == prob._pointwise_loss(prob.LOGISTIC, moved, y).tobytes()


def segment_rows(task, counts, p, cells, seed):
    """(r, A): rows A for the ``counts`` segments, their scales spread over
    2**-8 to 2**8, and the (cells, rows) residual differences of ``task``
    at ``cells`` pairs of random points on them."""
    rng = np.random.default_rng(seed)
    n = int(sum(counts))
    A = rng.normal(size=(n, p)) * 2.0 ** rng.integers(-8, 9, size=(n, 1))
    y = rng.normal(size=n) if task == prob.LINEAR else (rng.random(n) < 0.5).astype(float)
    x, anchor = rng.normal(size=(2, cells, p))
    return prob._pointwise_residual(task, x @ A.T, y) - prob._pointwise_residual(task, anchor @ A.T, y), A


# ragged counts, some of 0 or 1 rows, or no segment at all; or equal counts
segment_counts = st.lists(st.integers(0, 40), max_size=8) | st.builds(
    lambda n, s: [n] * s, st.integers(1, 40), st.integers(1, 8))


class TestSegmentSums:
    """``problem._segment_sums``: each segment's sum of r_j a_j as one
    (1 x k) @ (k x p) product, equal runs stacked in one ``np.matmul``."""

    @settings(max_examples=200, deadline=None)
    @given(task=st.sampled_from(prob.TASKS), counts=segment_counts, p=st.integers(1, 12), cells=st.integers(1, 3),
           seed=st.integers(0, 2**32 - 1))
    @example(task=prob.LOGISTIC, counts=[1, 1, 1], p=5, cells=1, seed=0)  # k = 1
    @example(task=prob.LINEAR, counts=[], p=3, cells=2, seed=0)  # no segment
    def test_matches_fsum_of_per_sample_products(self, task, counts, p, cells, seed):
        """Each coordinate is within gamma_(k+2) * sum_j |r_j a_j| of the
        correctly rounded sum (``math.fsum``) of the per-sample products,
        gamma_n = n u / (1 - n u), u = 2**-53: gamma_k bounds a length-k dot
        product (Higham, Accuracy and Stability of Numerical Algorithms,
        Eq. 3.5), and one u each the rounded products and the rounded
        reference.  A segment of 0 rows sums to exactly 0."""
        r, A = segment_rows(task, counts, p, cells, seed)
        sums = prob._segment_sums(r, A, counts)
        assert sums.shape == (cells, len(counts), p)
        u, lo = 2.0**-53, 0
        for s, k in enumerate(counts):
            products = r[:, lo : lo + k, None] * A[lo : lo + k]
            for c in range(cells):
                for i in range(p):
                    want = math.fsum(products[c, :, i])
                    bound = (k + 2) * u / (1 - (k + 2) * u) * math.fsum(np.abs(products[c, :, i]))
                    assert abs(sums[c, s, i] - want) <= bound
            lo += k

    @settings(max_examples=200, deadline=None)
    @given(task=st.sampled_from(prob.TASKS), counts=segment_counts, before=segment_counts, p=st.integers(1, 12),
           cells=st.integers(1, 3), shift=st.integers(0, 7), per_cell=st.booleans(), seed=st.integers(0, 2**32 - 1))
    @example(task=prob.LINEAR, counts=[9, 9], before=[9, 9, 9], p=6, cells=1, shift=1, per_cell=False,
             seed=0)  # one run of 5
    @example(task=prob.LOGISTIC, counts=[1], before=[1, 4], p=1, cells=2, shift=3, per_cell=False,
             seed=0)  # k = 1, p = 1
    @example(task=prob.LINEAR, counts=[5, 5], before=[5], p=4, cells=3, shift=2, per_cell=True,
             seed=0)  # one run of 3, a row set per cell
    def test_each_sum_is_its_segment_alone(self, task, counts, before, p, cells, shift, per_cell, seed):
        """Each segment's sum is ``r_s @ A_s`` for that segment alone, bit for
        bit: inside a longer block, whose segments before it stack in the
        same products where their counts match, and with its rows and
        residuals copied ``shift`` floats into new buffers.  With more than
        one row of r, every row reads the same rows, broadcast, or with
        ``per_cell`` its own rows, an A of shape ``r.shape[:-1] + (N, p)``."""
        r, A = segment_rows(task, before + counts, p, cells, seed)
        if per_cell:  # each cell's rows their own scaling of the shared ones
            A = A * np.random.default_rng(seed).choice([0.25, 1.0, 3.0], size=(cells, 1, p))

        def shifted(a):
            out = np.empty(a.size + shift)[shift:].reshape(a.shape)
            out[...] = a
            return out

        head = int(sum(before))
        whole = prob._segment_sums(r, A, before + counts)
        alone = prob._segment_sums(shifted(r[:, head:]), shifted(A[..., head:, :]), counts)
        lo = head
        for s, k in enumerate(counts):
            for c in range(cells):
                rows = A[c] if per_cell else A
                want = (r[c, lo : lo + k] @ rows[lo : lo + k]).tobytes()
                assert whole[c, len(before) + s].tobytes() == want == alone[c, s].tobytes()
            lo += k
