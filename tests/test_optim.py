"""Optimizer loops: unbiasedness, convergence behaviour, ledger schedules, rates."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetsvrg import optim
from hetsvrg import problem as prob
from hetsvrg import sampling as smp


def quadratic_1d():
    """Single bias-only sample with target 0: the objective is exactly x^2."""
    shard = prob.Shard(0, np.zeros((1, 0)), [0.0])
    return prob.ShardedProblem([shard], prob.LINEAR)


def preset(seed=1):
    return prob.generate_heterogeneous(prob.LINEAR, 8, 500, 10, 3.0, seed=seed)


def exact_minimum(problem):
    A = np.vstack([s.aug for s in problem.shards])
    y = np.concatenate([s.y for s in problem.shards])
    x_star, *_ = np.linalg.lstsq(A, y, rcond=None)
    return x_star, prob.full_loss(problem, x_star)


class TestVrDirection:
    def test_at_anchor_returns_anchor_gradient(self):
        p = preset()
        anchor = np.ones(p.param_dim)
        g = prob.full_gradient(p, anchor)
        v = optim.vr_direction(p, 3, anchor, anchor, g, 0.125)
        np.testing.assert_array_equal(v, g)

    def test_single_worker_recovers_full_gradient(self):
        p = prob.generate_heterogeneous(prob.LINEAR, 1, 30, 3, 1.0, seed=0)
        rng = np.random.default_rng(1)
        x, anchor = rng.normal(size=(2, p.param_dim))
        v = optim.vr_direction(p, 0, x, anchor, prob.full_gradient(p, anchor), 1.0)
        np.testing.assert_allclose(v, prob.full_gradient(p, x), rtol=1e-12, atol=1e-12)

    def test_unbiased_under_any_distribution(self):
        p = prob.generate_heterogeneous(prob.LINEAR, 5, 100, 4, 2.0, seed=2)
        rng = np.random.default_rng(3)
        for _ in range(50):
            x, anchor = rng.normal(size=(2, p.param_dim))
            weights = rng.uniform(0.1, 2.0, size=5)
            probs = weights / weights.sum()
            g_anchor = prob.full_gradient(p, anchor)
            mean = sum(
                probs[m] * optim.vr_direction(p, m, x, anchor, g_anchor, probs[m])
                for m in range(5)
            )
            np.testing.assert_allclose(mean, prob.full_gradient(p, x), rtol=1e-10, atol=1e-10)

    def test_unbiased_under_exact_weight_distribution(self):
        # the distribution actually targeted by the adaptive loop: probabilities
        # proportional to the exact shard gradient-difference norms
        p = prob.generate_heterogeneous(prob.LINEAR, 5, 100, 4, 2.0, seed=4)
        rng = np.random.default_rng(6)
        for _ in range(20):
            x, anchor = rng.normal(size=(2, p.param_dim))
            weights = np.array(
                [
                    smp.estimate_shard_weight(p, m, x, anchor, p.shard(m).size, rng)
                    for m in range(5)
                ]
            )
            probs = weights / weights.sum()
            g_anchor = prob.full_gradient(p, anchor)
            mean = sum(
                probs[m] * optim.vr_direction(p, m, x, anchor, g_anchor, probs[m])
                for m in range(5)
            )
            np.testing.assert_allclose(mean, prob.full_gradient(p, x), rtol=1e-10, atol=1e-10)

    def test_nonpositive_probability_rejected(self):
        p = preset()
        with pytest.raises(ValueError):
            optim.vr_direction(p, 0, np.zeros(11), np.zeros(11), np.zeros(11), 0.0)


class TestRunSvrg:
    def test_zero_step_is_constant(self):
        p = preset()
        x0 = np.ones(p.param_dim)
        cfg = optim.OptimizerConfig(eta=0.0, epochs=3, inner_iters=5, seed=0)
        trace = optim.run_svrg(p, cfg, x0=x0)
        np.testing.assert_array_equal(trace.final_x, x0)
        losses = {r.train_loss for r in trace.rows}
        assert len(losses) == 1

    def test_1d_quadratic_contracts_in_median(self):
        p = quadratic_1d()
        gaps = []
        for seed in range(20):
            cfg = optim.OptimizerConfig(eta=0.1, epochs=5, inner_iters=10, seed=seed)
            trace = optim.run_svrg(p, cfg, x0=np.array([1.0]))
            gaps.append([r.train_loss for r in trace.rows if r.step == 10])
        med = np.median(gaps, axis=0)
        assert np.all(np.diff(med) < 0)

    def test_reaches_normal_equations_solution(self):
        p = prob.generate_heterogeneous(prob.LINEAR, 4, 50, 5, 1.5, seed=11)
        info = prob.lipschitz_info(p)
        _, f_star = exact_minimum(p)
        cfg = optim.OptimizerConfig(
            eta=0.4 / info.l_max, epochs=30, inner_iters=2 * p.n_total, seed=5
        )
        trace = optim.run_svrg(p, cfg)
        assert prob.full_loss(p, trace.final_x) - f_star <= 1e-6

    def test_importance_mode_runs_and_converges(self):
        p = preset(seed=2)
        info = prob.lipschitz_info(p)
        _, f_star = exact_minimum(p)
        cfg = optim.OptimizerConfig(
            eta=0.3 / info.l_max, epochs=6, inner_iters=100, seed=4,
            distribution_mode="lipschitz_importance",
        )
        trace = optim.run_svrg(p, cfg)
        assert trace.rows[-1].train_loss - f_star < 0.1 * (prob.full_loss(p, np.zeros(p.param_dim)) - f_star)

    def test_divergence_guard(self):
        p = preset()
        cfg = optim.OptimizerConfig(eta=100.0, epochs=3, inner_iters=50, seed=0)
        with pytest.raises(optim.Diverged) as err:
            optim.run_svrg(p, cfg)
        assert err.value.trace is not None
        assert err.value.trace.ledger.parallel_rounds > 0

    def test_ledger_schedule_single_step(self):
        # dim 9 so the payload vector has 10 scalars
        p = prob.generate_heterogeneous(prob.LINEAR, 8, 100, 9, 1.5, seed=0)
        cfg = optim.OptimizerConfig(eta=1e-4, epochs=1, inner_iters=1, seed=0)
        trace = optim.run_svrg(p, cfg)
        # prologue: anchor out (80), shard gradients in (80), full gradient out (80)
        # step: parameters to the one sampled worker and its reply (10 each)
        assert trace.ledger.server_worker_scalars == 160 + 10
        assert trace.ledger.worker_server_scalars == 80 + 10
        assert trace.ledger.worker_worker_scalars == 0
        assert trace.ledger.parallel_rounds == 3 + 2

    def test_anchor_last_iterate(self):
        p = preset()
        cfg = optim.OptimizerConfig(eta=1e-3, epochs=1, inner_iters=4, seed=9,
                                    anchor_rule="last_iterate")
        trace = optim.run_svrg(p, cfg)
        # with last_iterate the returned anchor equals the final inner iterate,
        # whose loss is the last recorded row
        assert prob.full_loss(p, trace.final_x) == trace.rows[-1].train_loss

    def test_eval_every_thins_rows(self):
        p = preset()
        cfg = optim.OptimizerConfig(eta=1e-3, epochs=2, inner_iters=10, seed=0, eval_every=5)
        trace = optim.run_svrg(p, cfg)
        assert [(r.epoch, r.step) for r in trace.rows] == [(1, 5), (1, 10), (2, 5), (2, 10)]


class TestRunAsdSvrg:
    def test_requires_adaptive_mode(self):
        p = preset()
        cfg = optim.OptimizerConfig(eta=0.01, epochs=1, inner_iters=1, seed=0)
        with pytest.raises(ValueError):
            optim.run_asd_svrg(p, cfg)

    def test_degenerate_start_keeps_exact_minimizer(self):
        # all-zero targets make x = 0 the exact optimum; every weight estimate
        # is zero, the uniform fallback fires, and the update is the zero vector
        shards = [prob.Shard(m, np.random.default_rng(m).normal(size=(5, 3)), np.zeros(5)) for m in range(4)]
        p = prob.ShardedProblem(shards, prob.LINEAR)
        cfg = optim.OptimizerConfig(eta=0.5, epochs=2, inner_iters=3, seed=1,
                                    distribution_mode="adaptive")
        trace = optim.run_asd_svrg(p, cfg, x0=np.zeros(4))
        np.testing.assert_array_equal(trace.final_x, np.zeros(4))
        assert trace.ledger.worker_worker_scalars > 0  # protocol still ran

    def test_homogeneous_full_weights_are_near_uniform(self):
        p = prob.generate_heterogeneous(prob.LINEAR, 8, 500, 10, 1.0, seed=2)
        rng = np.random.default_rng(0)
        x = rng.normal(size=p.param_dim)
        anchor = np.zeros(p.param_dim)
        w = np.array(
            [
                smp.estimate_shard_weight(p, m, x, anchor, p.shard(m).size, np.random.default_rng(m))
                for m in range(8)
            ]
        )
        probs = w / w.sum()
        assert np.abs(probs - 1.0 / 8.0).max() <= 0.05

    def test_ledger_schedule_single_step(self):
        p = prob.generate_heterogeneous(prob.LINEAR, 8, 100, 9, 1.5, seed=0)
        cfg = optim.OptimizerConfig(eta=1e-4, epochs=1, inner_iters=1, seed=0,
                                    distribution_mode="adaptive", group_size=1)
        trace = optim.run_asd_svrg(p, cfg)
        # R=1 tree: no leader-bound sends, 7 merge sends of 2 scalars
        pc_scalars = 2 * (8 - 8) + sum(2 * (8 // 2**h) for h in (1, 2, 3))
        assert trace.ledger.worker_worker_scalars == pc_scalars == 14
        # prologue 160 + per-step broadcast 80 + normaliser to 1 worker
        assert trace.ledger.server_worker_scalars == 160 + 80 + 1
        # prologue 80 + histogram (R) + one worker's parameter payload
        assert trace.ledger.worker_server_scalars == 80 + 1 + 10
        assert trace.ledger.parallel_rounds == 3 + 1 + (1 + 3) + 1 + 1 + 1

    def test_faster_than_uniform_on_heterogeneous_preset(self):
        p = preset(seed=1)
        _, f_star = exact_minimum(p)
        f0 = prob.full_loss(p, np.zeros(11))
        thr = f_star + 1e-3 * (f0 - f_star)

        def arrival(trace, T):
            for r in trace.rows:
                if r.train_loss <= thr:
                    return (r.epoch - 1) + r.step / T
            return math.inf

        uni = optim.run_svrg(
            p, optim.OptimizerConfig(eta=0.02, epochs=4, inner_iters=100, seed=3)
        )
        asd = optim.run_asd_svrg(
            p,
            optim.OptimizerConfig(eta=0.09, epochs=4, inner_iters=100, seed=3,
                                  distribution_mode="adaptive"),
        )
        assert arrival(asd, 100) < arrival(uni, 100)

    @pytest.mark.parametrize("policy", ["fixed", "lemma1", "full"])
    def test_estimation_policies_run(self, policy):
        p = prob.generate_heterogeneous(prob.LINEAR, 4, 80, 4, 2.0, seed=3)
        cfg = optim.OptimizerConfig(
            eta=0.01, epochs=1, inner_iters=5, seed=0, distribution_mode="adaptive",
            estimation=smp.EstimationConfig(subsample_policy=policy),
        )
        trace = optim.run_asd_svrg(p, cfg)
        assert len(trace.rows) == 5


class TestRunSgd:
    def test_zero_step_is_constant(self):
        p = preset()
        cfg = optim.OptimizerConfig(eta=0.0, epochs=2, inner_iters=5, seed=0)
        trace = optim.run_sgd(p, cfg, x0=np.ones(p.param_dim))
        assert len({r.train_loss for r in trace.rows}) == 1

    def test_single_sample_descends_monotonically(self):
        shard = prob.Shard(0, [[1.0]], [2.0])
        p = prob.ShardedProblem([shard], prob.LINEAR)
        info = prob.lipschitz_info(p)
        cfg = optim.OptimizerConfig(eta=0.9 / info.per_sample[0], epochs=1, inner_iters=30, seed=0)
        trace = optim.run_sgd(p, cfg)
        losses = [r.train_loss for r in trace.rows]
        assert all(b <= a for a, b in zip(losses, losses[1:]))

    def test_l2_changes_update_but_not_loss_metric(self):
        p = preset()
        cfg0 = optim.OptimizerConfig(eta=1e-3, epochs=1, inner_iters=10, seed=5, l2_for_sgd=0.0)
        cfg1 = optim.OptimizerConfig(eta=1e-3, epochs=1, inner_iters=10, seed=5, l2_for_sgd=0.5)
        t0 = optim.run_sgd(p, cfg0, x0=np.ones(p.param_dim))
        t1 = optim.run_sgd(p, cfg1, x0=np.ones(p.param_dim))
        assert not np.array_equal(t0.final_x, t1.final_x)

    def test_worse_than_adaptive_at_matched_budget(self):
        p = preset(seed=1)
        _, f_star = exact_minimum(p)
        sgd = optim.run_sgd(
            p, optim.OptimizerConfig(eta=0.025, epochs=4, inner_iters=100, seed=2, l2_for_sgd=0.02)
        )
        asd = optim.run_asd_svrg(
            p,
            optim.OptimizerConfig(eta=0.09, epochs=4, inner_iters=100, seed=2,
                                  distribution_mode="adaptive"),
        )
        assert sgd.rows[-1].train_loss > asd.rows[-1].train_loss

    def test_ledger_schedule(self):
        p = prob.generate_heterogeneous(prob.LINEAR, 8, 100, 9, 1.5, seed=0)
        cfg = optim.OptimizerConfig(eta=1e-4, epochs=2, inner_iters=3, seed=0)
        trace = optim.run_sgd(p, cfg)
        assert trace.ledger.server_worker_scalars == 6 * 10
        assert trace.ledger.worker_server_scalars == 6 * 10
        assert trace.ledger.parallel_rounds == 12


class TestReproducibility:
    @pytest.mark.parametrize("runner,mode", [
        (optim.run_svrg, "uniform"),
        (optim.run_asd_svrg, "adaptive"),
        (optim.run_sgd, "uniform"),
    ])
    def test_bitwise_identical_traces(self, runner, mode):
        p = prob.generate_heterogeneous(prob.LINEAR, 4, 80, 4, 2.0, seed=3)
        cfg = optim.OptimizerConfig(eta=0.01, epochs=2, inner_iters=6, seed=(7, 3),
                                    distribution_mode=mode)
        a = runner(p, cfg)
        b = runner(p, cfg)
        assert len(a.rows) == len(b.rows)
        for ra, rb in zip(a.rows, b.rows):
            # fieldwise equality with NaN == NaN (regression test accuracy is NaN)
            np.testing.assert_array_equal(
                np.array(list(vars(ra).values()), dtype=float),
                np.array(list(vars(rb).values()), dtype=float),
            )
        np.testing.assert_array_equal(a.final_x, b.final_x)
        assert a.ledger.snapshot() == b.ledger.snapshot()

    def test_trace_csv_contract(self, tmp_path):
        p = prob.generate_heterogeneous(prob.LINEAR, 4, 80, 4, 2.0, seed=3)
        cfg = optim.OptimizerConfig(eta=0.01, epochs=2, inner_iters=3, seed=1)
        trace = optim.run_svrg(p, cfg)
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "k,t,train_loss,test_loss,test_acc,ww_scalars,ws_scalars,sw_scalars,rounds"
        assert len(lines) == 1 + 6
        counters = [tuple(int(v) for v in ln.split(",")[5:]) for ln in lines[1:]]
        assert counters == sorted(counters)  # ledger snapshots never decrease


def reference_weights(p, x, anchor, est, seed, k, t):
    """Per-worker estimates, one worker at a time, each on a stream built
    directly from SeedSequence(seed + (channel, k, t, m))."""
    out = []
    for m in range(p.m_workers):
        size = p.shard(m).size
        if est.subsample_policy == "full":
            out.append(np.linalg.norm(prob.shard_gradient(p, m, x) - prob.shard_gradient(p, m, anchor)))
            continue
        if est.subsample_policy == "lemma1":
            range_norm, mean_norm = smp.lemma_bounds(p, m, x, anchor)
            if mean_norm == 0.0:
                out.append(0.0)
                continue
            n = min(size, smp.subsample_size(est, p.param_dim, range_norm, mean_norm))
        else:
            n = est.size_for_shard(size)
        key = seed + (optim._CH_WEIGHTS, k, t, m)
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(key)))
        out.append(smp.estimate_shard_weight(p, m, x, anchor, n, rng))
    return np.array(out)


class TestEstimateWeights:
    SEED = (2**40 + 3, 2**64 + 5)  # big-int cell seed: several words per entry

    def problem(self, task):
        # shard sizes 40, 40, 47 (a remainder shard); worker 1 has an all-zero
        # first feature, so moving only that coordinate leaves it at weight 0;
        # features centred away from 0 keep lemma1's sizes below the shard sizes
        rng = np.random.default_rng(12)
        shards = []
        for m, n in enumerate([40, 40, 47]):
            X = 2.0 + 0.2 * 1.5**m * rng.normal(size=(n, 3))
            if m == 1:
                X[:, 0] = 0.0
            y = rng.normal(size=n) if task == prob.LINEAR else (rng.random(n) < 0.5).astype(float)
            shards.append(prob.Shard(m, X, y))
        return prob.ShardedProblem(shards, task)

    @pytest.mark.parametrize("task", prob.TASKS)
    @pytest.mark.parametrize("policy", ["fixed", "lemma1", "full"])
    def test_batched_matches_per_shard(self, task, policy):
        p = self.problem(task)
        rng = np.random.default_rng(4)
        anchor = rng.normal(size=p.param_dim)
        first_only = anchor + 0.7 * np.eye(p.param_dim)[0]
        est = smp.EstimationConfig(tau=0.5, subsample_policy=policy, fixed_n=20)
        for x in (first_only, rng.normal(size=p.param_dim)):
            for k, t in ((1, 1), (3, 17)):
                got = optim._estimate_weights(p, x, anchor, est, self.SEED, k, t)
                ref = reference_weights(p, x, anchor, est, self.SEED, k, t)
                np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0.0)
        assert got[1] > 0.0
        assert optim._estimate_weights(p, first_only, anchor, est, self.SEED, 2, 5)[1] == 0.0

    def test_bad_sizes_rejected(self):
        p = self.problem(prob.LINEAR)
        x = np.ones(p.param_dim)
        rngs = [np.random.default_rng(m) for m in range(3)]
        for sizes in ([1, 1], [1, -1, 1], [1, 41, 1]):
            with pytest.raises(ValueError):
                smp.estimate_weights(p, x, np.zeros(p.param_dim), sizes, rngs)


class TestStreams:
    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.lists(st.integers(0, 2**96), min_size=1, max_size=3),
        tags=st.lists(st.integers(0, 2**40), max_size=4),
    )
    def test_stream_matches_seed_sequence_of_key(self, seed, tags):
        key = tuple(seed) + tuple(tags)
        ref = np.random.Generator(np.random.PCG64(np.random.SeedSequence(key)))
        assert optim._stream(tuple(seed), *tags).bit_generator.state == ref.bit_generator.state


class TestConfigValidation:
    def test_bad_values(self):
        for kwargs in [
            dict(eta=-1.0, epochs=1, inner_iters=1),
            dict(eta=0.1, epochs=0, inner_iters=1),
            dict(eta=0.1, epochs=1, inner_iters=0),
            dict(eta=0.1, epochs=1, inner_iters=1, group_size=0),
            dict(eta=0.1, epochs=1, inner_iters=1, distribution_mode="magic"),
            dict(eta=0.1, epochs=1, inner_iters=1, anchor_rule="first"),
            dict(eta=0.1, epochs=1, inner_iters=1, eval_every=0),
            dict(eta=0.1, epochs=1, inner_iters=1, l2_for_sgd=-0.1),
            dict(eta=0.1, epochs=1, inner_iters=1, seed=-4),
        ]:
            with pytest.raises(ValueError):
                optim.OptimizerConfig(**kwargs)


class TestTheoreticalRate:
    def test_adaptive_main_value(self):
        params = optim.RateParams(lam=1.0, l_bar=1.0, eta=0.05, T=100, R=4, tau=0.1)
        rho = optim.theoretical_rate("asd_main", params)
        denom = 1.0 - 0.05 * (1.0 + 0.625)
        expected = 1.0 / (1.0 * 100 * 0.05 * denom) + 0.05 * 0.625 / denom
        assert rho == pytest.approx(expected, rel=1e-12)
        assert rho == pytest.approx(0.2517, abs=1e-3)

    def test_lemma_variant_large_group_limit(self):
        params = optim.RateParams(lam=1.0, l_bar=2.0, eta=0.05, T=50, R=10**6)
        rho = optim.theoretical_rate("asd_lemma4", params)
        limit = 1.0 / (1.0 * 0.05 * 50 * (1.0 - 0.05 * 2.0))
        assert rho == pytest.approx(limit, rel=1e-4)

    def test_importance_beats_uniform_under_spread(self):
        params = optim.RateParams(lam=1.0, l_bar=1.0, eta=0.01, T=100, l_max=10.0)
        uni = optim.theoretical_rate("svrg_uniform", params)
        imp = optim.theoretical_rate("svrg_importance", params)
        assert imp < uni

    def test_variants_nest(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            lam = rng.uniform(0.1, 5.0)
            l_bar = rng.uniform(0.5, 10.0)
            T = int(rng.integers(10, 200))
            R = int(rng.integers(1, 16))
            tau = rng.uniform(0.0, 1.0 / 3.0)
            eta = rng.uniform(0.05, 0.95) / ((1.0 + 8.0 / R) * l_bar)
            params = optim.RateParams(lam=lam, l_bar=l_bar, eta=eta, T=T, R=R, tau=tau)
            r2 = optim.theoretical_rate("asd_lemma4", params)
            rm = optim.theoretical_rate("asd_main", params)
            r8 = optim.theoretical_rate("asd_appendix", params)
            assert r2 <= rm <= r8

    def test_undefined_denominators(self):
        params = optim.RateParams(lam=1.0, l_bar=1.0, eta=1.0, T=10, R=1, tau=0.1, l_max=1.0)
        for kind in optim.RATE_KINDS:
            with pytest.raises(optim.RateUndefined):
                optim.theoretical_rate(kind, params)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            optim.RateParams(lam=0.0, l_bar=1.0, eta=0.1, T=10)
        with pytest.raises(ValueError):
            optim.theoretical_rate("svrg_uniform", optim.RateParams(lam=1.0, l_bar=1.0, eta=0.01, T=10))
        with pytest.raises(ValueError):
            optim.theoretical_rate("asd_main", optim.RateParams(lam=1.0, l_bar=1.0, eta=0.01, T=10))
        with pytest.raises(ValueError):
            optim.theoretical_rate("nonsense", optim.RateParams(lam=1.0, l_bar=1.0, eta=0.01, T=10))
