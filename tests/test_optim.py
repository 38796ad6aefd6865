"""Optimizer loops: unbiasedness, convergence behaviour, ledger schedules, rates."""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hetsvrg import comm, harness, optim
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


def shard_gradients(problem, x):
    return [prob.shard_gradient(problem, m, x) for m in range(problem.m_workers)]


def step_deltas(trace, prologue):
    """Per-step ledger increments (ww, ws, sw, rounds) of a one-epoch trace
    with a row per step; ``prologue`` is the ledger after the epoch prologue."""
    snaps = [prologue] + [(r.worker_worker, r.worker_server, r.server_worker, r.rounds) for r in trace.rows]
    return [tuple(b - a for a, b in zip(s0, s1)) for s0, s1 in zip(snaps, snaps[1:])]


class TestVrDirection:
    def test_at_anchor_returns_anchor_gradient(self):
        p = preset()
        anchor = np.ones(p.param_dim)
        g = prob.full_gradient(p, anchor)
        probs = np.full(p.m_workers, 0.125)
        v = optim._direction(p, anchor, shard_gradients(p, anchor), g, [(3, 1)], probs, 1)
        np.testing.assert_array_equal(v, g)

    def test_single_worker_recovers_full_gradient(self):
        p = prob.generate_heterogeneous(prob.LINEAR, 1, 30, 3, 1.0, seed=0)
        rng = np.random.default_rng(1)
        x, anchor = rng.normal(size=(2, p.param_dim))
        v = optim._direction(p, x, shard_gradients(p, anchor), prob.full_gradient(p, anchor), [(0, 1)], [1.0], 1)
        np.testing.assert_allclose(v, prob.full_gradient(p, x), rtol=1e-12, atol=1e-12)

    def test_unbiased_under_any_distribution(self):
        p = prob.generate_heterogeneous(prob.LINEAR, 5, 100, 4, 2.0, seed=2)
        rng = np.random.default_rng(3)
        for _ in range(50):
            x, anchor = rng.normal(size=(2, p.param_dim))
            weights = rng.uniform(0.1, 2.0, size=5)
            probs = weights / weights.sum()
            anchor_grads, g_anchor = shard_gradients(p, anchor), prob.full_gradient(p, anchor)
            mean = sum(
                probs[m] * optim._direction(p, x, anchor_grads, g_anchor, [(m, 1)], probs, 1)
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
            anchor_grads, g_anchor = shard_gradients(p, anchor), prob.full_gradient(p, anchor)
            mean = sum(
                probs[m] * optim._direction(p, x, anchor_grads, g_anchor, [(m, 1)], probs, 1)
                for m in range(5)
            )
            np.testing.assert_allclose(mean, prob.full_gradient(p, x), rtol=1e-10, atol=1e-10)

    def test_group_is_mean_of_single_draws(self):
        # R draws with multiplicities average the single-draw directions
        p = prob.generate_heterogeneous(prob.LINEAR, 5, 100, 4, 2.0, seed=2)
        rng = np.random.default_rng(9)
        x, anchor = rng.normal(size=(2, p.param_dim))
        probs = rng.uniform(0.1, 2.0, size=5)
        probs /= probs.sum()
        args = (p, x, shard_gradients(p, anchor), prob.full_gradient(p, anchor))
        single = [optim._direction(*args, [(m, 1)], probs, 1) for m in range(5)]
        group = optim._direction(*args, [(0, 2), (3, 1)], probs, 3)
        np.testing.assert_allclose(group, (2 * single[0] + single[3]) / 3, rtol=1e-12, atol=1e-12)


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

    def test_ledger_schedule_group_steps(self):
        # R = 2: parameters out to, and payloads back from, each distinct
        # sampled worker (10 scalars each way), in 2 rounds
        p = prob.generate_heterogeneous(prob.LINEAR, 8, 100, 9, 1.5, seed=0)
        cfg = optim.OptimizerConfig(eta=1e-4, epochs=1, inner_iters=20, group_size=2, seed=0)
        deltas = step_deltas(optim.run_svrg(p, cfg), prologue=(0, 80, 160, 3))
        distinct = [sw // 10 for _, _, sw, _ in deltas]
        assert set(distinct) <= {1, 2} and max(distinct) == 2
        assert deltas == [(0, 10 * d, 10 * d, 2) for d in distinct]

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

    def test_ledger_schedule_group_steps(self):
        # R = 2 over 8 workers: 4 leader-bound sends of 2 scalars and 3 merge
        # sends of R + 1 in 1 + log2(4) rounds; d distinct sampled workers get
        # the normaliser (1 scalar each) and send 10-scalar payloads back
        p = prob.generate_heterogeneous(prob.LINEAR, 8, 100, 9, 1.5, seed=0)
        cfg = optim.OptimizerConfig(eta=1e-4, epochs=1, inner_iters=20, group_size=2, seed=0,
                                    distribution_mode="adaptive")
        deltas = step_deltas(optim.run_asd_svrg(p, cfg), prologue=(0, 80, 160, 3))
        distinct = [sw - 80 for _, _, sw, _ in deltas]
        assert set(distinct) <= {1, 2} and max(distinct) == 2
        assert deltas == [(4 * 2 + 3 * 3, 2 + 10 * d, 80 + d, 1 + (1 + 2) + 1 + 1 + 1) for d in distinct]

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

    @settings(max_examples=30, deadline=None)
    @given(
        task=st.sampled_from(prob.TASKS),
        m=st.integers(1, 5),
        r_share=st.floats(0.0, 1.0),
        policy=st.sampled_from(smp.SUBSAMPLE_POLICIES),
        mode=st.sampled_from(["sgd", "uniform", "lipschitz_importance", "adaptive"]),
        log_eta=st.floats(-3.0, 1.5),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(task=prob.LINEAR, m=4, r_share=0.5, policy="fixed", mode="adaptive", log_eta=1.5, seed=0)
    def test_trace_csv_identical_across_problem_instances(self, task, m, r_share, policy, mode, log_eta, seed):
        """Byte-identical trace CSVs for two runs on one problem, a run on a
        fresh copy of it, and a run on a copy whose cached quadratic forms were
        built before the run; diverging etas write their partial trace."""
        cfg = optim.OptimizerConfig(
            eta=10.0**log_eta, epochs=2, inner_iters=4, group_size=1 + int(r_share * (m - 1)),
            estimation=smp.EstimationConfig(subsample_policy=policy), seed=(seed, 1),
            distribution_mode="uniform" if mode == "sgd" else mode,
        )
        runner = {"sgd": optim.run_sgd, "adaptive": optim.run_asd_svrg}.get(mode, optim.run_svrg)

        def fresh():
            return prob.generate_heterogeneous(task, m, 25 * m, 3, 2.0, seed)

        prebuilt = fresh()
        prob.full_loss(prebuilt, np.ones(prebuilt.param_dim))
        prob.test_metrics(prebuilt, np.ones(prebuilt.param_dim))
        shared = fresh()
        with tempfile.TemporaryDirectory() as out:
            files = []
            for i, p in enumerate([shared, shared, fresh(), prebuilt]):
                try:
                    trace = runner(p, cfg)
                except optim.Diverged as exc:
                    trace = exc.trace
                trace.to_csv(Path(out) / f"{i}.csv")
                files.append((Path(out) / f"{i}.csv").read_bytes())
        assert files[1:] == files[:1] * 3


def reference_weights(p, x, anchor, est, seed, k, t):
    """Per-worker estimates, one worker at a time: worker m's subsample is
    drawn with every other worker's size set to 0, and estimated alone."""
    out = []
    for m in range(p.m_workers):
        size = p.shard(m).size
        if est.subsample_policy == "full":
            out.append(np.linalg.norm(prob.shard_gradient(p, m, x) - prob.shard_gradient(p, m, anchor)))
            continue
        alone = np.zeros(p.m_workers, dtype=int)
        if est.subsample_policy == "lemma1":
            alone[m] = smp.subsample_sizes(p, x, anchor, est)[m]
        else:
            alone[m] = est.size_for_shard(size)
        local = smp._draw_subsamples(seed + (optim._CH_WEIGHTS, k, t), p.sizes, alone)
        out.append(smp.estimate_weights(p, x, anchor, alone, local)[m])
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
        # each local holds in-range indices, as many as the positive sizes ask for
        for sizes, local in (([1, 1], [0, 0]), ([1, -1, 1], [0, 0]), ([1, 41, 1], [0] * 43)):
            with pytest.raises(ValueError, match="sizes must give"):
                smp.estimate_weights(p, x, np.zeros(p.param_dim), sizes, local)

    def test_bad_local_rejected(self):
        p = self.problem(prob.LINEAR)
        x = np.ones(p.param_dim)
        sizes = [2, 0, 1]
        for local in ([0, 1], [0, 1, 2, 3], [0, 40, 1], [0, -1, 1]):
            with pytest.raises(ValueError):
                smp.estimate_weights(p, x, np.zeros(p.param_dim), sizes, local)
        smp.estimate_weights(p, x, np.zeros(p.param_dim), sizes, [0, 39, 46])


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


class TestStreamPins:
    """The exact integers every random channel gives for one fixed cell key.

    A change to any channel's stream fails here, so it has to be made on
    purpose and stated.  The anchor, SGD, fixed-draw and tree-protocol
    channels read ``SeedSequence`` generators; the weights channel is the
    counter-hash drawer.
    """

    SEED = harness._cell_seed(7, "asd_svrg", 0.125)

    def test_anchor_sgd_and_fixed_draw_channels(self):
        assert int(optim._stream(self.SEED, optim._CH_ANCHOR, 2).integers(100)) == 62
        rng = optim._stream(self.SEED, optim._CH_SGD, 2)
        assert [int(rng.integers(8)) for _ in range(6)] == [5, 3, 6, 0, 5, 1]
        rng = optim._stream(self.SEED, optim._CH_FIXED_DRAW, 2)
        dist = smp.Categorical.from_weights([1.0, 2.0, 3.0, 4.0])
        assert [smp.sample_categorical(dist, rng) for _ in range(6)] == [3, 3, 0, 1, 2, 2]

    def test_tree_protocol_channel(self):
        weights = [1.0, 0.0, 2.0, 3.0, 0.5, 4.0, 1.0, 1.0]
        rng = optim._stream(self.SEED, optim._CH_PC, 2, 3)
        hist = comm.pc_sample(weights, 4, comm.CommLedger(), rng)
        assert hist.items() == [(2, 1), (3, 1), (5, 1), (7, 1)]

    def test_weights_channel(self):
        # a direct draw (16 of 50), a complement draw (16 of 30), a whole
        # shard and an idle worker
        key = self.SEED + (optim._CH_WEIGHTS, 2, 3)
        got = smp._draw_subsamples(key, np.array([50, 30, 7, 9]), np.array([16, 16, 7, 0]))
        assert got.tolist() == [
            6, 7, 9, 10, 12, 13, 15, 19, 25, 27, 30, 35, 39, 41, 45, 48,
            0, 1, 2, 5, 8, 9, 12, 14, 16, 17, 19, 20, 21, 23, 25, 26,
            0, 1, 2, 3, 4, 5, 6,
        ]


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
