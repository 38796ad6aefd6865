"""Optimizer loops: unbiasedness, convergence behaviour, ledger schedules, rates."""

import csv
import math
import re
import tempfile
import tracemalloc
import warnings
from dataclasses import replace
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


def direction(problem, x, anchor_grads, g_anchor, picks, probs, R):
    """The loop's batched ``_direction`` for the one cell at ``x`` whose R
    draws are the (worker, multiplicity) ``picks``."""
    draws = [m for m, mult in picks for _ in range(mult)]
    assert len(draws) == R
    return optim._direction(problem, np.array([x]), np.array([draws]), np.array([probs], dtype=float), np.array([0]),
                            np.array([anchor_grads]), np.array([g_anchor]))[0]


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
        v = direction(p, anchor, shard_gradients(p, anchor), g, [(3, 1)], probs, 1)
        np.testing.assert_array_equal(v, g)

    def test_single_worker_recovers_full_gradient(self):
        p = prob.generate_heterogeneous(prob.LINEAR, 1, 30, 3, 1.0, seed=0)
        rng = np.random.default_rng(1)
        x, anchor = rng.normal(size=(2, p.param_dim))
        v = direction(p, x, shard_gradients(p, anchor), prob.full_gradient(p, anchor), [(0, 1)], [1.0], 1)
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
                probs[m] * direction(p, x, anchor_grads, g_anchor, [(m, 1)], probs, 1)
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
                probs[m] * direction(p, x, anchor_grads, g_anchor, [(m, 1)], probs, 1)
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
        single = [direction(*args, [(m, 1)], probs, 1) for m in range(5)]
        group = direction(*args, [(0, 2), (3, 1)], probs, 3)
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

    def test_eval_every_thins_rows(self):
        p = preset()
        cfg = optim.OptimizerConfig(eta=1e-3, epochs=2, inner_iters=10, seed=0, eval_every=5)
        trace = optim.run_svrg(p, cfg)
        assert [(r.epoch, r.step) for r in trace.rows] == [(1, 5), (1, 10), (2, 5), (2, 10)]

    @pytest.mark.parametrize("mode", ["sgd", "adaptive"])
    def test_rejects_the_modes_it_does_not_run(self, mode):
        cfg = optim.OptimizerConfig(eta=0.01, epochs=1, inner_iters=1, distribution_mode=mode)
        with pytest.raises(ValueError, match=f"got '{mode}'"):
            optim.run_svrg(preset(), cfg)


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

    @pytest.mark.parametrize("policy", smp.SUBSAMPLE_POLICIES)
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

    @pytest.mark.parametrize("task", prob.TASKS)
    def test_matches_a_plain_sgd_loop(self, task):
        """``run_sgd``, a solo run of the shared loop, takes the steps of a
        plain SGD loop: each epoch's workers from the SGD channel, x minus
        eta times (the drawn shard's gradient plus L2 times x), no anchor."""
        p = prob.generate_heterogeneous(task, 5, 100, 4, 2.0, seed=2)
        cfg = optim.OptimizerConfig(eta=0.05, epochs=3, inner_iters=7, group_size=3, seed=(4, 1), l2_for_sgd=0.3)
        x, losses = np.linspace(-1.0, 1.0, p.param_dim), []
        trace = optim.run_sgd(p, cfg, x0=x)
        for k in range(1, cfg.epochs + 1):
            for m in np.random.default_rng((4, 1, optim._CH_SGD, k)).integers(p.m_workers, size=cfg.inner_iters):
                x = x - cfg.eta * (prob.shard_gradient(p, int(m), x) + cfg.l2_for_sgd * x)
                losses.append(prob.full_loss(p, x))
        assert trace.final_x.tobytes() == x.tobytes()
        assert [r.train_loss for r in trace.rows] == losses

    def test_every_input_mode_gives_the_same_run(self, tmp_path):
        """``run_sgd`` runs mode ``sgd`` whatever mode its config names, so
        every mode writes the same trace bytes, final iterate and ledger."""
        p = prob.generate_heterogeneous(prob.LINEAR, 4, 80, 4, 2.0, seed=3)
        base = optim.OptimizerConfig(eta=0.02, epochs=2, inner_iters=5, group_size=2, seed=(6, 2), l2_for_sgd=0.1)
        outputs = set()
        for mode in optim.DISTRIBUTION_MODES:
            trace = optim.run_sgd(p, replace(base, distribution_mode=mode))
            outputs.add((trace_bytes(trace, tmp_path, f"{mode}.csv"), trace.final_x.tobytes(), trace.ledger.snapshot()))
        assert len(outputs) == 1

    def test_ledger_schedule(self):
        p = prob.generate_heterogeneous(prob.LINEAR, 8, 100, 9, 1.5, seed=0)
        cfg = optim.OptimizerConfig(eta=1e-4, epochs=2, inner_iters=3, seed=0)
        trace = optim.run_sgd(p, cfg)
        assert trace.ledger.server_worker_scalars == 6 * 10
        assert trace.ledger.worker_server_scalars == 6 * 10
        assert trace.ledger.parallel_rounds == 12


def solo_outcome(problem, config):
    """(trace, diverged) of one config run alone, as a sweep records it,
    through the runner of its distribution mode."""
    runner = {"sgd": optim.run_sgd, "adaptive": optim.run_asd_svrg}.get(config.distribution_mode, optim.run_svrg)
    try:
        return runner(problem, config), False
    except optim.Diverged as exc:
        return exc.trace, True


def trace_bytes(trace, directory, name):
    path = Path(directory) / name
    trace.to_csv(path)
    return path.read_bytes()


class TestRunGrid:
    @settings(max_examples=100, deadline=None)
    @given(
        task=st.sampled_from(prob.TASKS),
        m=st.integers(1, 5),
        r_share=st.floats(0.0, 1.0),
        policy=st.sampled_from(smp.SUBSAMPLE_POLICIES),
        mode=st.sampled_from(optim.DISTRIBUTION_MODES),
        eval_every=st.integers(1, 3),
        log_etas=st.lists(st.floats(-3.0, 1.0), min_size=1, max_size=4),
        explode_at=st.none() | st.integers(0, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(task=prob.LINEAR, m=4, r_share=0.5, policy="fixed", mode="adaptive", eval_every=2,
             log_etas=[-2.0, -1.0], explode_at=1, seed=0)
    @example(task=prob.LINEAR, m=3, r_share=0.0, policy="full", mode="lipschitz_importance", eval_every=1,
             log_etas=[-2.5, 0.0, 0.5], explode_at=0, seed=4)
    def test_every_cell_equals_its_solo_run(self, task, m, r_share, policy, mode, eval_every, log_etas,
                                            explode_at, seed):
        """Each cell of a grid call (seeds differing per cell; etas up to 10,
        which diverge mid-run on linear problems, and maybe one exploding eta)
        writes the trace CSV, final iterate, diverged flag, ledger and last
        (k, t) of its solo run, byte for byte."""
        etas = [10.0**e for e in log_etas]
        if explode_at is not None:
            etas.insert(min(explode_at, len(etas)), 10.0**12)  # diverges at its first step
        configs = [
            optim.OptimizerConfig(
                eta=eta, epochs=2, inner_iters=4, group_size=1 + int(r_share * (m - 1)),
                estimation=smp.EstimationConfig(subsample_policy=policy), distribution_mode=mode,
                seed=(seed, i), eval_every=eval_every,
            )
            for i, eta in enumerate(etas)
        ]
        p = prob.generate_heterogeneous(task, m, 25 * m, 3, 2.0, seed)
        grid = optim.run_grid(p, configs)
        assert len(grid) == len(configs)
        with tempfile.TemporaryDirectory() as out:
            for i, (config, (trace, diverged)) in enumerate(zip(configs, grid)):
                solo, solo_diverged = solo_outcome(p, config)
                assert diverged == solo_diverged
                assert trace_bytes(trace, out, f"grid{i}.csv") == trace_bytes(solo, out, f"solo{i}.csv")
                assert trace.final_x.tobytes() == solo.final_x.tobytes()
                assert trace.ledger.snapshot() == solo.ledger.snapshot()
                last = [(r.epoch, r.step) for r in trace.rows[-1:]]
                assert last == [(r.epoch, r.step) for r in solo.rows[-1:]]

    def test_rejects_configs_that_differ_beyond_eta_and_seed(self):
        p = prob.generate_heterogeneous(prob.LINEAR, 3, 60, 3, 2.0, seed=1)
        base = optim.OptimizerConfig(eta=0.01, epochs=1, inner_iters=2, seed=1)
        assert len(optim.run_grid(p, [base, replace(base, eta=0.02, seed=(2, 3))])) == 2
        for change in (
            dict(epochs=2), dict(inner_iters=3), dict(group_size=2),
            dict(estimation=smp.EstimationConfig(subsample_policy="full")),
            dict(l2_for_sgd=0.1),
            dict(eval_every=2),
        ):
            with pytest.raises(ValueError, match="differ only in eta and seed"):
                optim.run_grid(p, [base, replace(base, eta=0.02, **change)])
        with pytest.raises(ValueError, match="differ only in eta and seed"):
            optim.run_grid(p, [])

    @settings(max_examples=60, deadline=None)
    @given(
        task=st.sampled_from(prob.TASKS),
        m=st.integers(1, 5),
        r_share=st.floats(0.0, 1.0),
        policy=st.sampled_from(smp.SUBSAMPLE_POLICIES),
        cells=st.lists(st.tuples(st.sampled_from(optim.DISTRIBUTION_MODES), st.floats(-3.0, 1.0)),
                       min_size=1, max_size=7),
        eval_every=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(task=prob.LINEAR, m=4, r_share=1.0, policy="fixed", eval_every=2, seed=3,
             cells=[("adaptive", 1.0), ("uniform", -0.5), ("lipschitz_importance", 0.5), ("uniform", 1.0),
                    ("adaptive", -1.0), ("lipschitz_importance", -2.0)])
    def test_mixed_modes_equal_their_solo_runs(self, task, m, r_share, policy, cells, eval_every, seed):
        """Cells of all three distribution modes, interleaved in one grid
        call, each write the trace CSV, final iterate, diverged flag and
        ledger of their solo runs, byte for byte."""
        configs = [
            optim.OptimizerConfig(
                eta=10.0**log_eta, epochs=2, inner_iters=4, group_size=1 + int(r_share * (m - 1)),
                estimation=smp.EstimationConfig(subsample_policy=policy), distribution_mode=mode,
                seed=(seed, i), eval_every=eval_every,
            )
            for i, (mode, log_eta) in enumerate(cells)
        ]
        p = prob.generate_heterogeneous(task, m, 25 * m, 3, 2.0, seed)
        grid = optim.run_grid(p, configs)
        assert len(grid) == len(configs)
        with tempfile.TemporaryDirectory() as out:
            for i, (config, (trace, diverged)) in enumerate(zip(configs, grid)):
                solo, solo_diverged = solo_outcome(p, config)
                assert diverged == solo_diverged
                assert trace_bytes(trace, out, f"grid{i}.csv") == trace_bytes(solo, out, f"solo{i}.csv")
                assert trace.final_x.tobytes() == solo.final_x.tobytes()
                assert trace.ledger.snapshot() == solo.ledger.snapshot()

    @settings(max_examples=60, deadline=None)
    @given(
        task=st.sampled_from(prob.TASKS),
        m=st.integers(1, 5),
        r_share=st.floats(0.0, 1.0),
        policy=st.sampled_from(smp.SUBSAMPLE_POLICIES),
        cells=st.lists(st.tuples(st.sampled_from(optim.DISTRIBUTION_MODES), st.floats(-3.0, 1.0)),
                       min_size=1, max_size=7),
        l2=st.floats(0.01, 2.0),
        explode_at=st.none() | st.integers(0, 7),
        eval_every=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(task=prob.LINEAR, m=4, r_share=1.0, policy="fixed", l2=0.5, explode_at=2, eval_every=2, seed=3,
             cells=[("sgd", 1.0), ("adaptive", 0.5), ("uniform", -0.5), ("sgd", -2.0),
                    ("lipschitz_importance", 0.5), ("sgd", 0.3)])
    @example(task=prob.LOGISTIC, m=3, r_share=0.5, policy="full", l2=0.02, explode_at=0, eval_every=1, seed=8,
             cells=[("uniform", -1.0), ("sgd", -1.0), ("adaptive", -1.0)])
    def test_sgd_cells_in_a_mixed_grid_equal_their_solo_runs(self, task, m, r_share, policy, cells, l2,
                                                             explode_at, eval_every, seed):
        """SGD cells with L2, interleaved in one loop with cells of all three
        distribution modes (etas up to 10, and maybe one SGD cell at an
        exploding eta, which diverges at its first step), each write the
        trace CSV, final iterate, diverged flag and ledger of their solo
        ``run_sgd`` / ``run_svrg`` / ``run_asd_svrg`` runs, byte for byte.
        The cells' L2 differs, which ``run_grid`` rejects, so they step in
        one ``_vr_loop`` call."""
        cells = [(kind, 10.0**log_eta) for kind, log_eta in cells]
        if explode_at is not None:
            cells.insert(min(explode_at, len(cells)), ("sgd", 10.0**12))
        base = optim.OptimizerConfig(eta=0.0, epochs=2, inner_iters=4, group_size=1 + int(r_share * (m - 1)),
                                     estimation=smp.EstimationConfig(subsample_policy=policy), eval_every=eval_every)
        configs = [replace(base, eta=eta, seed=(seed, i), distribution_mode=kind,
                           l2_for_sgd=l2 if kind == "sgd" else 0.0)
                   for i, (kind, eta) in enumerate(cells)]
        p = prob.generate_heterogeneous(task, m, 25 * m, 3, 2.0, seed)
        grid = [(o.trace, True) if isinstance(o, optim.Diverged) else (o, False)
                for o in optim._vr_loop(p, configs, None)]
        assert len(grid) == len(configs)
        with tempfile.TemporaryDirectory() as out:
            for i, (config, (trace, diverged)) in enumerate(zip(configs, grid)):
                solo, solo_diverged = solo_outcome(p, config)
                assert diverged == solo_diverged
                assert trace_bytes(trace, out, f"grid{i}.csv") == trace_bytes(solo, out, f"solo{i}.csv")
                assert trace.final_x.tobytes() == solo.final_x.tobytes()
                assert trace.ledger.snapshot() == solo.ledger.snapshot()

    def test_sgd_cells_run_through_run_grid(self, tmp_path):
        """``run_grid`` takes SGD cells beside cells of the three variance-
        reduced modes, all with one L2; one SGD cell diverges at its first
        step and one mid-run, and every cell equals its solo run, byte for
        byte."""
        p = prob.generate_heterogeneous(prob.LINEAR, 4, 100, 3, 2.0, seed=2)
        base = optim.OptimizerConfig(eta=0.0, epochs=2, inner_iters=5, group_size=2, l2_for_sgd=0.05)
        cells = [("sgd", 0.01), ("uniform", 0.01), ("sgd", 1e12), ("adaptive", 0.05), ("lipschitz_importance", 0.02),
                 ("sgd", 3.0)]
        configs = [replace(base, eta=eta, distribution_mode=mode, seed=(5, i)) for i, (mode, eta) in enumerate(cells)]
        grid = optim.run_grid(p, configs)
        assert [diverged for _, diverged in grid] == [False, False, True, False, False, True]
        for i, (config, (trace, diverged)) in enumerate(zip(configs, grid)):
            solo, solo_diverged = solo_outcome(p, config)
            assert diverged == solo_diverged
            assert trace_bytes(trace, tmp_path, f"grid{i}.csv") == trace_bytes(solo, tmp_path, f"solo{i}.csv")
            assert trace.final_x.tobytes() == solo.final_x.tobytes()
            assert trace.ledger.snapshot() == solo.ledger.snapshot()

    def test_mode_groups_that_empty_at_different_steps_keep_every_cell_solo(self, tmp_path):
        """The linear preset under ``fixed`` with R = 3, modes interleaved:
        the cells diverge at five different steps (epoch 1, steps 5, 11, 12
        and 29, and uniform SVRG's last at epoch 2, step 4, which empties its
        mode group while the others step on), and every cell still equals
        its solo run."""
        p = preset(seed=1)
        base = optim.OptimizerConfig(eta=0.0, epochs=2, inner_iters=30, group_size=3,
                                     estimation=smp.EstimationConfig(subsample_policy="fixed"))
        cells = [("adaptive", 1.0), ("uniform", 0.3), ("lipschitz_importance", 0.6), ("uniform", 1.0),
                 ("adaptive", 0.3), ("lipschitz_importance", 0.3), ("uniform", 3.0), ("adaptive", 0.6)]
        configs = [replace(base, eta=eta, distribution_mode=mode, seed=(1, i)) for i, (mode, eta) in enumerate(cells)]
        ends = []
        for i, (config, (trace, diverged)) in enumerate(zip(configs, optim.run_grid(p, configs))):
            solo, solo_diverged = solo_outcome(p, config)
            assert diverged == solo_diverged
            assert trace_bytes(trace, tmp_path, f"grid{i}.csv") == trace_bytes(solo, tmp_path, f"solo{i}.csv")
            assert trace.final_x.tobytes() == solo.final_x.tobytes()
            assert trace.ledger.snapshot() == solo.ledger.snapshot()
            ends.append((diverged, trace.rows[-1].epoch, trace.rows[-1].step))
        assert [diverged for diverged, *_ in ends] == [True, True, True, True, False, False, True, True]
        assert len({end for end in ends if end[0]}) == 5
        last_uniform = max(end for (mode, _), end in zip(cells, ends) if mode == "uniform")
        assert last_uniform == (True, 2, 4)

    def test_importance_distribution_computed_once_per_grid(self, monkeypatch):
        p = prob.generate_heterogeneous(prob.LINEAR, 3, 60, 3, 2.0, seed=1)
        calls = []
        info = prob.lipschitz_info
        monkeypatch.setattr(prob, "lipschitz_info", lambda problem: calls.append(1) or info(problem))
        base = optim.OptimizerConfig(eta=0.01, epochs=1, inner_iters=2, distribution_mode="lipschitz_importance")
        optim.run_grid(p, [replace(base, eta=eta, seed=i) for i, eta in enumerate((0.01, 0.02, 0.04))])
        assert len(calls) == 1


    def test_first_anchor_gradients_computed_once_per_grid(self, monkeypatch):
        # every cell starts at x0, so the first prologue's shard gradients
        # serve all cells; after it, each cell's single draw is one pick of
        # the step's one stacked call
        p = prob.generate_heterogeneous(prob.LINEAR, 3, 60, 3, 2.0, seed=1)
        calls, picks = [], []
        grad, grads = prob.shard_gradient, prob._shard_gradients
        monkeypatch.setattr(prob, "shard_gradient", lambda *a, **kw: calls.append(1) or grad(*a, **kw))
        monkeypatch.setattr(prob, "_shard_gradients", lambda *a, **kw: picks.append(len(a[1])) or grads(*a, **kw))
        base = optim.OptimizerConfig(eta=0.01, epochs=1, inner_iters=1)
        optim.run_grid(p, [replace(base, eta=eta, seed=i) for i, eta in enumerate((0.01, 0.02, 0.04))])
        assert len(calls) == p.m_workers
        assert picks == [3]

    def test_direction_called_once_per_step_with_every_live_cell(self, monkeypatch):
        # the step's one direction call takes every live cell, the
        # variance-reduced ones (with their probabilities) before sgd's, and
        # a cell drops out of it after the step its guard trips at
        p = preset()
        calls = []
        direction = optim._direction

        def spy(problem, X, draws, probs, anchors, anchor_grads, g_anchor, sgd, *rest):
            calls.append([True] * len(draws) + [False] * len(sgd))
            assert len(X) == len(draws) + len(sgd) and len(draws) == len(probs) == len(anchors) == len(g_anchor)
            return direction(problem, X, draws, probs, anchors, anchor_grads, g_anchor, sgd, *rest)

        monkeypatch.setattr(optim, "_direction", spy)
        base = optim.OptimizerConfig(eta=0.01, epochs=2, inner_iters=6, group_size=2)
        cells = [("sgd", 1e12), ("uniform", 0.01), ("sgd", 0.01), ("adaptive", 3.125), ("adaptive", 0.01),
                 ("lipschitz_importance", 3.0)]
        configs = [replace(base, distribution_mode=mode, eta=eta, seed=i) for i, (mode, eta) in enumerate(cells)]
        runs = optim.run_grid(p, configs)
        steps = [len(trace.rows) + 1 if diverged else 2 * 6 for trace, diverged in runs]  # steps each cell took
        assert sum(diverged for _, diverged in runs) >= 2 and max(steps) == 2 * 6
        expected = [sorted((mode != "sgd" for (mode, _), n in zip(cells, steps) if n >= s), reverse=True)
                    for s in range(1, max(steps) + 1)]
        assert calls == expected

    def test_initial_loss_computed_once_per_grid(self, monkeypatch):
        # every cell's divergence guard scales the same loss at x0; after
        # it, each step guards and records all cells in one batched
        # evaluation, not one per cell
        p = prob.generate_heterogeneous(prob.LINEAR, 3, 60, 3, 2.0, seed=1)
        calls, batches = [], []
        loss, batch = prob.full_loss, prob._batch_full_loss
        monkeypatch.setattr(prob, "full_loss", lambda *a: calls.append(a[1]) or loss(*a))
        monkeypatch.setattr(prob, "_batch_full_loss", lambda *a: batches.append(len(a[1])) or batch(*a))
        base = optim.OptimizerConfig(eta=0.01, epochs=1, inner_iters=2)
        optim.run_grid(p, [replace(base, eta=eta, seed=i) for i, eta in enumerate((0.01, 0.02, 0.04))])
        assert len(calls) == 1
        np.testing.assert_array_equal(calls[0], np.zeros(p.param_dim))
        assert batches == [1, 3, 3]  # full_loss at x0, then one per step for the three cells

    @pytest.mark.parametrize("etas", [(0.01,), (0.002, 0.01, 0.02)])
    def test_seed_guards_every_algorithm_in_one_batch_per_step(self, etas, monkeypatch):
        # SGD's cells step in the variance-reduced cells' loop: a seed of all
        # four algorithms evaluates the loss at x0 once, then every cell of
        # a step in one batch, however many SGD cells it has
        spec = harness.ExperimentSpec(preset="linear_synthetic", algorithms=harness.ALGORITHMS, eta_grid=etas,
                                      seeds=(1,), epochs=2, inner_iters=3, samples_total=100, dim=4)
        p = harness.make_problem(spec, 1)
        batches = []
        batch = prob._batch_full_loss
        monkeypatch.setattr(prob, "_batch_full_loss", lambda *a: batches.append(len(a[1])) or batch(*a))
        runs = harness._run_seed(p, spec, 1, np.zeros(p.param_dim))
        assert not any(diverged for grid in runs for _, diverged in grid)
        assert batches == [1] + [4 * len(etas)] * (2 * 3)

    @pytest.mark.parametrize("policy", smp.SUBSAMPLE_POLICIES)
    def test_weight_draw_block_length_changes_no_output(self, policy, monkeypatch, tmp_path):
        """ASD's subsamples drawn and gathered one step at a time, a few
        steps at a time and a whole epoch at once, the draw bound and the
        gather bound varied independently, give the same trace CSVs, final
        iterates and diverged flags; three cells diverge in the first epoch
        (at steps 3, 4 and 9 of 12), while blocks are open."""
        p = prob.generate_heterogeneous(prob.LINEAR, 4, 120, 3, 2.0, 5)  # 16 of 24 rows a worker, 64 slots a cell
        base = optim.OptimizerConfig(eta=0.0, epochs=2, inner_iters=12, group_size=2, distribution_mode="adaptive",
                                     estimation=smp.EstimationConfig(subsample_policy=policy))
        configs = [replace(base, eta=eta, seed=(3, i)) for i, eta in enumerate((0.01, 0.3, 1.0, 3.0, 10.0))]
        draws, gathers = [], []  # key hashes (steps x cells) of each draw, steps of each gather
        draw, gather = smp._draw_subsamples, prob._gather_block
        monkeypatch.setattr(smp, "_draw_subsamples", lambda *a: draws.append(a[0].tolist()) or draw(*a))
        monkeypatch.setattr(prob, "_gather_block", lambda *a: gathers.append(a[4]) or gather(*a))
        bounds = (1, 1000, 10**9)  # one step, 3 to 7 steps, the whole epoch
        outputs, spans, keys = [], {}, {}  # by (draw bound, gather bound): each run's draws and gathers, its keys
        for draw_slots in bounds:
            for gather_slots in bounds:
                monkeypatch.setattr(optim, "_DRAW_SLOTS", draw_slots)
                monkeypatch.setattr(optim, "_BLOCK_SLOTS", gather_slots)
                draws.clear(), gathers.clear()
                grid = optim.run_grid(p, configs)
                outputs.append([(trace_bytes(trace, tmp_path, f"{i}.csv"), trace.final_x.tobytes(), diverged)
                                for i, (trace, diverged) in enumerate(grid)])
                spans[draw_slots, gather_slots] = ([len(d) for d in draws], list(gathers))
                keys[draw_slots, gather_slots] = [h for d in draws for h in d]
        # no (cell, step) key is drawn twice: a cell that drops out leaves the others' draws
        assert all(len(set(run)) == len(run) for run in keys.values())
        n_draws = {run: len(d) for run, (d, _) in spans.items()}
        n_gathers = {run: len(g) for run, (_, g) in spans.items()}
        assert [diverged for *_, diverged in outputs[0]] == [False, False, True, True, True]
        assert all(out == outputs[0] for out in outputs)
        steps = 2 * 11  # the first step of each epoch estimates nothing
        periods = 5  # epoch 1 from steps 2, 4, 5 and 10 (a cell fewer each), epoch 2 from step 2
        if policy == "full":  # whole shards are read in place, never drawn, to the end of the epoch
            assert set(n_draws.values()) == {0} and set(n_gathers.values()) == {periods}
        else:
            for d in bounds:  # the draws follow the draw bound alone, and no gather spans two draws
                assert len({n_draws[d, g] for g in bounds}) == 1
                assert n_gathers[d, 1] == steps and n_gathers[d, 10**9] >= n_draws[d, 1]
                assert all(n_gathers[d, g] >= n_draws[d, g] for g in bounds)
            assert n_draws[1, 1] == steps > n_draws[1000, 1] > n_draws[10**9, 1] == 2, n_draws
            assert n_gathers[10**9, 10**9] == periods  # a gather opens again where a cell drops out
            # each draw runs to the end of the epoch for the cells live at its start, and the cells that
            # drop out at steps 4, 5 and 10 leave the others' rows in it; the gathers of steps 2-4, 4-6,
            # 5-9 and 10-12 take the live cells' rows from the first
            assert spans[10**9, 1000] == ([11 * 5, 11 * 2], [3, 3, 5, 3, 7, 4])


class TestGeneratorSchedule:
    def test_generators_built_per_key_not_per_draw(self, monkeypatch):
        """The loops build one ``default_rng`` generator per stream key and
        none per step or draw: ASD one per (cell, epoch) for the protocol and
        one for the anchor, as uniform SVRG one for the fixed draws and one
        for the anchor; SGD one per epoch.  So no per-slot, per-step or
        per-call construction cost can creep back."""
        p = prob.generate_heterogeneous(prob.LINEAR, 4, 120, 3, 2.0, seed=2)
        made = {"SeedSequence": 0, "Generator": 0, "default_rng": 0}
        for name in made:
            real = getattr(np.random, name)

            def spy(*args, _real=real, _name=name, **kwargs):
                made[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(np.random, name, spy)
        epochs, inner, cells = 2, 5, 3
        base = optim.OptimizerConfig(eta=0.01, epochs=epochs, inner_iters=inner, group_size=2)
        for mode in ("adaptive", "uniform"):
            for name in made:
                made[name] = 0
            grid = optim.run_grid(p, [replace(base, eta=0.01 * (i + 1), seed=(1, i), distribution_mode=mode)
                                      for i in range(cells)])
            assert not any(diverged for _, diverged in grid)
            assert made == {"SeedSequence": 0, "Generator": 0, "default_rng": cells * 2 * epochs}
        for name in made:
            made[name] = 0
        optim.run_sgd(p, base)
        assert made == {"SeedSequence": 0, "Generator": 0, "default_rng": epochs}


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
                np.array(tuple(ra), dtype=float),
                np.array(tuple(rb), dtype=float),
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

    def test_trace_csv_bytes_match_the_csv_module(self, tmp_path):
        # the csv module's writer is the reference for every value a row can hold
        values = [float("nan"), float("inf"), float("-inf"), -0.0, 5e-324, 1e308, 0.1, 1.0]
        ledger = [0, 7, 2**63 + 11, 10**30]
        rows = [optim.TraceRow(k, t, values[i % 8], values[(i + 3) % 8], values[(i + 5) % 8], *ledger[i % 4:],
                               *ledger[:i % 4])
                for i, (k, t) in enumerate((k, t) for k in (1, 2, 10**12) for t in (1, 3, 99))]
        trace = optim.RunTrace(rows=rows, final_x=np.zeros(3), ledger=comm.CommLedger())
        trace.to_csv(tmp_path / "got.csv")
        with open(tmp_path / "want.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(optim.TRACE_CSV_HEADER)
            for r in rows:
                writer.writerow([r.epoch, r.step, *map(repr, r[2:5]), *r[5:]])
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
        optim.RunTrace(rows=[], final_x=np.zeros(3), ledger=comm.CommLedger()).to_csv(tmp_path / "empty.csv")
        assert (tmp_path / "empty.csv").read_bytes() == (tmp_path / "want.csv").read_bytes().partition(b"\n")[0] + b"\n"

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
    drawn with every other worker's size set to 0, and its weight is the
    norm of the mean of its per-sample gradient differences on those
    indices."""
    out = []
    for m, size in enumerate(smp.subsample_sizes(p.sizes, est)):
        alone = np.zeros((1, p.m_workers), dtype=int)
        alone[0, m] = size
        local = smp._draw_subsamples([smp._key_hash(seed + (optim._CH_WEIGHTS, k, t))], p.sizes, alone)
        diffs = [prob.atomic_gradient(p, m, j, x) - prob.atomic_gradient(p, m, j, anchor) for j in local]
        out.append(np.linalg.norm(np.mean(diffs, axis=0)))
    return np.array(out)


class TestEstimateWeights:
    SEED = (2**40 + 3, 2**64 + 5)  # big-int cell seed: several words per entry

    def problem(self, task):
        # shard sizes 40, 40, 47 (a remainder shard); worker 1 has an all-zero
        # first feature, so moving only that coordinate leaves it at weight 0
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
    @pytest.mark.parametrize("policy", smp.SUBSAMPLE_POLICIES)
    def test_batched_matches_per_shard(self, task, policy):
        # two cells in one call, each at its own point, anchor and seed
        p = self.problem(task)
        rng = np.random.default_rng(4)
        anchor = rng.normal(size=p.param_dim)
        first_only = anchor + 0.7 * np.eye(p.param_dim)[0]
        est = smp.EstimationConfig(subsample_policy=policy, fixed_n=20)
        x = np.array([first_only, rng.normal(size=p.param_dim)])
        anchors = np.array([anchor, anchor + rng.normal(size=p.param_dim)])
        seeds = [self.SEED, (5,)]
        config = optim.OptimizerConfig(eta=0.1, epochs=3, inner_iters=20, estimation=est,
                                       distribution_mode="adaptive")
        cells = [optim._Cell(replace(config, seed=seed), a, prob.full_loss(p, a)) for seed, a in zip(seeds, anchors)]
        for c, xc in zip(cells, x):
            c.x = xc
        for k, t in ((1, 1), (3, 17)):
            got = optim._weight_estimator(p, config, k, cells)(t, cells)
            assert got.shape == (2, p.m_workers)
            for c in range(2):
                ref = reference_weights(p, x[c], anchors[c], est, seeds[c], k, t)
                np.testing.assert_allclose(got[c], ref, rtol=1e-12, atol=0.0)
        assert got[1, 1] > 0.0
        assert optim._weight_estimator(p, config, 2, cells)(5, cells)[0, 1] == 0.0

    @pytest.mark.parametrize("task, etas", [(prob.LINEAR, (0.01, 0.3, 1.0)), (prob.LOGISTIC, (0.01, 1.0, 3e7))])
    def test_fixed_whole_shards_equal_full_without_drawing(self, task, etas, monkeypatch, tmp_path):
        """The estimator reads the sizes, not the policy: a ``fixed`` grid
        whose ``fixed_n`` is at least every shard reads each shard in place,
        as ``full`` does, and draws nothing.  With R = 2 and its largest
        step size diverging in mid-epoch, every cell's trace rows, final x
        and ledger equal the ``full`` grid's byte for byte."""
        p = prob.generate_heterogeneous(task, 4, 120, 3, 2.0, 5)
        base = optim.OptimizerConfig(eta=0.0, epochs=2, inner_iters=10, group_size=2, distribution_mode="adaptive")
        draws, draw = [], smp._draw_subsamples
        monkeypatch.setattr(smp, "_draw_subsamples", lambda *a: draws.append(a) or draw(*a))
        runs = []
        for est in (smp.EstimationConfig(subsample_policy="full"), smp.EstimationConfig(fixed_n=int(p.sizes.max()))):
            grid = optim.run_grid(p, [replace(base, eta=e, seed=(4, i), estimation=est) for i, e in enumerate(etas)])
            runs.append([(trace_bytes(trace, tmp_path, f"{i}.csv"), trace.final_x.tobytes(), trace.ledger.snapshot(),
                          diverged) for i, (trace, diverged) in enumerate(grid)])
        assert [diverged for *_, diverged in runs[0]] == [False, False, True]
        assert runs[1] == runs[0]
        assert draws == []

    @pytest.mark.parametrize("preset_name", ["linear_synthetic", "logistic_synthetic"])
    def test_full_policy_reads_rows_in_place_exactly(self, preset_name):
        # under ``full`` every cell reads problem.aug in place: the segment
        # sums of a block's rows read in place, broadcast over the cells,
        # equal those of the gathered rows (every row once per cell), one
        # segment per (cell, worker)
        spec = harness.ExperimentSpec(preset=preset_name, algorithms=("asd_svrg",), eta_grid=(0.1,), seeds=(1,))
        p = harness.make_problem(spec, seed=1)
        rng = np.random.default_rng(8)
        x, anchor = rng.normal(size=(3, p.param_dim)), rng.normal(size=(3, p.param_dim))
        # gathered: one segment per (cell, worker), each at its cell's points
        tiled, segments = np.tile(np.arange(p.n_total), 3), np.tile(p.sizes, 3)
        A, y, ra = prob._gather_block(p, tiled, np.repeat(anchor, p.m_workers, axis=0), segments, 1, {})
        r = prob._residuals(p, A[0], y[0], np.repeat(x, p.m_workers, axis=0), segments) - ra[0]
        stacked = prob._segment_sums(r, A[0], segments)
        # in place: the shards are the segments, each read by every cell, for every step of the block
        at = np.broadcast_to(anchor[:, None], (3, p.m_workers, p.param_dim))
        A, y, ra = prob._gather_block(p, slice(None), at, p.sizes, 5, {})
        r = prob._residuals(p, A, y, np.broadcast_to(x[:, None], at.shape), p.sizes) - ra
        broadcast = prob._segment_sums(r, A, p.sizes)
        assert broadcast.shape == (3, p.m_workers, p.param_dim)
        assert np.array_equal(broadcast.reshape(-1, p.param_dim), stacked)
        assert (np.linalg.norm(broadcast, axis=-1) > 0.0).all()


class TestShardWeightIsOneSegment:
    """``sampling.estimate_shard_weight`` is one segment of the optimizer's
    batched estimate, bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(
        task=st.sampled_from(prob.TASKS),
        shard_sizes=st.lists(st.integers(1, 30), min_size=1, max_size=5),
        dim=st.integers(1, 6),
        whole=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_the_estimators_weight(self, task, shard_sizes, dim, whole, seed):
        """On ragged shards, with k = 1 row of every shard or k = the shard
        size, the estimator's drawer made to return the rows
        ``estimate_shard_weight`` draws with the same generator: each cell's
        weight of each worker is the function's value at the cell's points.
        At k = the shard size both policies read the rows in place, with no
        draw, and give the same bits."""
        rng = np.random.default_rng(seed)
        shards = [prob.Shard(m, 1.0 + 0.5 * rng.normal(size=(n, dim)),
                             rng.normal(size=n) if task == prob.LINEAR else (rng.random(n) < 0.5).astype(float))
                  for m, n in enumerate(shard_sizes)]
        p = prob.ShardedProblem(shards, task)
        k = max(shard_sizes) if whole else 1

        def draw(hashes, sizes_of_shards, sizes):
            return np.concatenate([np.sort(np.random.default_rng([seed, m]).choice(sizes_of_shards[m], n, False))
                                   for row in sizes for m, n in enumerate(row) if n])

        policies = ["fixed", "full"] if whole else ["fixed"]
        for policy in policies:
            est = smp.EstimationConfig(subsample_policy=policy, fixed_n=k)
            config = optim.OptimizerConfig(eta=0.1, epochs=1, inner_iters=6, estimation=est,
                                           distribution_mode="adaptive")
            cells = [optim._Cell(replace(config, seed=(seed, i)), rng.normal(size=p.param_dim), 1.0) for i in range(3)]
            for c in cells:
                c.x = c.anchor + rng.normal(size=p.param_dim)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(smp, "_draw_subsamples", draw)
                got = optim._weight_estimator(p, config, 1, cells)(2, cells)
            for c, weights in zip(cells, got):
                want = [smp.estimate_shard_weight(p, m, c.x, c.anchor, min(k, n), np.random.default_rng([seed, m]))
                        for m, n in enumerate(shard_sizes)]
                assert weights.tobytes() == np.array(want).tobytes()


def fresh_kept(buffers, key, shape):
    """A new array for every kept one, filled with nan, so a read of an
    entry the call did not write shows in the result."""
    return np.full(shape, np.nan)


class FreshGathers(np.ndarray):
    """An array that counts the gathers of its rows that make a new array."""

    count = 0

    def __getitem__(self, key):
        if isinstance(key, (np.ndarray, list)):
            FreshGathers.count += 1
        return super().__getitem__(key)

    def take(self, indices, axis=None, out=None, mode="raise"):
        if out is None:
            FreshGathers.count += 1
        return super().take(indices, axis=axis, out=out, mode=mode)


class TestRowBuffers:
    """ASD's weight estimator gathers each step's subsample rows into arrays
    it keeps for the epoch, and sums each segment's gradient differences
    without writing them out."""

    @settings(max_examples=80, deadline=None)
    @given(
        task=st.sampled_from(prob.TASKS),
        policy=st.sampled_from(smp.SUBSAMPLE_POLICIES),
        dim=st.sampled_from([2, 4, 5, 6, 9]),  # p = dim + 1 is not a multiple of 4
        workers=st.integers(2, 4),
        samples=st.integers(30, 90),
        fixed_n=st.integers(1, 9),
        k=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_kept_arrays_give_the_weights_of_fresh_ones(self, task, policy, dim, workers, samples, fixed_n, k,
                                                          seed, data):
        # the live cells shrink between steps, so the kept arrays hold stale
        # rows past the ones a step writes
        p = prob.generate_heterogeneous(task, workers, samples, dim, 2.0, seed=seed)
        est = smp.EstimationConfig(subsample_policy=policy, fixed_n=fixed_n)
        config = optim.OptimizerConfig(eta=0.1, epochs=3, inner_iters=8, estimation=est,
                                       distribution_mode="adaptive")
        rng = np.random.default_rng(seed)
        cells = [optim._Cell(replace(config, seed=(seed, i)), rng.normal(size=p.param_dim), 1.0) for i in range(3)]
        steps, live = [], cells
        for t in range(2, config.inner_iters + 1):
            live = [c for c in live if len(live) == 1 or data.draw(st.booleans())] or live[:1]
            steps.append((t, live, rng.normal(size=(len(live), p.param_dim))))

        def run():
            estimate, got = optim._weight_estimator(p, config, k, cells), []
            for t, live, x in steps:
                for c, xc in zip(live, x):
                    c.x = c.anchor + xc
                got.append(estimate(t, live))
            return got

        summed = []
        with pytest.MonkeyPatch.context() as mp:
            real = prob._segment_sums

            def spy(r, A, counts):
                summed.append((r, A))
                return real(r, A, counts)

            mp.setattr(prob, "_segment_sums", spy)
            shipped = run()
            mp.setattr(prob, "_kept", fresh_kept)
            fresh = run()
        assert all(np.array_equal(a, b) for a, b in zip(shipped, fresh))  # no step read a stale or unwritten row
        assert len(summed) == 2 * len(steps)
        assert not any(np.shares_memory(w, b) for w in shipped for args in summed for b in args)

    @pytest.mark.parametrize("policy,per_epoch", [("fixed", 1), ("full", 0)])
    def test_row_arrays_made_per_epoch_not_per_step(self, policy, per_epoch, monkeypatch):
        """For a grid that keeps its cells, the estimator makes its arrays of
        rows once per epoch: under ``fixed`` the rows, under ``full`` none
        (rows read in place).  No step writes its per-row differences out,
        and no gather makes a fresh array.  So the per-step allocation,
        whose pages were faulted in again on every step, cannot creep back.

        Two checks see the estimator's calls (``_weight_estimator`` and each
        ``estimate(t, live)``), and nothing else of the loop.  The count is
        of the ``np.empty`` and ``np.empty_like`` calls made in them, of any
        rank, whose array has p as its last axis.  The ``tracemalloc`` peak
        sees every allocation, however it is made (a 1-D buffer, a ufunc or
        ``np.matmul`` result, ``np.concatenate``, a fancy-index gather):
        only the epoch's first ``estimate(t, live)`` call, which makes the
        kept arrays, may allocate at its peak as many bytes as the step's
        rows (``_segment_sums``' A) hold.  p = 31 puts that far above the
        step's arrays of a float per (cell, row) or per (cell, worker)."""
        p = prob.generate_heterogeneous(prob.LOGISTIC, 4, 200, 30, 2.0, seed=2)
        p.aug, p.y = p.aug.view(FreshGathers), p.y.view(FreshGathers)
        made, inside, real_empty, real_empty_like = [], [False], np.empty, np.empty_like

        def counted(make):
            def spy(*args, **kwargs):
                out = make(*args, **kwargs)
                if inside[0] and out.ndim and out.shape[-1] == p.param_dim:
                    made.append(out.shape)
                return out

            return spy

        calls, real_estimator, real_sums = [], optim._weight_estimator, prob._segment_sums

        def estimator(*args):
            inside[0] = True
            try:
                estimate = real_estimator(*args)
            finally:
                inside[0] = False

            def measured(t, live):  # (bytes at the call's peak, bytes of the step's rows)
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                inside[0] = True
                try:
                    weights = estimate(t, live)
                finally:
                    inside[0] = False
                calls[-1][0] = tracemalloc.get_traced_memory()[1] - before
                return weights

            return measured

        def segment_sums(r, A, counts):
            calls.append([None, A.nbytes])
            return real_sums(r, A, counts)

        monkeypatch.setattr(np, "empty", counted(real_empty))
        monkeypatch.setattr(np, "empty_like", counted(real_empty_like))
        monkeypatch.setattr(optim, "_weight_estimator", estimator)
        monkeypatch.setattr(prob, "_segment_sums", segment_sums)
        FreshGathers.count = 0
        epochs = 2
        base = optim.OptimizerConfig(eta=0.01, epochs=epochs, inner_iters=6, group_size=2,
                                     estimation=smp.EstimationConfig(subsample_policy=policy),
                                     distribution_mode="adaptive")
        tracemalloc.start()
        try:
            grid = optim.run_grid(p, [replace(base, eta=0.01 * (i + 1), seed=(1, i)) for i in range(3)])
        finally:
            tracemalloc.stop()
        assert not any(diverged for _, diverged in grid)
        assert len(made) == epochs * per_epoch, made
        assert FreshGathers.count == 0
        assert len(calls) == epochs * (base.inner_iters - 1)  # every cell live from t = 2 on
        wide = [i for i, (peak, rows) in enumerate(calls) if peak >= rows]
        assert wide == [k * (base.inner_iters - 1) for k in range(epochs)][: epochs * bool(per_epoch)]


def block_free_weights(p, est, seed, k, t, x, anchor):
    """One cell's weights at step t as one step alone makes them: its own
    draw, then for each worker's segment alone a fresh gather of its rows,
    both residual sides formed, one mat-vec over its rows for each side and
    one (1 x k) @ (k x p) product of their difference and its rows."""
    counts = smp.subsample_sizes(p.sizes, est)
    if est.subsample_policy == "full":
        rows = np.arange(p.n_total)
    else:
        local = smp._draw_subsamples([smp._key_hash(seed + (optim._CH_WEIGHTS, k, t))], p.sizes, counts[None])
        rows = local + np.repeat(p.offsets[:-1], counts)
    sums = []
    for lo, n in zip(np.cumsum(counts) - counts, counts):  # each worker's segment alone
        A, y = p.aug[rows[lo : lo + n]], p.y[rows[lo : lo + n]]
        r = prob._pointwise_residual(p.task, A @ x, y) - prob._pointwise_residual(p.task, A @ anchor, y)
        sums.append(r @ A)
    return np.linalg.norm(np.array(sums) / counts[:, None], axis=1)


class TestBlockPath:
    """The estimator's blocks (one draw for several gather blocks, one
    gather and anchor pass for several steps) give every step's weights bit
    for bit as that step alone does."""

    @settings(max_examples=60, deadline=None)
    @given(
        task=st.sampled_from(prob.TASKS),
        policy=st.sampled_from(smp.SUBSAMPLE_POLICIES),
        shard_sizes=st.lists(st.integers(3, 40), min_size=2, max_size=5),
        dim=st.integers(1, 6),
        fixed_n=st.integers(1, 30),
        block_slots=st.integers(1, 400),
        draw_slots=st.integers(1, 4000),
        first=st.sampled_from([2, 2**32 - 4]),  # the later start crosses into two-word step keys
        k=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_blocks_give_the_weights_of_single_steps(self, task, policy, shard_sizes, dim, fixed_n, block_slots,
                                                       draw_slots, first, k, seed, data):
        rng = np.random.default_rng(seed)
        shards = [prob.Shard(m, 1.0 + 0.5 * rng.normal(size=(n, dim)),
                             rng.normal(size=n) if task == prob.LINEAR else (rng.random(n) < 0.5).astype(float))
                  for m, n in enumerate(shard_sizes)]
        p = prob.ShardedProblem(shards, task)
        est = smp.EstimationConfig(subsample_policy=policy, fixed_n=fixed_n)
        config = optim.OptimizerConfig(eta=0.1, epochs=3, inner_iters=first + 9, estimation=est,
                                       distribution_mode="adaptive")
        cells = [optim._Cell(replace(config, seed=(seed, i)), rng.normal(size=p.param_dim), 1.0) for i in range(3)]
        live = cells
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(optim, "_BLOCK_SLOTS", block_slots)  # blocks of a few steps
            mp.setattr(optim, "_DRAW_SLOTS", draw_slots)  # draws of fewer or more steps than a block
            estimate = optim._weight_estimator(p, config, k, cells)
            for t in range(first, first + 10):
                # cells drop out between steps, inside a block or draw or at its end
                live = [c for c in live if len(live) == 1 or data.draw(st.booleans())] or live[:1]
                for c in live:
                    c.x = c.anchor + rng.normal(size=p.param_dim)
                got = estimate(t, live)
                for c, weights in zip(live, got):
                    want = block_free_weights(p, est, c.seed, k, t, c.x, c.anchor)
                    assert np.array_equal(weights, want)


class TestStreams:
    @settings(max_examples=200, deadline=None)
    @given(
        prefixes=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=4),
        steps=st.lists(st.integers(0, 2**33) | st.integers(0, 2**64 - 1), min_size=1, max_size=4),
    )
    def test_key_hashes_match_key_hash(self, prefixes, steps):
        # one array op folds each step, of one or two 32-bit words, onto each prefix
        h, v = (np.array(a, dtype=np.uint64) for a in zip(*((a, b) for a in prefixes for b in steps)))
        want = [smp._key_hash((b,), a) for a in prefixes for b in steps]
        assert smp._key_hashes(h, v).tolist() == want


class TestProtocolSeeds:
    """Every ASD cell's tree-protocol draws of an epoch come from one
    generator, built for the cells live at the epoch's start from each
    cell's own key ``seed + (_CH_PC, k)`` and read call after call, as
    successive ``pc_sample`` calls would read it, up to the cell's guard
    step."""

    @pytest.mark.parametrize("R", [1, 3])  # R = 3 pads the 8 workers to 12
    def test_each_live_cell_step_seeds_its_own_key(self, R, monkeypatch):
        epochs, T, stop = 2, 7, {1: 4, 3: 5}[R]
        configs = [optim.OptimizerConfig(eta=eta, epochs=epochs, inner_iters=T, group_size=R,
                                         distribution_mode="adaptive", seed=(9, i))
                   for i, eta in enumerate([0.01, 1e12, 0.1, 3.0])]  # 1e12 and 3.0 diverge in epoch 1
        built = []  # (key, generator) of every protocol generator, in build order
        real_stream = np.random.default_rng

        def stream(key):
            rng = real_stream(key)
            if isinstance(key, tuple) and key[-2] == optim._CH_PC:  # the problem's own seed is an int
                built.append((key, rng))
            return rng

        calls = []  # per protocol call: each cell's ledger id, generator key, and state before and after
        real_cells = comm.pc_sample_cells

        def cells_spy(weights, R, ledgers, rngs):
            before = [rng.bit_generator.state for rng in rngs]
            draws = real_cells(weights, R, ledgers, rngs)
            keys = [next(key for key, g in built if g is rng) for rng in rngs]
            calls.append(list(zip(map(id, ledgers), keys, before, [rng.bit_generator.state for rng in rngs])))
            return draws

        monkeypatch.setattr(np.random, "default_rng", stream)
        monkeypatch.setattr(comm, "pc_sample_cells", cells_spy)
        outcomes = optim._vr_loop(prob.generate_heterogeneous(prob.LINEAR, 8, 160, 3, 2.0, seed=4), configs, None)
        last = []  # each cell's last (k, t): the guard's, if it tripped
        for o in outcomes:
            found = re.search(r"epoch (\d+), step (\d+)$", str(o)) if isinstance(o, optim.Diverged) else None
            last.append(tuple(map(int, found.groups())) if found else (epochs, T))
        assert last == [(epochs, T), (1, 1), (epochs, T), (1, stop)]
        seeds = [optim._seed_tuple(config.seed) for config in configs]
        assert [key for key, _ in built] == [seed + (optim._CH_PC, k) for k in range(1, epochs + 1)
                                             for seed, end in zip(seeds, last) if (k, 1) <= end]
        cell_of = [ledger for ledger, *_ in calls[0]]  # every cell draws at the first step
        reads = [[] for _ in configs]
        for call in calls:
            for ledger, *read in call:
                reads[cell_of.index(ledger)].append(read)
        for seed, end, mine in zip(seeds, last, reads):
            steps = [(k, t) for k in range(1, epochs + 1) for t in range(1, T + 1) if (k, t) <= end]
            assert [key for key, *_ in mine] == [seed + (optim._CH_PC, k) for k, _ in steps]
            for (k, t), (key, before, _), previous in zip(steps, mine, [None] + mine):
                # a fresh generator at each epoch's first step, else where the last call left it
                assert before == (real_stream(key).bit_generator.state if t == 1 else previous[2])


class TestStreamPins:
    """The exact integers every random channel gives for one fixed cell key.

    A change to any channel's stream fails here, so it has to be made on
    purpose and stated.  The anchor, SGD, fixed-draw and tree-protocol
    channels read ``default_rng`` generators; the weights channel is the
    counter-hash drawer.
    """

    SEED = harness._cell_seed(7, "asd_svrg", 0.125)

    def test_anchor_sgd_and_fixed_draw_channels(self):
        assert int(np.random.default_rng(self.SEED + (optim._CH_ANCHOR, 2)).integers(100)) == 62
        rng = np.random.default_rng(self.SEED + (optim._CH_SGD, 2))
        assert [int(rng.integers(8)) for _ in range(6)] == [5, 3, 6, 0, 5, 1]
        rng = np.random.default_rng(self.SEED + (optim._CH_FIXED_DRAW, 2))
        dist = smp.Categorical.from_weights([1.0, 2.0, 3.0, 4.0])
        assert [smp.sample_categorical(dist, rng) for _ in range(6)] == [3, 3, 0, 1, 2, 2]

    def test_tree_protocol_channel(self):
        # one generator per epoch, read by each step's call in turn
        weights = [1.0, 0.0, 2.0, 3.0, 0.5, 4.0, 1.0, 1.0]
        rng = np.random.default_rng(self.SEED + (optim._CH_PC, 2))
        hists = [comm.pc_sample(weights, 4, comm.CommLedger(), rng).items() for _ in range(3)]
        assert hists == [[(5, 3), (6, 1)], [(3, 3), (5, 1)], [(5, 3), (6, 1)]]

    def test_weights_channel(self):
        # a direct draw (16 of 50), a complement draw (16 of 30), a whole
        # shard and an idle worker
        key = self.SEED + (optim._CH_WEIGHTS, 2, 3)
        got = smp._draw_subsamples([smp._key_hash(key)], np.array([50, 30, 7, 9]), np.array([[16, 16, 7, 0]]))
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
            dict(eta=0.1, epochs=1, inner_iters=1, eval_every=0),
            dict(eta=0.1, epochs=1, inner_iters=2, eval_every=3),
            dict(eta=0.1, epochs=1, inner_iters=1, l2_for_sgd=-0.1),
            dict(eta=0.1, epochs=1, inner_iters=1, seed=-4),
            dict(eta=math.nan, epochs=1, inner_iters=1),
            dict(eta=math.inf, epochs=1, inner_iters=1),
            dict(eta=0.1, epochs=1, inner_iters=1, l2_for_sgd=math.nan),
            dict(eta=0.1, epochs=1, inner_iters=1, l2_for_sgd=math.inf),
        ]:
            with pytest.raises(ValueError):
                optim.OptimizerConfig(**kwargs)

    @pytest.mark.parametrize("field, value", [
        ("epochs", 1.5), ("inner_iters", 3.5), ("group_size", 2.0), ("eval_every", 1.5), ("seed", 1.5),
        ("seed", (2, 1.5)), ("epochs", np.float64(2.0)),
    ])
    def test_non_integer_counts_and_seeds_rejected(self, field, value):
        # each once crashed inside the loop (epochs, inner_iters, group_size)
        # or was truncated: eval_every=1.5 recorded 1 row of 3, seed=1.5 ran as 1
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            optim.OptimizerConfig(**{**dict(eta=0.1, epochs=1, inner_iters=4), field: value})

    def test_numpy_integers_are_read_as_int(self):
        config = optim.OptimizerConfig(eta=0.1, epochs=np.int64(2), inner_iters=np.int32(4), group_size=np.uint8(2),
                                       eval_every=np.int64(2), seed=np.int64(3))
        assert [type(getattr(config, f)) for f in ("epochs", "inner_iters", "group_size", "eval_every")] == [int] * 4
        assert optim._seed_tuple(config.seed) == (3,)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("mode, runner", [
        ("uniform", optim.run_svrg),
        ("adaptive", optim.run_asd_svrg),
        ("uniform", optim.run_sgd),
        ("adaptive", lambda p, c, x0: optim.run_grid(p, [c, replace(c, distribution_mode="sgd")], x0)),
    ], ids=["run_svrg", "run_asd_svrg", "run_sgd", "run_grid"])
    def test_non_finite_x0_rejected_before_any_cell_runs(self, mode, runner, bad, monkeypatch):
        # such an x0 once cost the prologue and a step, with numpy
        # RuntimeWarnings, before every cell diverged at epoch 1, step 1
        p = prob.generate_heterogeneous(prob.LINEAR, 4, 80, 3, 2.0, seed=3)
        x0 = np.zeros(p.param_dim)
        x0[1] = bad
        losses = []
        monkeypatch.setattr(prob, "full_loss", lambda *a: losses.append(1))
        config = optim.OptimizerConfig(eta=0.01, epochs=2, inner_iters=3, distribution_mode=mode)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="x0 must be finite"):
                runner(p, config, x0)
        assert not losses


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
        for name in ("lam", "l_bar", "eta", "tau", "l_max"):
            for bad in (math.nan, math.inf, -math.inf):
                with pytest.raises(ValueError, match="must be finite"):
                    optim.RateParams(**{**dict(lam=1.0, l_bar=1.0, eta=0.01, T=10, tau=0.1, l_max=2.0), name: bad})
        with pytest.raises(ValueError):
            optim.theoretical_rate("svrg_uniform", optim.RateParams(lam=1.0, l_bar=1.0, eta=0.01, T=10))
        with pytest.raises(ValueError):
            optim.theoretical_rate("asd_main", optim.RateParams(lam=1.0, l_bar=1.0, eta=0.01, T=10))
        with pytest.raises(ValueError):
            optim.theoretical_rate("nonsense", optim.RateParams(lam=1.0, l_bar=1.0, eta=0.01, T=10))

    @pytest.mark.parametrize("name, bad", [("T", 1.5), ("R", 2.5), ("T", np.float64(100.0)), ("R", 4.0)])
    def test_counts_must_be_integers(self, name, bad):
        # T = 1.5 once gave asd_lemma4 a rate of 15.80, and R = 2.5 one of 0.2637
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            optim.RateParams(**{**dict(lam=1.0, l_bar=1.0, eta=0.01, T=100, R=4), name: bad})

    def test_numpy_integer_counts_are_stored_as_int(self):
        params = optim.RateParams(lam=1.0, l_bar=1.0, eta=0.01, T=np.int64(100), R=np.int32(4))
        assert type(params.T) is int and type(params.R) is int
        assert params == optim.RateParams(lam=1.0, l_bar=1.0, eta=0.01, T=100, R=4)
