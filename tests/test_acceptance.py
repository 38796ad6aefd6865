"""End-to-end acceptance checks, one per shipped guarantee.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.  Every expected constant below is either a fixed design value
or is recomputed in-test from an independent oracle (message-schedule sums,
normal equations, direct formula evaluation, Monte-Carlo frequencies).
"""

import math
import time

import numpy as np
import pytest

from hetsvrg import comm, harness, optim
from hetsvrg import problem as prob
from hetsvrg import sampling as smp


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num:2d} [{status}] {name}"
    if detail:
        line += f" ({detail})"
    print(line)


def preset_problem(seed):
    return prob.generate_heterogeneous(prob.LINEAR, 8, 500, 10, 3.0, seed=seed)


def exact_minimum(problem):
    A = np.vstack([s.aug for s in problem.shards])
    y = np.concatenate([s.y for s in problem.shards])
    x_star, *_ = np.linalg.lstsq(A, y, rcond=None)
    return prob.full_loss(problem, x_star)


SWEEP_GRID = (0.005, 0.02, 0.09, 0.18, 0.3)
SWEEP_SEEDS = (1, 2, 3, 4, 5)


@pytest.fixture(scope="module")
def linear_sweep(tmp_path_factory):
    """Shared grid sweep for the convergence-ordering and stability criteria."""
    out = tmp_path_factory.mktemp("sweep")
    spec = harness.ExperimentSpec(
        preset="linear_synthetic",
        algorithms=("svrg_uniform", "asd_svrg"),
        eta_grid=SWEEP_GRID,
        seeds=SWEEP_SEEDS,
        epochs=4,
        inner_iters=100,
        group_size=1,
        out_dir=str(out),
    )
    t0 = time.perf_counter()
    report = harness.run_experiment(spec)
    return report, time.perf_counter() - t0


def test_01_protocol_marginal():
    """Tree sampling reproduces the weighted marginal of the last worker."""
    t0 = time.perf_counter()
    weights = [1.0, 1.0, 3.0, 2.0]
    rng = np.random.default_rng(2024)
    ledger = comm.CommLedger()
    draws = 100_000
    hits = 0
    for _ in range(draws):
        hist = comm.pc_sample(weights, 1, ledger, rng)
        hits += hist.counts.get(3, 0)
    elapsed = time.perf_counter() - t0
    freq = hits / draws
    ok = abs(freq - 2.0 / 7.0) <= 0.006 and elapsed < 5.0
    _report(1, "weighted-sampling marginal 2/7", ok, f"freq={freq:.5f}, {elapsed:.2f}s")
    assert abs(freq - 2.0 / 7.0) <= 0.006
    assert elapsed < 5.0


def test_02_communication_bound():
    """Worker-to-worker scalar counts follow the message schedule and its bound."""

    def schedule(M, R):
        total = 2 * (M - M // R)
        for h in range(1, int(math.log2(M // R)) + 1):
            total += (R + 1) * (M // (2**h * R))
        return total

    results = []
    for M, R in [(8, 2), (12, 3), (16, 4), (32, 8)]:
        ledger = comm.CommLedger()
        comm.pc_sample([1.0] * M, R, ledger, np.random.default_rng(0))
        results.append((M, R, ledger.worker_worker_scalars))
    ok = all(c <= 3 * M - M // R for M, R, c in results)
    twelve = next(c for M, R, c in results if (M, R) == (12, 3))
    ok = ok and twelve == schedule(12, 3) == 28
    _report(2, "protocol scalar counts within 3M - M/R", ok,
            ", ".join(f"M={M},R={R}:{c}" for M, R, c in results))
    for M, R, c in results:
        assert c <= 3 * M - M // R
        assert c == schedule(M, R)
    assert twelve == 28


def test_03_decomposition():
    """Perturbed-distribution split: worked example plus reconstruction identity."""
    t0 = time.perf_counter()
    pair = smp.PerturbedPair.from_weights([40, 40, 60, 60], [39, 41, 58, 61])
    dec = smp.decompose_perturbed(pair)
    coeffs = (1.0 - dec.gamma, dec.gamma)
    ok = abs(coeffs[0] - 0.9715) <= 1e-4 and abs(coeffs[1] - 0.0285) <= 1e-4

    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(1000):
        w = rng.uniform(0.5, 5.0, size=6)
        delta = rng.uniform(-0.3, 0.3, size=6) * w
        pr = smp.PerturbedPair.from_weights(w, w + delta)
        d = smp.decompose_perturbed(pr)
        mix = (1 - d.gamma) * pr.base.probabilities + d.gamma * d.residual.probabilities
        worst = max(worst, float(np.abs(mix - pr.perturbed.probabilities).max()))
    elapsed = time.perf_counter() - t0
    ok = ok and worst <= 1e-12 and elapsed < 1.0
    _report(3, "noisy-weight decomposition", ok,
            f"coeffs=({coeffs[0]:.4f},{coeffs[1]:.4f}), worst residual {worst:.1e}, {elapsed:.2f}s")
    assert abs(coeffs[0] - 0.9715) <= 1e-4
    assert abs(coeffs[1] - 0.0285) <= 1e-4
    assert worst <= 1e-12
    assert elapsed < 1.0


def test_04_one_third_distortion_bound():
    """Estimates within a third of the true weights distort sampling at most 2x."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(10_000):
        m = int(rng.integers(2, 9))
        w = rng.uniform(0.2, 4.0, size=m)
        delta = rng.uniform(-1.0, 1.0, size=m) * w / 3.0
        pair = smp.PerturbedPair.from_weights(w, w + delta)
        worst = max(worst, smp.gamma_inverse_bound(pair))
    elapsed = time.perf_counter() - t0
    ok = worst <= 2.0 and elapsed < 5.0
    _report(4, "tau=1/3 keeps max p/p~ below 2", ok, f"worst={worst:.4f}, {elapsed:.2f}s")
    assert worst <= 2.0
    assert elapsed < 5.0


def test_05_subsample_coverage():
    """Concentration-sized subsamples miss the relative-error target at most
    delta of the time, on both synthetic presets.  Each shard's size is
    Lemma 1's ``subsample_size`` of its per-sample gradient differences
    r(a'x) - r(a'anchor) times a: range_norm the norm of their
    coordinate-wise max - min, mean_norm the norm of their mean.  Only
    shards sized below the shard count as trials: a whole-shard estimate is
    exact and cannot miss, and each preset has at least one subsampled
    shard."""
    t0 = time.perf_counter()
    tau, delta = 1.0 / 3.0, 0.05
    rates, subsampled = {}, {}
    for name, task, total, dim in [
        ("linear", prob.LINEAR, 500, 10),
        ("logistic", prob.LOGISTIC, 300, 100),
    ]:
        p = prob.generate_heterogeneous(task, 8, total, dim, 3.0, seed=42)
        x = np.random.default_rng(7).normal(size=p.param_dim)
        anchor = np.zeros(p.param_dim)
        rng = np.random.default_rng(123)
        fails = trials = 0
        per_shard = 2000 // p.m_workers
        sizes = []
        for m in range(p.m_workers):
            s = p.shard(m)
            r = prob._pointwise_residual(task, s.aug @ x, s.y) - prob._pointwise_residual(task, s.aug @ anchor, s.y)
            deltas = r[:, None] * s.aug
            range_norm = np.linalg.norm(deltas.max(axis=0) - deltas.min(axis=0))
            sizes.append(smp.subsample_size(p.param_dim, range_norm, np.linalg.norm(deltas.mean(axis=0)),
                                            tau=tau, delta=delta))
        shards = [m for m in range(p.m_workers) if 0 < sizes[m] < p.shard(m).size]
        for m in shards:
            size = p.shard(m).size
            exact = smp.estimate_shard_weight(p, m, x, anchor, size, np.random.default_rng(0))
            n = int(sizes[m])
            for _ in range(per_shard):
                est = smp.estimate_shard_weight(p, m, x, anchor, n, rng)
                trials += 1
                fails += abs(est - exact) > tau * exact
        subsampled[name] = len(shards)
        rates[name] = fails / trials if trials else float("nan")
    elapsed = time.perf_counter() - t0
    ok = all(subsampled.values()) and all(r <= delta for r in rates.values()) and elapsed < 120.0
    _report(5, "subsample weight estimates hold their error budget", ok,
            f"failure rates {rates} over {subsampled} subsampled shards, {elapsed:.1f}s")
    for name in rates:
        assert subsampled[name] >= 1
        assert rates[name] <= delta
    assert elapsed < 120.0


def test_06_direction_unbiasedness():
    """Expected variance-reduced direction equals the full gradient exactly."""
    p = prob.generate_heterogeneous(prob.LINEAR, 5, 100, 4, 2.0, seed=6)
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(50):
        x, anchor = rng.normal(size=(2, p.param_dim))
        weights = rng.uniform(0.05, 3.0, size=5)
        probs = weights / weights.sum()
        anchor_grads = [prob.shard_gradient(p, m, anchor) for m in range(5)]
        g_anchor = prob.full_gradient(p, anchor)
        mean = sum(
            probs[m] * optim._direction(p, x[None], np.array([[m]]), probs[None], np.array([0]),
                                        np.array([anchor_grads]), g_anchor[None])[0]
            for m in range(5)
        )
        worst = max(worst, float(np.abs(mean - prob.full_gradient(p, x)).max()))
    ok = worst <= 1e-10
    _report(6, "sampled direction is unbiased", ok, f"worst deviation {worst:.1e}")
    assert worst <= 1e-10


def test_07_convergence_ordering(linear_sweep):
    """At each method's best grid step size, adaptive sampling reaches the
    loss-gap target in strictly fewer epochs than uniform sampling (median
    over the sweep's seeds)."""
    report, elapsed = linear_sweep
    _, uni = harness.grid_best_from_rows(report.rows, "svrg_uniform")
    _, asd = harness.grid_best_from_rows(report.rows, "asd_svrg")
    med_uni = uni["median_epochs_to_threshold"]
    med_asd = asd["median_epochs_to_threshold"]
    ok = med_asd < med_uni and elapsed < 300.0
    _report(7, "adaptive beats uniform in epochs-to-target", ok,
            f"median epochs {med_asd:.2f} vs {med_uni:.2f}, sweep {elapsed:.1f}s")
    assert med_asd < med_uni
    assert elapsed < 300.0


def test_08_stability_gap(linear_sweep):
    """Some grid step size diverges under uniform sampling on every seed while
    the adaptive runs all survive it."""
    report, _ = linear_sweep
    split_etas = []
    for eta in SWEEP_GRID:
        uni = [r for r in report.rows if r.algorithm == "svrg_uniform" and r.eta == eta]
        asd = [r for r in report.rows if r.algorithm == "asd_svrg" and r.eta == eta]
        if uni and asd and all(r.diverged for r in uni) and not any(r.diverged for r in asd):
            split_etas.append(eta)
    ok = bool(split_etas)
    _report(8, "a step size splits uniform (diverges) from adaptive (stable)", ok,
            f"split etas {split_etas}")
    assert split_etas


def test_09_rate_calculators():
    """Contraction-factor formulas: spot value and variant ordering."""
    params = optim.RateParams(lam=1.0, l_bar=1.0, eta=0.05, T=100, R=4, tau=0.1)
    rho = optim.theoretical_rate("asd_main", params)
    ok = abs(rho - 0.2517) <= 1e-3

    rng = np.random.default_rng(31)
    nested = True
    for _ in range(100):
        lam = rng.uniform(0.1, 5.0)
        l_bar = rng.uniform(0.5, 10.0)
        T = int(rng.integers(10, 200))
        R = int(rng.integers(1, 16))
        tau = rng.uniform(0.0, 1.0 / 3.0)
        eta = rng.uniform(0.05, 0.95) / ((1.0 + 8.0 / R) * l_bar)
        pr = optim.RateParams(lam=lam, l_bar=l_bar, eta=eta, T=T, R=R, tau=tau)
        r2 = optim.theoretical_rate("asd_lemma4", pr)
        rm = optim.theoretical_rate("asd_main", pr)
        r8 = optim.theoretical_rate("asd_appendix", pr)
        nested = nested and r2 <= rm <= r8
    ok = ok and nested
    _report(9, "contraction-factor formulas", ok, f"rho={rho:.4f}, variants nested={nested}")
    assert abs(rho - 0.2517) <= 1e-3
    assert nested


def test_10_linear_convergence_signature():
    """Per-epoch log loss-gap of the adaptive method falls on a line."""
    t0 = time.perf_counter()
    corrs = []
    for seed in SWEEP_SEEDS:
        p = preset_problem(seed)
        info = prob.lipschitz_info(p)
        f_star = exact_minimum(p)
        cfg = optim.OptimizerConfig(
            eta=0.1 / info.l_bar, epochs=20, inner_iters=30, group_size=1,
            distribution_mode="adaptive", seed=seed,
        )
        trace = optim.run_asd_svrg(p, cfg)
        gaps = np.array([r.train_loss - f_star for r in trace.rows if r.step == 30])
        corrs.append(float(np.corrcoef(np.arange(1, 21), np.log(gaps))[0, 1]))
    elapsed = time.perf_counter() - t0
    median_corr = float(np.median(corrs))
    ok = median_corr <= -0.95 and elapsed < 60.0
    _report(10, "linear convergence trend", ok,
            f"median corr {median_corr:.3f}, {elapsed:.1f}s")
    assert median_corr <= -0.95
    assert elapsed < 60.0
