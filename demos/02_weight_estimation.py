#!/usr/bin/env python3
"""Estimate per-worker gradient-difference norms from small subsamples.

Each worker's sampling weight is the norm of its mean gradient difference
between the current point and the epoch anchor.  Computing it exactly costs a
full pass over the shard; drawing a without-replacement subsample of the
concentration-driven size keeps the estimate within a chosen relative error
with high probability.
"""

import numpy as np

from hetsvrg import problem as prob
from hetsvrg import sampling as smp

p = prob.generate_heterogeneous(prob.LINEAR, 8, 500, 10, 3.0, seed=42)
rng = np.random.default_rng(7)
x = rng.normal(size=p.param_dim)
anchor = np.zeros(p.param_dim)

print("worker | shard |  exact w_m |   n(tau=1/3) | typical estimate")
cfg = smp.EstimationConfig(tau=1.0 / 3.0, delta=0.05, subsample_policy="lemma1")
sizes = smp.subsample_sizes(p, x, anchor, cfg)  # the concentration-driven sizes
for m in range(p.m_workers):
    size = p.shard(m).size
    exact = smp.estimate_shard_weight(p, m, x, anchor, size, np.random.default_rng(0))
    n = int(sizes[m])
    est = smp.estimate_shard_weight(p, m, x, anchor, n, np.random.default_rng(m))
    print(f"  {m}    |  {size}   | {exact:10.4f} | {n:6d}/{size}   | {est:10.4f}")

# empirical check of the error guarantee on one worker
m, tau, delta, trials = 4, 1.0 / 3.0, 0.05, 2000
size = p.shard(m).size
exact = smp.estimate_shard_weight(p, m, x, anchor, size, np.random.default_rng(0))
n = int(sizes[m])
draw = np.random.default_rng(123)
fails = sum(
    abs(smp.estimate_shard_weight(p, m, x, anchor, n, draw) - exact) > tau * exact
    for _ in range(trials)
)
print(f"\nworker {m}: {trials} subsample draws of size {n}, "
      f"relative error beyond {tau:.2f} in {fails / trials:.2%} of draws "
      f"(budget {delta:.0%})")

# the weights feed the variance-minimising distribution over workers
weights = [
    smp.estimate_shard_weight(p, m, x, anchor, p.shard(m).size, np.random.default_rng(0))
    for m in range(p.m_workers)
]
dist = smp.optimal_distribution(weights)
print("\nsampling probabilities from exact weights:",
      np.array2string(dist.probabilities, precision=3))
