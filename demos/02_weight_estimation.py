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

# Lemma 1's concentration-driven size of each shard, from the range and the
# mean of its per-sample gradient differences (the mean's norm is the exact
# weight, so this costs a full pass), capped at the shard
tau, delta = 1.0 / 3.0, 0.05
sizes = []
for m in range(p.m_workers):
    deltas = np.array([prob.atomic_gradient(p, m, j, x) - prob.atomic_gradient(p, m, j, anchor)
                       for j in range(p.shard(m).size)])
    range_norm = np.linalg.norm(deltas.max(axis=0) - deltas.min(axis=0))
    n = smp.subsample_size(p.param_dim, range_norm, np.linalg.norm(deltas.mean(axis=0)), tau=tau, delta=delta)
    sizes.append(min(p.shard(m).size, n))

print("worker | shard |  exact w_m |   n(tau=1/3) | typical estimate")
for m in range(p.m_workers):
    size = p.shard(m).size
    exact = smp.estimate_shard_weight(p, m, x, anchor, size, np.random.default_rng(0))
    n = int(sizes[m])
    est = smp.estimate_shard_weight(p, m, x, anchor, n, np.random.default_rng(m))
    print(f"  {m}    |  {size}   | {exact:10.4f} | {n:6d}/{size}   | {est:10.4f}")

# empirical check of the error guarantee on the worker with the largest
# subsample below its shard (a whole-shard estimate is exact and cannot miss)
m = max((m for m in range(p.m_workers) if sizes[m] < p.shard(m).size), key=lambda m: sizes[m])
trials, size, n = 2000, p.shard(m).size, int(sizes[m])
exact = smp.estimate_shard_weight(p, m, x, anchor, size, np.random.default_rng(0))
draw = np.random.default_rng(123)
errors = np.array([abs(smp.estimate_shard_weight(p, m, x, anchor, n, draw) - exact) / exact for _ in range(trials)])
print(f"\nworker {m}: {trials} subsample draws of size {n} of {size}, "
      f"relative error beyond {tau:.2f} in {np.mean(errors > tau):.2%} of draws "
      f"(budget {delta:.0%}), worst {errors.max():.1%}")

# the weights feed the variance-minimising distribution over workers
weights = [
    smp.estimate_shard_weight(p, m, x, anchor, p.shard(m).size, np.random.default_rng(0))
    for m in range(p.m_workers)
]
dist = smp.Categorical.from_weights(weights)
print("\nsampling probabilities from exact weights:",
      np.array2string(dist.probabilities, precision=3))
