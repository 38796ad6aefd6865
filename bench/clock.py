"""How the benchmark measures time.

Every time is CPU time of the benchmark process (``CLOCK``).  On a shared
virtual machine the wall clock also counts the time other tenants hold the
physical core (steal time): between consecutive passes of the same work it ran
2-26% above CPU time, with under 0.1 s of run-queue wait in the guest.  The
passes are single-threaded (one BLAS thread) and wait on nothing but small CSV
writes, so CPU time covers their work.

CPU time itself drifts with the load the other tenants put on the host: a
fixed pure-Python loop took 0.23 s to 0.31 s from one second to the next, and
identical ``protocol_wide`` passes 1.0 s to 1.6 s, in phases lasting minutes.  The
end-to-end times are therefore rescaled to a reference host speed.  A fixed
calibration kernel is timed right before and right after each timed pass, and
the pass time is multiplied by ``REFERENCE_S`` over the mean of the two.  In
four sets of 8 to 10 runs of ``linear_sweep`` or ``protocol_wide`` this cut the
spread of the run medians, (Q3 - Q1) / median, from 10-25% to 7.5-15%.  The
kernel calls no ``hetsvrg`` code, so a change to the program does not move it.
"""

from __future__ import annotations

import time

import numpy as np

CLOCK = time.process_time

# CPU seconds of ``calibration_s`` at the reference speed, about its median on
# the machine where the baseline was taken.
REFERENCE_S = 0.1


def calibration_s() -> float:
    """CPU seconds of one fixed kernel with the mix the workloads run: stream
    construction, a without-replacement draw, small matrix-vector products,
    and a Python loop over a weight list."""
    start = CLOCK()
    rng = np.random.default_rng(0)
    a = rng.normal(size=(64, 51))
    x = rng.normal(size=51)
    weights = rng.random(64).tolist()
    for i in range(1500):
        draw = np.random.Generator(np.random.PCG64(np.random.SeedSequence((7, i))))
        rows = a[np.sort(draw.choice(64, 16, replace=False))]
        residual = rows @ x - 1.0
        x = x - 1e-4 * (rows.T @ residual) / 16
        total, u = 0.0, draw.random() * 64
        for w in weights:
            total += w
            if u < total:
                break
    return CLOCK() - start


def rescale(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between two calibrations, at the reference speed."""
    return seconds * REFERENCE_S / ((before + after) / 2.0)
