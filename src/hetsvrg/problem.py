"""Sharded convex problems: data layout, losses, gradients, smoothness metadata.

A dataset is split into M disjoint shards, one per worker.  Two objectives are
supported, both linear models with the bias folded in as a trailing all-ones
feature column, so parameters have length ``dim + 1``:

* ``linear_regression``   -- squared error ``(a'x - y)**2``
* ``logistic_regression`` -- binary cross-entropy on the single logit ``a'x``

The global objective is the mean over workers of the per-shard mean loss.
All evaluation is vectorised but follows a fixed order (ascending sample index
within a shard, ascending worker id across shards), so repeated evaluation of
the same inputs is bit-identical.

A :class:`ShardedProblem` holds its training data once, stacked row-major in
worker order: ``aug`` is the ``(n_total, dim + 1)`` matrix of bias-augmented
rows, ``y`` the matching targets, and shard m owns the ``sizes[m]`` rows
``offsets[m]:offsets[m + 1]``.  Each shard's ``X``, ``aug`` and ``y`` are
views into these arrays, so batched passes over all workers (the logistic
loss, the adaptive weight estimates) are one gather or one mat-vec over the
stack.

``full_loss`` and ``test_metrics`` are the one-point cases of batched forms
that evaluate C points in one call.  They, the weight estimates'
per-segment residuals and sums (``_residuals``, ``_segment_sums``) and an
optimizer step's shard gradients (``_shard_gradients``) stack the products
in one ``np.matmul`` (``np.matmul(A, X[:, :, None])``, A
shared or one per point or segment), which runs each item's mat-vec as the
BLAS call it alone would make, so each value is bit-identical to its call alone.

The logistic loss's softplus uses numpy's vectorised ``exp`` and ``log1p``
(``_softplus``), so its losses and their reports move in the last bits
against ``np.logaddexp`` and nothing else moves; like BLAS, these SIMD
kernels may round differently on another CPU, never from run to run.

For linear regression the objective is an exact quadratic, so ``full_loss``
and the test loss of ``test_metrics`` are read from quadratic forms cached on
the problem, in O(p**2) per call (p = dim + 1), not from a pass over the
rows.  Each form is built once, on first use and block by block (shard by
shard for the training rows), as the triangular QR factor of the weighted
rows; see :class:`_QuadraticLoss`.  Stacked evaluation and the quadratic
forms sum in a different order than a shard-by-shard loop, so ``full_loss``
matches the mean of ``shard_loss`` (kept row by row, as the reference) only
up to float rounding (about 1e-13 relative on the presets); no random stream
or draw depends on either.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import expit

from . import comm

LINEAR = "linear_regression"
LOGISTIC = "logistic_regression"
TASKS = (LINEAR, LOGISTIC)

# worker_id used for held-out test rows in dataset CSV files
TEST_WORKER_ID = -1


class DatasetFormatError(ValueError):
    """A dataset CSV could not be parsed into a ShardedProblem."""


class Shard:
    """The block of samples held by one worker.

    Features are an ``(n, dim)`` matrix; ``aug`` appends the bias column.  In
    a ShardedProblem, ``X``, ``aug`` and ``y`` are views into the problem's
    stacked rows.
    """

    def __init__(self, worker_id: int, X, y):
        worker_id = comm._count(worker_id, "worker_id")  # int() would run 0.7 as worker 0
        X = np.atleast_2d(np.asarray(X, dtype=float))
        y = np.asarray(y, dtype=float).ravel()
        if X.shape[0] == 0:
            raise ValueError(f"shard {worker_id}: must hold at least one sample")
        if y.shape[0] != X.shape[0]:
            raise ValueError(
                f"shard {worker_id}: {X.shape[0]} feature rows vs {y.shape[0]} targets"
            )
        self.worker_id = worker_id
        self.X = X
        self.y = y

    @property
    def size(self) -> int:
        return self.X.shape[0]

    @property
    def dim(self) -> int:
        return self.X.shape[1]

    @cached_property
    def aug(self) -> np.ndarray:
        """Feature matrix with the trailing all-ones bias column, ``(n, dim+1)``."""
        return np.hstack([self.X, np.ones((self.size, 1))])


class ShardedProblem:
    """A finite-sum objective distributed over M workers.

    The shards' rows are copied once into the stacked ``aug``/``y`` arrays
    (see the module docstring) and ``shards`` holds new Shard objects viewing
    them; the Shard objects passed in are left untouched.  The linear losses
    are cached as quadratic forms of the training and test rows, so neither
    may be modified after construction.

    Parameters
    ----------
    shards : list of Shard, worker ids 0..M-1 in order.
    task : ``"linear_regression"`` or ``"logistic_regression"``.
    test_X, test_y : optional held-out rows used for test loss/accuracy.

    Every feature and target, held-out ones included, must be finite, else
    ``ValueError``.
    """

    def __init__(self, shards, task, *, test_X=None, test_y=None):
        if task not in TASKS:
            raise ValueError(f"unknown task {task!r}; expected one of {TASKS}")
        if not shards:
            raise ValueError("need at least one shard")
        dims = {s.dim for s in shards}
        if len(dims) != 1:
            raise ValueError(f"shards disagree on feature dimension: {sorted(dims)}")
        ids = [s.worker_id for s in shards]
        if ids != list(range(len(shards))):
            raise ValueError(f"worker ids must be 0..{len(shards) - 1} in order, got {ids}")

        self.m_workers = len(shards)
        self.dim = shards[0].dim  # raw feature dimension; parameters have length dim + 1
        self.param_dim = self.dim + 1
        self.sizes = np.array([s.size for s in shards])
        self.offsets = np.concatenate([[0], np.cumsum(self.sizes)])
        self.n_total = int(self.offsets[-1])
        self.aug = np.empty((self.n_total, self.param_dim))
        self.aug[:, -1] = 1.0
        self.y = np.empty(self.aug.shape[0])
        self.shards = []
        for s, lo, hi in zip(shards, self.offsets[:-1], self.offsets[1:]):
            self.aug[lo:hi, :-1] = s.X
            self.y[lo:hi] = s.y
            view = Shard(s.worker_id, self.aug[lo:hi, :-1], self.y[lo:hi])
            view.aug = self.aug[lo:hi]
            self.shards.append(view)
        self.task = task
        if test_X is None:
            self.test_X = np.zeros((0, self.dim))
            self.test_y = np.zeros(0)
        else:
            self.test_X = np.atleast_2d(np.asarray(test_X, dtype=float))
            self.test_y = np.asarray(test_y, dtype=float).ravel()
            if self.test_X.shape != (self.test_y.shape[0], self.dim):
                raise ValueError("test set shape does not match the training dimension")
        for name, rows in (("training", (self.aug, self.y)), ("held-out", (self.test_X, self.test_y))):
            if not all(np.isfinite(a).all() for a in rows):
                raise ValueError(f"{name} features and targets must be finite")
        if task == LOGISTIC:
            labels = np.concatenate([self.y, self.test_y])
            if not np.all((labels == 0.0) | (labels == 1.0)):
                raise ValueError("logistic targets must be exactly 0 or 1")

    @cached_property
    def test_aug(self) -> np.ndarray:
        return np.hstack([self.test_X, np.ones((self.test_X.shape[0], 1))])

    @cached_property
    def _train_form(self) -> _QuadraticLoss:
        """The linear training loss, factored one shard at a time."""
        blocks = ((s.aug, s.y, self.m_workers * s.size) for s in self.shards)
        return _QuadraticLoss.factor(blocks, self.param_dim)

    @cached_property
    def _test_form(self) -> _QuadraticLoss:
        """The linear loss on the held-out rows, factored 256 rows at a time."""
        A, y = self.test_aug, self.test_y
        blocks = ((A[lo : lo + 256], y[lo : lo + 256], y.size) for lo in range(0, y.size, 256))
        return _QuadraticLoss.factor(blocks, self.param_dim)

    def shard(self, shard_id: int) -> Shard:
        if not 0 <= shard_id < self.m_workers:
            raise IndexError(f"shard_id {shard_id} out of range [0, {self.m_workers})")
        return self.shards[shard_id]


def _check_x(problem: ShardedProblem, x) -> np.ndarray:
    x = np.asarray(x, dtype=float).ravel()
    if x.shape[0] != problem.param_dim:
        raise ValueError(
            f"parameter vector has length {x.shape[0]}, expected {problem.param_dim} "
            f"(= feature dim {problem.dim} + bias)"
        )
    return x


def _softplus(z: np.ndarray) -> np.ndarray:
    """log(1 + e^z) as max(z, 0) + log1p(e^-|z|), the split
    ``np.logaddexp(0, z)`` makes, with numpy's vectorised ``exp`` and
    ``log1p``: within 2 ulp of it, equal at +-inf and nan.  -|z| is
    min(z, -z), which keeps a nan's sign bit (a sum of two nans of opposite
    signs takes either one's, by SIMD lane)."""
    soft = np.exp(np.minimum(z, -z))
    np.log1p(soft, out=soft)
    soft += np.maximum(z, 0.0)
    return soft


def _pointwise_loss(task: str, z: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(z - y)**2, or log(1 + e^z) - y*z through :func:`_softplus`: the
    logistic train and test losses and their reports differ from
    ``np.logaddexp``'s in the last bits, and no stream, draw, iterate or
    ledger moves (no step reads a loss).  Like BLAS, the SIMD kernels may
    round differently on another CPU; on one machine runs stay byte-identical."""
    if task == LINEAR:
        return (z - y) ** 2
    return _softplus(z) - y * z


@dataclass(frozen=True)
class _QuadraticLoss:
    """A linear-regression loss F(x) = x'Hx - 2g'x + c held as a square root:
    F(x) = ||R x - z||**2, with R'R = H, R'z = g and z'z = c.

    [R | z] is the upper triangular factor of the QR factorisation of the
    weighted rows [A | y]: weight 1/sqrt(M n_m) on shard m's training rows,
    1/sqrt(n) on n held-out rows.  Its last row is (0, ..., 0, rho), rho**2 the least-squares minimum, so
    F(x) is a sum of squares and cancels no digits near the optimum; the Gram
    form x'Hx - 2g'x + c cancels against c instead (4e-10 relative near the
    optimum once shard feature scales span 1e-5 to 1e2).  Householder QR
    rounds relative to the largest rows, so where a few large rows are
    fitted exactly and small rows carry the residual, F near the optimum is
    off by up to about 1e-11 relative (the row-by-row loss loses digits
    there too).  A non-finite or overflowing x gives a non-finite value, as
    the row-by-row loss does.
    """

    R: np.ndarray
    z: np.ndarray

    @classmethod
    def factor(cls, blocks, param_dim: int) -> "_QuadraticLoss":
        """Factor the (A, y, count) blocks one at a time, each stacked under
        the factor so far, so no temporary holds more than one block."""
        Rz = np.zeros((0, param_dim + 1))
        for A, y, count in blocks:
            rows = np.column_stack([A, y]) / np.sqrt(count)
            Rz = np.linalg.qr(np.vstack([Rz, rows]), mode="r")
        return cls(np.ascontiguousarray(Rz[:, :-1]), Rz[:, -1].copy())

    def __call__(self, x):
        """F at a point x of shape (p,), as a float, or at each row of a
        (C, p) stack, as a list of floats.  One stacked product serves both:
        each point's R x - z and its squared norm are the mat-vec and the
        dot product a call for that point alone makes, so a point's value
        has the same bits alone or in a stack."""
        r = np.matmul(self.R, x[..., None])[..., 0] - self.z
        losses = np.matmul(r[..., None, :], r[..., None])
        return losses.ravel().tolist() if x.ndim == 2 else losses.item()


def _pointwise_residual(task: str, z: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The scalar r(z, y) such that the per-sample gradient is r * aug_row."""
    if task == LINEAR:
        return 2.0 * (z - y)
    return expit(z) - y


def atomic_gradient(problem: ShardedProblem, shard_id: int, sample_index: int, x) -> np.ndarray:
    """Gradient of one per-sample loss f_j at x."""
    x = _check_x(problem, x)
    shard = problem.shard(shard_id)
    if not 0 <= sample_index < shard.size:
        raise IndexError(f"sample_index {sample_index} out of range [0, {shard.size})")
    row = shard.aug[sample_index]
    r = _pointwise_residual(problem.task, float(row @ x), shard.y[sample_index])
    return r * row


def shard_gradient(problem: ShardedProblem, shard_id: int, x) -> np.ndarray:
    """Mean per-sample gradient over one shard."""
    x, shard = _check_x(problem, x), problem.shard(shard_id)
    return _gradient(problem.task, shard.aug, shard.y, x)


def _gradient(task: str, A, y, x) -> np.ndarray:
    """The mean of r(a'x) a over the rows of ``A``: two BLAS products."""
    return (A.T @ _pointwise_residual(task, A @ x, y)) / A.shape[0]


def full_gradient(problem: ShardedProblem, x) -> np.ndarray:
    """Gradient of the global objective: mean of shard gradients, ascending worker id."""
    x = _check_x(problem, x)
    total = np.zeros(problem.param_dim)
    for s in problem.shards:
        total += shard_gradient(problem, s.worker_id, x)
    return total / problem.m_workers


def _kept(buffers: dict, key: str, shape) -> np.ndarray:
    """The leading ``shape[0]`` rows of ``buffers[key]``, made (or replaced
    by a longer array) only when it has fewer rows, so a caller that keeps
    ``buffers`` reuses its memory instead of faulting new pages in."""
    if key not in buffers or len(buffers[key]) < shape[0]:
        buffers[key] = np.empty(shape)
    return buffers[key][: shape[0]]


def _runs(counts):
    """(first row, first segment, segments, rows each) of every run of consecutive segments with equal counts."""
    lo = c = 0
    for n, group in itertools.groupby(np.asarray(counts).tolist()):
        run = len(list(group))
        yield lo, c, run, n
        lo, c = lo + run * n, c + run


def _residuals(problem: ShardedProblem, A, y, X, counts) -> np.ndarray:
    """r(a'x) on the (..., N) rows of ``A`` and ``y`` in segments of
    ``counts`` rows, segment s at ``X[..., s, :]`` (the leading axes of A and
    X broadcast, the longer of them the result's): a (..., N) array.  Each
    run of equal counts is one stacked ``np.matmul``, one mat-vec per
    segment, so a segment's residuals have the bits of its call alone (a
    mat-vec's value for a row depends on the rows it is called with)."""
    p, lead = problem.param_dim, max(A.shape[:-2], X.shape[:-2], key=len)
    r = np.empty(lead + y.shape[-1:])
    for lo, s, run, n in _runs(counts):
        z = np.matmul(A[..., lo : lo + run * n, :].reshape(A.shape[:-2] + (run, n, p)), X[..., s : s + run, :, None])
        yr = y[..., lo : lo + run * n].reshape(y.shape[:-1] + (run, n))
        r[..., lo : lo + run * n] = _pointwise_residual(problem.task, z[..., 0], yr).reshape(lead + (run * n,))
    return r


def _segment_sums(r: np.ndarray, A: np.ndarray, counts) -> np.ndarray:
    """Sum_j r_j a_j over each segment of ``counts`` rows of the (..., N, p)
    ``A`` for every row of the (..., N) ``r``, leading axes broadcast: a
    (..., S, p) array.  Segment s is one (1 x k) @ (k x p) product, each run
    of equal counts one stacked ``np.matmul``, so each sum is ``r_s @ A_s``
    alone, bit for bit, at any offset and in any stack; a segment of 0 rows
    sums to 0."""
    lead, p = r.shape[:-1], A.shape[-1]
    sums = [np.matmul(r[..., lo : lo + run * n].reshape(lead + (run, 1, n)),
                      A[..., lo : lo + run * n, :].reshape(A.shape[:-2] + (run, n, p)))
            for lo, _, run, n in _runs(counts)]
    return np.concatenate(sums or [np.zeros(lead + (0, 1, p))], axis=-3)[..., 0, :]


def _gather_block(problem: ShardedProblem, rows, X_anchor, counts, steps: int, out: dict) -> tuple:
    """(rows, targets, anchor residuals :func:`_residuals`) of ``steps``
    steps of the segments ``counts`` at ``X_anchor``: ``rows`` holds the
    steps' index rows one after another, each step's split along the
    anchors' leading axes (one row set per point set), gathered into ``out``
    with a leading steps axis, or is a slice every step reads in place."""
    p, lead = problem.param_dim, (steps,) + X_anchor.shape[:-2]
    if isinstance(rows, slice):
        A, y = problem.aug[rows], problem.y[rows]  # a slice is a view, not a copy
    else:  # 'clip' gathers straight into the kept rows, where 'raise' would copy them first
        A = np.take(problem.aug, rows, axis=0, out=_kept(out, "aug", (len(rows), p)), mode="clip").reshape(*lead, -1, p)
        y = np.take(problem.y, rows, out=_kept(out, "y", (len(rows),)), mode="clip").reshape(*lead, -1)
    return A, y, _residuals(problem, A, y, X_anchor, counts)


_STACKED_SHARD = 4096  # rows x params of the largest stacked shard: the measured crossover (see README)


def _shard_gradients(problem: ShardedProblem, workers, X, out=None) -> np.ndarray:
    """``shard_gradient(problem, workers[i], X[i])`` for each pick i of the
    (K,) ``workers``, bit for bit, as a (K, p) array; unchecked, repeats
    allowed.  The picks of one shard size n of at most ``_STACKED_SHARD``
    rows x params are gathered straight into a flat buffer kept in ``out``
    (:func:`_kept`; one for every size, so it holds picks x n x p floats)
    and run as two stacked ``np.matmul``s, each item ``shard_gradient``'s
    BLAS call; a larger shard's picks run one by one."""
    task, p, out = problem.task, problem.param_dim, {} if out is None else out
    G, sizes = np.empty_like(X), problem.sizes[workers]
    ns = sorted(set(sizes.tolist()))
    for n in ns:
        if n * p > _STACKED_SHARD:
            for i in np.flatnonzero(sizes == n).tolist():
                G[i] = _gradient(task, problem.shards[workers[i]].aug, problem.shards[workers[i]].y, X[i])
            continue
        at = np.flatnonzero(sizes == n) if len(ns) > 1 else slice(None)  # one size: a slice, no copies
        rows = problem.offsets[workers[at], None] + np.arange(n)  # 'clip': see _gather_block
        A = np.take(problem.aug, rows, axis=0, out=_kept(out, "aug", (rows.size * p,)).reshape(-1, n, p), mode="clip")
        y = np.take(problem.y, rows, out=_kept(out, "y", (rows.size,)).reshape(-1, n), mode="clip")
        r = _pointwise_residual(task, np.matmul(A, X[at, :, None])[..., 0], y)
        G[at] = np.matmul(r[:, None, :], A)[:, 0] / n
    return G


def shard_loss(problem: ShardedProblem, shard_id: int, x) -> float:
    x = _check_x(problem, x)
    shard = problem.shard(shard_id)
    return float(np.mean(_pointwise_loss(problem.task, shard.aug @ x, shard.y)))


def full_loss(problem: ShardedProblem, x) -> float:
    """Training objective F(x): mean over workers of the per-shard mean loss.

    O(p**2) from the cached quadratic form for linear regression; for
    logistic regression one mat-vec over the stacked rows, then one segmented
    sum per shard.  One point of :func:`_batch_full_loss`.
    """
    return _batch_full_loss(problem, [_check_x(problem, x)])[0]


def test_metrics(problem: ShardedProblem, x) -> tuple[float, float]:
    """(test loss, test accuracy) on the held-out rows.

    Accuracy is the 0/1 rate of sign(logit) for classification and NaN for
    regression, whose loss comes from the cached quadratic form; both are NaN
    when the problem has no test rows.  One point of :func:`_batch_test_metrics`.
    """
    (loss,), (acc,) = _batch_test_metrics(problem, [_check_x(problem, x)])
    return loss, acc


def _batch_full_loss(problem: ShardedProblem, X) -> list[float]:
    """The training objectives of the C points ``X``, unchecked, each
    bit-identical to its evaluation alone: one stacked product (the
    quadratic form's, or a broadcast mat-vec over the training rows) runs
    each point's mat-vec as its own call would.  A mat-mat product, or a
    mat-vec over more rows than the training rows, would round differently
    in BLAS."""
    X = np.asarray(X, dtype=float)
    if problem.task == LINEAR:
        return problem._train_form(X)
    losses = _pointwise_loss(problem.task, np.matmul(problem.aug, X[:, :, None])[:, :, 0], problem.y)
    return np.mean(np.add.reduceat(losses, problem.offsets[:-1], axis=1) / problem.sizes, axis=1).tolist()


def _batch_test_metrics(problem: ShardedProblem, X) -> tuple[list[float], list[float]]:
    """The test losses and accuracies of the C points ``X``, unchecked, each
    bit-identical to its evaluation alone (see :func:`_batch_full_loss`)."""
    nan = [float("nan")] * len(X)
    if problem.test_X.shape[0] == 0:
        return nan, nan
    X = np.asarray(X, dtype=float)
    if problem.task == LINEAR:
        return problem._test_form(X), nan
    z = np.matmul(problem.test_aug, X[:, :, None])[:, :, 0]
    loss = np.mean(_pointwise_loss(problem.task, z, problem.test_y), axis=1)
    return loss.tolist(), np.mean((z > 0) == (problem.test_y > 0.5), axis=1).tolist()


@dataclass(frozen=True)
class LipschitzInfo:
    """Gradient-smoothness bounds for a problem.

    per_sample : smoothness of each per-sample loss, flat in (worker, index) order.
    per_shard  : smoothness of each shard mean objective.
    l_bar      : mean of per_shard;  l_max : max of per_shard.
    strong_convexity : smallest eigenvalue of the global quadratic
        (0 for logistic regression, which is not strongly convex).
    """

    per_sample: np.ndarray
    per_shard: np.ndarray
    l_bar: float
    l_max: float
    strong_convexity: float


def lipschitz_info(problem: ShardedProblem) -> LipschitzInfo:
    """Exact curvature bounds for the two supported objectives.

    Per sample: 2*||a||^2 (squared error) or ||a||^2 / 4 (logistic), a the
    bias-augmented feature row.  Per shard: the matching multiple of the top
    eigenvalue of the shard Gram matrix.
    """
    curv = 2.0 if problem.task == LINEAR else 0.25
    per_sample = []
    per_shard = []
    hessian = np.zeros((problem.param_dim, problem.param_dim))
    for s in problem.shards:
        sq_norms = np.sum(s.aug**2, axis=1)
        per_sample.append(curv * sq_norms)
        gram = s.aug.T @ s.aug
        per_shard.append(curv / s.size * float(np.linalg.eigvalsh(gram)[-1]))
        hessian += (curv / s.size) * gram
    hessian /= problem.m_workers
    if problem.task == LINEAR:
        lam = max(0.0, float(np.linalg.eigvalsh(hessian)[0]))
    else:
        lam = 0.0
    per_shard = np.asarray(per_shard)
    return LipschitzInfo(
        per_sample=np.concatenate(per_sample),
        per_shard=per_shard,
        l_bar=float(per_shard.mean()),
        l_max=float(per_shard.max()),
        strong_convexity=lam,
    )


def _train_rows(samples_total: int, m_workers: int) -> int:
    """The training rows of ``generate_heterogeneous``'s 80/20 split of
    ``samples_total``: all but its fifth, rounded down.  ``ValueError`` if
    they are fewer than ``m_workers``, who need a row each."""
    train_total = samples_total - samples_total // 5
    if train_total < m_workers:
        raise ValueError(
            f"{samples_total} samples leave {train_total} training rows, "
            f"fewer than {m_workers} workers"
        )
    return train_total


def generate_heterogeneous(
    task: str,
    m_workers: int,
    samples_total: int,
    dim: int,
    growth_base: float,
    seed,
) -> ShardedProblem:
    """Synthetic problem whose per-worker smoothness grows exponentially.

    Worker m draws features from ``growth_base**(m - M + 2) * N(0, I)``, so
    the shard smoothness constants scale like ``growth_base**(2m)`` with the
    second-largest worker at unit scale (keeping the feature columns
    commensurate with the all-ones bias column, which would otherwise become a
    pathologically flat direction of the pooled objective).  Targets come from
    a fixed
    ground-truth parameter vector: noisy responses for regression (noise sd =
    0.1 of the clean target sd), sign of the logit for classification.  A
    deterministic 80/20 split by index is applied before sharding; the
    held-out fifth cycles through the worker feature scales so that it covers
    the same mixture.  Fully reproducible given ``seed``.  ``m_workers``,
    ``samples_total`` and ``dim`` must be integers (see ``comm._count``).
    """
    if task not in TASKS:
        raise ValueError(f"unknown task {task!r}")
    m_workers = comm._count(m_workers, "m_workers")
    samples_total = comm._count(samples_total, "samples_total")
    dim = comm._count(dim, "dim")
    if m_workers < 1 or dim < 1 or samples_total < 1:
        raise ValueError("m_workers, dim and samples_total must be positive")
    if growth_base <= 0:
        raise ValueError("growth_base must be positive")
    train_total = _train_rows(samples_total, m_workers)
    test_total = samples_total - train_total

    rng = np.random.default_rng(seed)
    x_star = rng.normal(size=dim + 1)
    scales = growth_base ** (np.arange(m_workers, dtype=float) - max(m_workers - 2, 0))

    counts = [train_total // m_workers] * m_workers
    counts[-1] += train_total % m_workers
    train_X = [rng.normal(size=(counts[m], dim)) * scales[m] for m in range(m_workers)]
    test_owner = np.arange(test_total) % m_workers
    test_X = rng.normal(size=(test_total, dim)) * scales[test_owner][:, None]

    def clean_targets(X):
        return X @ x_star[:-1] + x_star[-1]

    z_train = [clean_targets(X) for X in train_X]
    z_test = clean_targets(test_X)
    if task == LINEAR:
        z_all = np.concatenate(z_train + [z_test])
        noise_sd = 0.1 * float(np.std(z_all))
        y_train = [z + rng.normal(size=z.shape) * noise_sd for z in z_train]
        y_test = z_test + rng.normal(size=z_test.shape) * noise_sd
    else:
        y_train = [(z > 0).astype(float) for z in z_train]
        y_test = (z_test > 0).astype(float)

    shards = [Shard(m, train_X[m], y_train[m]) for m in range(m_workers)]
    return ShardedProblem(shards, task, test_X=test_X, test_y=y_test)


def save_csv(problem: ShardedProblem, path) -> None:
    """Write the dataset as ``worker_id, target, f_0..f_{d-1}`` rows.

    Training rows carry their worker id; held-out rows use worker_id -1 and
    are appended last.
    """
    header = ["worker_id", "target"] + [f"f_{j}" for j in range(problem.dim)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for s in problem.shards:
            for i in range(s.size):
                writer.writerow(
                    [s.worker_id, repr(float(s.y[i]))] + [repr(float(v)) for v in s.X[i]]
                )
        for i in range(problem.test_X.shape[0]):
            writer.writerow(
                [TEST_WORKER_ID, repr(float(problem.test_y[i]))]
                + [repr(float(v)) for v in problem.test_X[i]]
            )


def load_csv(path, task: str) -> ShardedProblem:
    """Parse a dataset CSV written by :func:`save_csv` (or hand-built to match).

    Raises DatasetFormatError with the offending row/column on malformed
    input, including the line of the first ``nan`` or ``inf`` value.
    """
    by_worker: dict[int, list[tuple[float, list[float]]]] = {}
    test_rows: list[tuple[float, list[float]]] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DatasetFormatError(f"{path}: empty file") from None
        if len(header) < 3 or header[:2] != ["worker_id", "target"]:
            raise DatasetFormatError(
                f"{path}: header must start with 'worker_id,target,f_0,...', got {header[:3]}"
            )
        width = len(header)
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != width:
                raise DatasetFormatError(
                    f"{path}:{lineno}: expected {width} columns, found {len(row)}"
                )
            try:
                worker = int(row[0])
            except ValueError:
                raise DatasetFormatError(
                    f"{path}:{lineno}: column 'worker_id' is not an integer: {row[0]!r}"
                ) from None
            try:
                target = float(row[1])
                feats = [float(v) for v in row[2:]]
            except ValueError as exc:
                raise DatasetFormatError(f"{path}:{lineno}: non-numeric value ({exc})") from None
            if not all(math.isfinite(v) for v in (target, *feats)):
                raise DatasetFormatError(f"{path}:{lineno}: non-finite value (nan or inf)")
            if worker == TEST_WORKER_ID:
                test_rows.append((target, feats))
            elif worker < 0:
                raise DatasetFormatError(
                    f"{path}:{lineno}: worker_id must be >= 0 or {TEST_WORKER_ID} for test rows"
                )
            else:
                by_worker.setdefault(worker, []).append((target, feats))
    if not by_worker:
        raise DatasetFormatError(f"{path}: no training rows")
    ids = sorted(by_worker)
    if ids != list(range(len(ids))):
        raise DatasetFormatError(f"{path}: worker ids must be contiguous from 0, got {ids}")
    shards = [
        Shard(m, np.array([f for _, f in by_worker[m]]), np.array([t for t, _ in by_worker[m]]))
        for m in ids
    ]
    if test_rows:
        test_X = np.array([f for _, f in test_rows])
        test_y = np.array([t for t, _ in test_rows])
    else:
        test_X = test_y = None
    return ShardedProblem(shards, task, test_X=test_X, test_y=test_y)
