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
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import expit

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
        X = np.atleast_2d(np.asarray(X, dtype=float))
        y = np.asarray(y, dtype=float).ravel()
        if X.shape[0] == 0:
            raise ValueError(f"shard {worker_id}: must hold at least one sample")
        if y.shape[0] != X.shape[0]:
            raise ValueError(
                f"shard {worker_id}: {X.shape[0]} feature rows vs {y.shape[0]} targets"
            )
        self.worker_id = int(worker_id)
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

        self.sizes = np.array([s.size for s in shards])
        self.offsets = np.concatenate([[0], np.cumsum(self.sizes)])
        self.aug = np.empty((int(self.offsets[-1]), shards[0].dim + 1))
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
            self.test_X = np.zeros((0, shards[0].dim))
            self.test_y = np.zeros(0)
        else:
            self.test_X = np.atleast_2d(np.asarray(test_X, dtype=float))
            self.test_y = np.asarray(test_y, dtype=float).ravel()
            if self.test_X.shape != (self.test_y.shape[0], shards[0].dim):
                raise ValueError("test set shape does not match the training dimension")
        if task == LOGISTIC:
            labels = np.concatenate([self.y, self.test_y])
            if not np.all((labels == 0.0) | (labels == 1.0)):
                raise ValueError("logistic targets must be exactly 0 or 1")

    @property
    def m_workers(self) -> int:
        return len(self.shards)

    @property
    def dim(self) -> int:
        """Raw feature dimension (parameters have length dim + 1)."""
        return self.shards[0].dim

    @property
    def param_dim(self) -> int:
        return self.dim + 1

    @property
    def n_total(self) -> int:
        return self.aug.shape[0]

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


def _pointwise_loss(task: str, z: np.ndarray, y: np.ndarray) -> np.ndarray:
    if task == LINEAR:
        return (z - y) ** 2
    # log(1 + e^z) - y*z, stable for large |z|
    return np.logaddexp(0.0, z) - y * z


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

    def __call__(self, x: np.ndarray) -> float:
        r = self.R @ x - self.z
        return float(r @ r)


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


def shard_gradient(problem: ShardedProblem, shard_id: int, x, sample_indices=None) -> np.ndarray:
    """Mean per-sample gradient over one shard (or over ``sample_indices``).

    With ``sample_indices`` this is the mean over that subsample; the full
    shard is the default.
    """
    x = _check_x(problem, x)
    shard = problem.shard(shard_id)
    A, y = shard.aug, shard.y
    if sample_indices is not None:
        idx = np.asarray(sample_indices, dtype=int)
        if idx.size == 0 or idx.min() < 0 or idx.max() >= shard.size:
            raise IndexError(f"sample indices out of range for shard of size {shard.size}")
        A, y = A[idx], y[idx]
    r = _pointwise_residual(problem.task, A @ x, y)
    return (A.T @ r) / A.shape[0]


def full_gradient(problem: ShardedProblem, x) -> np.ndarray:
    """Gradient of the global objective: mean of shard gradients, ascending worker id."""
    x = _check_x(problem, x)
    total = np.zeros(problem.param_dim)
    for s in problem.shards:
        total += shard_gradient(problem, s.worker_id, x)
    return total / problem.m_workers


def gradient_deltas(problem: ShardedProblem, rows, x, x_anchor) -> np.ndarray:
    """Per-sample gradient differences grad f_j(x) - grad f_j(x_anchor) for the
    stacked rows ``rows`` (an index array or a slice into ``problem.aug``),
    one row per sample: the residual difference r(a'x) - r(a'x_anchor) times a.
    """
    x = _check_x(problem, x)
    xa = _check_x(problem, x_anchor)
    A, y = problem.aug[rows], problem.y[rows]
    r = _pointwise_residual(problem.task, A @ x, y) - _pointwise_residual(problem.task, A @ xa, y)
    return r[:, None] * A


def shard_loss(problem: ShardedProblem, shard_id: int, x) -> float:
    x = _check_x(problem, x)
    shard = problem.shard(shard_id)
    return float(np.mean(_pointwise_loss(problem.task, shard.aug @ x, shard.y)))


def full_loss(problem: ShardedProblem, x) -> float:
    """Training objective F(x): mean over workers of the per-shard mean loss.

    O(p**2) from the cached quadratic form for linear regression; for
    logistic regression one mat-vec over the stacked rows, then one segmented
    sum per shard.
    """
    x = _check_x(problem, x)
    if problem.task == LINEAR:
        return problem._train_form(x)
    losses = _pointwise_loss(problem.task, problem.aug @ x, problem.y)
    shard_means = np.add.reduceat(losses, problem.offsets[:-1]) / problem.sizes
    return float(np.mean(shard_means))


def test_metrics(problem: ShardedProblem, x) -> tuple[float, float]:
    """(test loss, test accuracy) on the held-out rows.

    Accuracy is the 0/1 rate of sign(logit) for classification and NaN for
    regression, whose loss comes from the cached quadratic form; both are NaN
    when the problem has no test rows.
    """
    x = _check_x(problem, x)
    if problem.test_X.shape[0] == 0:
        return float("nan"), float("nan")
    if problem.task == LINEAR:
        return problem._test_form(x), float("nan")
    z = problem.test_aug @ x
    loss = float(np.mean(_pointwise_loss(problem.task, z, problem.test_y)))
    if problem.task == LOGISTIC:
        acc = float(np.mean((z > 0) == (problem.test_y > 0.5)))
    else:
        acc = float("nan")
    return loss, acc


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
    the same mixture.  Fully reproducible given ``seed``.
    """
    if task not in TASKS:
        raise ValueError(f"unknown task {task!r}")
    if m_workers < 1 or dim < 1 or samples_total < 1:
        raise ValueError("m_workers, dim and samples_total must be positive")
    if growth_base <= 0:
        raise ValueError("growth_base must be positive")
    test_total = samples_total // 5
    train_total = samples_total - test_total
    if train_total < m_workers:
        raise ValueError(
            f"{samples_total} samples leave {train_total} training rows, "
            f"fewer than {m_workers} workers"
        )

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

    Raises DatasetFormatError with the offending row/column on malformed input.
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
