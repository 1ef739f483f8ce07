"""Federated averaging on flat parameter vectors.

Two built-in learning tasks: linear regression under mean squared loss and
two-class logistic regression under mean negative log-likelihood. Devices
run plain gradient descent locally (full batch or minibatch), all of them in
one batched kernel over their stacked data; the server aggregates local
models weighted by dataset size. Also provides the
cross-validation procedure that picks the communication-round budget, and
synthetic data generators with a planted weight vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TASK_LINEAR = "linear"
TASK_LOGISTIC = "logistic"
_TASKS = (TASK_LINEAR, TASK_LOGISTIC)


class DivergenceError(ArithmeticError):
    """Local training produced a non-finite gradient or parameter vector."""


@dataclass(frozen=True)
class ModelVector:
    """Flat real parameter vector; all model exchange happens in this form."""

    params: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "params", np.asarray(self.params, dtype=float))
        if self.params.ndim != 1 or self.params.size == 0:
            raise ValueError("params must be a nonempty 1-D vector")
        if not np.all(np.isfinite(self.params)):
            raise ValueError("params must be finite")

    @property
    def dim(self) -> int:
        return self.params.size


@dataclass(frozen=True)
class LocalDataset:
    """One device's samples: feature rows ``q`` and scalar targets ``v``."""

    features: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "features", np.asarray(self.features, dtype=float))
        object.__setattr__(self, "targets", np.asarray(self.targets, dtype=float))
        if self.features.ndim != 2 or self.targets.ndim != 1:
            raise ValueError("features must be (n, d), targets (n,)")
        if len(self.features) != len(self.targets) or len(self.targets) == 0:
            raise ValueError("need at least one sample and matching lengths")
        if not (np.all(np.isfinite(self.features)) and np.all(np.isfinite(self.targets))):
            raise ValueError("features and targets must be finite")

    @property
    def count(self) -> int:
        return len(self.targets)

    @property
    def dim(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class FederatedData:
    """Every device's training samples stacked: ``features`` (M, n, d) and
    ``targets`` (M, n).

    All devices hold the same number of samples ``n``. The arrays are
    validated once, here, so the round kernel uses them without rechecking.
    """

    features: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "features", np.asarray(self.features, dtype=float))
        object.__setattr__(self, "targets", np.asarray(self.targets, dtype=float))
        if self.features.ndim != 3 or self.targets.shape != self.features.shape[:2]:
            raise ValueError("features must be (M, n, d), targets (M, n)")
        if self.features.size == 0:
            raise ValueError("need at least one device, one sample and one feature")
        if not (np.all(np.isfinite(self.features)) and np.all(np.isfinite(self.targets))):
            raise ValueError("features and targets must be finite")

    @classmethod
    def stack(cls, datasets: list[LocalDataset]) -> FederatedData:
        """Stack per-device datasets that share one sample count and dim."""
        if not datasets:
            raise ValueError("datasets must be nonempty")
        if len({(s.count, s.dim) for s in datasets}) != 1:
            raise ValueError("stacking needs the same sample count and dim on every device")
        return cls(np.stack([s.features for s in datasets]), np.stack([s.targets for s in datasets]))

    @property
    def count(self) -> int:
        """Samples per device."""
        return self.targets.shape[1]

    @property
    def dim(self) -> int:
        return self.features.shape[2]


@dataclass(frozen=True)
class TrainerConfig:
    """Local training hyperparameters, identical on every device.

    ``batch_size`` of None means full batch; the local iteration count must
    match the energy model's per-round iteration count (checked by the
    scenario config, not here).
    """

    learning_rate: float
    local_iters: int
    task: str = TASK_LINEAR
    batch_size: int | None = None

    def __post_init__(self):
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be > 0")
        if self.local_iters < 1:
            raise ValueError("local_iters must be >= 1")
        if self.task not in _TASKS:
            raise ValueError(f"task must be one of {_TASKS}, got {self.task!r}")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError("batch_size must be >= 1 when set")

    def minibatch(self, n: int) -> bool:
        """Whether training on ``n`` samples per device draws minibatches."""
        return self.batch_size is not None and self.batch_size < n


def _check_dims(w: ModelVector, data: LocalDataset | FederatedData) -> None:
    if w.dim != data.dim:
        raise ValueError(f"model dim {w.dim} != feature dim {data.dim}")


def _sample_losses(w: np.ndarray, x: np.ndarray, y: np.ndarray, task: str) -> np.ndarray:
    z = x @ w
    if task == TASK_LINEAR:
        r = z - y
        return 0.5 * r * r
    # logistic NLL in the overflow-safe form log(1 + e^z) - v*z
    return np.logaddexp(0.0, z) - y * z


def global_loss(w: ModelVector, data: LocalDataset | FederatedData, task: str) -> float:
    """Pooled mean loss over every sample of ``data``, in one reduction.

    ``data`` is one dataset (a device's, or the devices' samples pooled
    when their sizes differ) or the stacked training sets of all devices.
    Either way the result is the dataset-size-weighted mean of the
    per-device losses up to floating-point reordering.
    """
    if task not in _TASKS:
        raise ValueError(f"unknown task {task!r}")
    _check_dims(w, data)
    return float(np.mean(_sample_losses(w.params, data.features, data.targets, task)))


def _gradients(w: np.ndarray, x: np.ndarray, y: np.ndarray, task: str) -> np.ndarray:
    """Mean-loss gradient of every device at once: row i of the (M, d)
    result is the gradient at ``w[i]`` on samples ``x[i]`` (n, d), ``y[i]``."""
    z = np.einsum("mnd,md->mn", x, w)
    err = z - y if task == TASK_LINEAR else 1.0 / (1.0 + np.exp(-z)) - y
    return np.einsum("mnd,mn->md", x, err) / y.shape[1]


def loss_gradient(w: ModelVector, data: LocalDataset, task: str) -> np.ndarray:
    """Analytic gradient of the mean loss with respect to the parameters."""
    if task not in _TASKS:
        raise ValueError(f"unknown task {task!r}")
    _check_dims(w, data)
    return _gradients(w.params[None], data.features[None], data.targets[None], task)[0]


def aggregate(params: np.ndarray, weights: np.ndarray) -> ModelVector:
    """Weighted average of local models, one row of ``params`` per device.

    Each coordinate's weighted sum is a ``math.fsum``, which is correctly
    rounded: the result is reproducible bit for bit and does not depend on
    the order in which the devices are given.
    """
    params = np.asarray(params, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if params.ndim != 2 or len(params) == 0:
        raise ValueError("nothing to aggregate")
    if weights.shape != (len(params),):
        raise ValueError("need one weight per local model")
    if not np.all(weights > 0):
        raise ValueError("weights must be > 0")
    total = math.fsum(weights.tolist())
    return ModelVector([math.fsum(col) / total for col in (weights[:, None] * params).T.tolist()])


def run_round(
    global_model: ModelVector,
    data: FederatedData,
    cfg: TrainerConfig,
    rng: np.random.Generator | None = None,
    participate: np.ndarray | None = None,
) -> ModelVector:
    """One communication round: broadcast, local GD/SGD, aggregate.

    Every participating device runs its ``local_iters`` gradient steps at
    once. ``participate`` masks devices out of training and aggregation
    (battery-depleted devices skip a round); if nobody participates the
    global model is returned unchanged. Minibatch training draws, per local
    iteration, one ``rng.random((M, n))`` for all M devices, participants or
    not, and a device's batch is the first ``batch_size`` indices of its
    row's argsort, so it never depends on who else takes part. Full-batch
    training draws nothing and needs no ``rng``.
    """
    _check_dims(global_model, data)
    m, n = data.targets.shape
    active = np.ones(m, dtype=bool) if participate is None else np.asarray(participate, dtype=bool)
    if active.shape != (m,):
        raise ValueError(f"participate must have shape ({m},)")
    minibatch = cfg.minibatch(n)
    if minibatch and rng is None:
        raise ValueError("minibatch training needs an rng")

    x, y = data.features, data.targets
    if not active.all():
        x, y = x[active], y[active]
    w = np.tile(global_model.params, (len(x), 1))
    for it in range(cfg.local_iters):
        xb, yb = x, y
        if minibatch:
            idx = np.argsort(rng.random((m, n)), axis=1)[active, : cfg.batch_size]
            xb = np.take_along_axis(x, idx[:, :, None], axis=1)
            yb = np.take_along_axis(y, idx, axis=1)
        g = _gradients(w, xb, yb, cfg.task)
        if not np.all(np.isfinite(g)):
            raise DivergenceError(
                f"non-finite gradient at local iteration {it} "
                f"(|w|={float(np.max(np.abs(w))):.3e})"
            )
        with np.errstate(over="ignore"):
            w = w - cfg.learning_rate * g
        if not np.all(np.isfinite(w)):
            raise DivergenceError(f"parameters overflowed at local iteration {it}")
    return aggregate(w, np.full(len(w), float(n))) if len(w) else global_model


def evaluate_metric(w: ModelVector, data: LocalDataset, task: str) -> float:
    """Validation/test metric: mean loss for regression, accuracy for logistic."""
    if task == TASK_LOGISTIC:
        z = data.features @ w.params
        predicted = (z >= 0).astype(float)
        return float(np.mean(predicted == data.targets))
    return global_loss(w, data, task)


def _better(candidate: float, incumbent: float, task: str) -> bool:
    # Metrics are compared after rounding to 12 decimals so float dust can
    # never steal a tie from the cheaper (smaller) round budget.
    a, b = round(candidate, 12), round(incumbent, 12)
    return a > b if task == TASK_LOGISTIC else a < b


@dataclass(frozen=True)
class RoundSelection:
    """Outcome of the round-budget cross-validation."""

    best_rounds: int
    test_metric: float
    table: list[dict]


def select_rounds(
    candidates: list[int],
    train_sets: FederatedData,
    val_set: LocalDataset,
    test_set: LocalDataset,
    cfg: TrainerConfig,
    rng: np.random.Generator,
    w0: ModelVector,
) -> RoundSelection:
    """Pick the communication-round budget by validation performance.

    Trains once up to the largest candidate and snapshots the global model
    at every candidate checkpoint (training to R and continuing is
    identical to training straight to R' > R, since every round draws its
    minibatches from the one generator ``rng``). Returns the candidate with the best validation metric; exact ties go to
    the smaller budget, which costs less to communicate. The test metric is
    reported only for the chosen budget.
    """
    if not candidates:
        raise ValueError("candidates must be nonempty")
    if sorted(candidates) != list(candidates) or len(set(candidates)) != len(candidates):
        raise ValueError("candidates must be strictly ascending")
    if candidates[0] < 1:
        raise ValueError("candidates must be >= 1")

    checkpoints = {}
    w = w0
    for r in range(1, candidates[-1] + 1):
        w = run_round(w, train_sets, cfg, rng)
        if r in set(candidates):
            checkpoints[r] = w

    table = []
    best_r = None
    best_metric = None
    for r in candidates:
        metric = evaluate_metric(checkpoints[r], val_set, cfg.task)
        table.append({"rounds": r, "val_metric": metric})
        if best_r is None or _better(metric, best_metric, cfg.task):
            best_r, best_metric = r, metric

    test_metric = evaluate_metric(checkpoints[best_r], test_set, cfg.task)
    return RoundSelection(best_rounds=best_r, test_metric=test_metric, table=table)


def make_linear_data(
    rng: np.random.Generator, n: int, w_true: np.ndarray, noise_std: float
) -> LocalDataset:
    """Gaussian features with targets from a planted weight vector plus noise."""
    x = rng.standard_normal((n, len(w_true)))
    y = x @ w_true + noise_std * rng.standard_normal(n)
    return LocalDataset(x, y)


def make_logistic_data(
    rng: np.random.Generator, n: int, w_true: np.ndarray, flip_prob: float
) -> LocalDataset:
    """Gaussian features with linearly separable labels, each flipped with
    probability ``flip_prob``."""
    x = rng.standard_normal((n, len(w_true)))
    y = (x @ w_true > 0).astype(float)
    flips = rng.random(n) < flip_prob
    y[flips] = 1.0 - y[flips]
    return LocalDataset(x, y)


def make_federated_problem(
    rng: np.random.Generator,
    task: str,
    n_devices: int,
    samples_per_device: int,
    dim: int,
    noise: float,
    val_samples: int,
    test_samples: int,
    weight_scale: float = 1.0,
) -> tuple[list[LocalDataset], LocalDataset, LocalDataset, np.ndarray]:
    """Draw a full synthetic federated problem sharing one planted weight.

    ``noise`` is the target noise std for the linear task and the label
    flip probability for the logistic task. Returns per-device training
    sets plus pooled validation and test sets.
    """
    if task not in _TASKS:
        raise ValueError(f"unknown task {task!r}")
    w_true = weight_scale * rng.standard_normal(dim)
    maker = make_linear_data if task == TASK_LINEAR else make_logistic_data
    train_sets = [maker(rng, samples_per_device, w_true, noise) for _ in range(n_devices)]
    val_set = maker(rng, val_samples, w_true, noise)
    test_set = maker(rng, test_samples, w_true, noise)
    return train_sets, val_set, test_set, w_true
