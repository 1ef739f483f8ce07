"""Federated averaging on flat parameter vectors.

Two built-in learning tasks: linear regression under mean squared loss and
two-class logistic regression under mean negative log-likelihood, scored
as max(z, 0) + log1p(e^-|z|) - y*z on numpy's vectorized ``exp`` and
``log1p``. Devices run plain gradient descent locally (full batch or
minibatch), the linear task in full batch on each set's moments XᵀX / n and
Xᵀy / n, minibatches picked from uniforms that :func:`minibatch_draws`
fills one generator per trial for a chunk of rounds at a time; the server
aggregates local models weighted by dataset size at the end of
:func:`run_round`, each coordinate of a trial's sum correctly rounded: an
exact array sum over the whole block, with a ``math.fsum`` loop kept only
as its fallback, and the same bits either way. Models are plain float
arrays. Training and evaluation work on a block of T independent trials at
once: global models are (T, d) arrays, one round trains every
participating (trial, device) pair in one kernel, and one evaluation pass
scores every model of the block; one model is a (1, d) block. Every
dataset is a stack of sets, a held-out one a stack of one. Also provides
the tie rule that picks a round budget from one metric per budget, and the
synthetic problem with a planted weight vector, every set drawn by one recipe.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .domains import AT_LEAST_1, POSITIVE_FINITE, check_domains, within

TASK_LINEAR = "linear"
TASK_LOGISTIC = "logistic"
_TASKS = (TASK_LINEAR, TASK_LOGISTIC)


@dataclass(frozen=True)
class FederatedData:
    """M datasets of n samples each, stacked: ``features`` (M, n, d) and
    ``targets`` (M, n): the devices' training sets, or a held-out set as a
    stack of one. The arrays are validated once, here, so the round kernel
    uses them without rechecking.
    """

    features: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "features", np.asarray(self.features, dtype=float))
        object.__setattr__(self, "targets", np.asarray(self.targets, dtype=float))
        if self.features.ndim != 3 or self.targets.shape != self.features.shape[:2]:
            raise ValueError("features must be (M, n, d), targets (M, n)")
        if self.features.size == 0:
            raise ValueError("need at least one set, one sample and one feature")
        if not (np.all(np.isfinite(self.features)) and np.all(np.isfinite(self.targets))):
            raise ValueError("features and targets must be finite")

    @property
    def count(self) -> int:
        """Samples per set."""
        return self.targets.shape[1]

    @property
    def dim(self) -> int:
        return self.features.shape[2]

    @cached_property
    def moments(self) -> tuple[np.ndarray, np.ndarray]:
        """Each set's ``A`` = XᵀX / n, (M, d, d), and ``b`` = Xᵀy / n, (M, d), in
        which the mean squared loss's gradient is ``A @ w - b``; kept after first use."""
        x, n = self.features, self.count
        with np.errstate(over="ignore", invalid="ignore"):  # huge features overflow A to inf
            return x.swapaxes(1, 2) @ x / n, (self.targets[:, None] @ x)[:, 0] / n


@dataclass(frozen=True)
class TrainerConfig:
    """Local training hyperparameters, identical on every device.

    ``batch_size`` of None means full batch.
    """

    learning_rate: float = within(POSITIVE_FINITE)
    task: str = TASK_LINEAR
    batch_size: int | None = within(AT_LEAST_1, None)

    def __post_init__(self):
        check_domains(self)
        if self.task not in _TASKS:
            raise ValueError(f"task must be one of {_TASKS}, got {self.task!r}")

    def minibatch(self, n: int) -> bool:
        """Whether training on ``n`` samples per device draws minibatches."""
        return self.batch_size is not None and self.batch_size < n


def _block(models, data: FederatedData) -> np.ndarray:
    """``models`` as a float (T, d) block matching the data's dimension."""
    w = np.asarray(models, dtype=float)
    if w.ndim != 2:
        raise ValueError(f"models must be a (T, d) block, got shape {w.shape}")
    if w.shape[1] != data.dim:
        raise ValueError(f"model dim {w.shape[1]} != feature dim {data.dim}")
    return w


def _predictions(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``x @ w[t]`` for every model of the block and every set of ``x``, shape (T, M, n).

    A broadcast matmul runs one matrix-vector product per (model, device),
    the same one a lone ``x @ w[t]`` runs, so each model's predictions do
    not depend on its block; one GEMM ``x @ w.T`` differs in the last bits.
    """
    return np.matmul(x[None], w[:, None, :, None])[..., 0]


def _per_model_mean(values: np.ndarray) -> np.ndarray:
    return values.reshape(len(values), -1).mean(axis=1)


def _softplus(z: np.ndarray) -> np.ndarray:
    """log(1 + e^z) in the overflow-safe form max(z, 0) + log1p(e^-|z|), on
    numpy's vectorized ``exp`` and ``log1p``: within 3 ulp of
    ``np.logaddexp(0, z)``, which runs a scalar loop, and warning-free at nan."""
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


def _sample_losses(w: np.ndarray, x: np.ndarray, y: np.ndarray, task: str) -> np.ndarray:
    """Each sample's loss under each model, (T, M, n): half the squared
    residual, or the logistic NLL log(1 + e^z) - y*z."""
    z = _predictions(w, x)
    if task == TASK_LINEAR:
        r = z - y
        return 0.5 * r * r
    return _softplus(z) - y * z


def global_loss(models, data: FederatedData, task: str) -> np.ndarray:
    """Pooled mean loss of each (T, d) model over every sample of ``data``, shape (T,).

    ``data`` is the stacked training sets of all devices or a held-out set,
    a stack of one. Each result is the dataset-size-weighted mean of the
    per-set losses up to floating-point reordering.
    """
    if task not in _TASKS:
        raise ValueError(f"unknown task {task!r}")
    w = _block(models, data)
    with np.errstate(over="ignore"):  # the loss of a model about to diverge is inf
        return _per_model_mean(_sample_losses(w, data.features, data.targets, task))


def _gradients(w: np.ndarray, x: np.ndarray, y: np.ndarray, task: str) -> np.ndarray:
    """Mean-loss gradient of every row at once: row i of the (K, d) result
    is the gradient at ``w[i]`` on samples ``x[i]`` (n, d), ``y[i]``."""
    z = np.einsum("mnd,md->mn", x, w)
    err = z - y if task == TASK_LINEAR else 1.0 / (1.0 + np.exp(-z)) - y
    return np.einsum("mnd,mn->md", x, err) / y.shape[1]


def _fsum_sums(weighted: np.ndarray, trial: np.ndarray, t_count: int) -> np.ndarray:
    """Each trial's per-coordinate ``math.fsum`` of its contiguous rows of
    ``weighted``, (T, d); inf throughout a trial where one of its sums
    overflows or adds inf and -inf."""
    sums, start = np.zeros((t_count, weighted.shape[1])), 0
    for k, count in enumerate(np.bincount(trial, minlength=t_count).tolist()):
        if count:
            try:
                sums[k] = list(map(math.fsum, weighted[start : start + count].T.tolist()))
            except (OverflowError, ValueError):  # a sum overflows, or adds inf and -inf
                sums[k] = math.inf
        start += count
    return sums


def _server_sums(
    weighted: np.ndarray, trial: np.ndarray, device: np.ndarray, shape: tuple[int, int]
) -> np.ndarray:
    """Each trial's sum of its (trial, device) rows of ``weighted``, per
    coordinate, (T, d): correctly rounded, ``math.fsum``'s value bit for bit,
    so it does not depend on the order of the devices.

    The rows are laid into a (T, M, d) block V and split by two error-free
    extractions on one grid for the whole block (the ExtractVector step of
    Rump, Ogita and Oishi, "Accurate floating-point summation part I", SIAM
    J. Sci. Comput. 31(1), 2008). With max|V| < 2^e, g = M.bit_length() + 1
    and sigma = 2^(e + g), ``q1 = (sigma + V) - sigma`` is a multiple of
    2^(e + g - 53) and ``p = V - q1`` is the exact rest, at most that in size.
    Where ``(s2 + p) - s2 == p`` everywhere, for s2 = 2^(e + 2g - 53), p is a
    multiple of 2^(e + 2g - 106) as well. A sum of M < 2^(g - 1) terms on
    either grid then stays below 2^52 grid steps, so numpy adds it exactly
    in whatever order it takes, and the one rounding of Σq1 + Σp is the
    correctly rounded total, ties to even; a zero total is +0.0, as
    ``math.fsum`` gives it on CPython 3.10 to 3.13. Otherwise, or when
    max|V| is not finite or lies outside [2^-900, 2^(1020 - g)), where a
    grid would overflow or drop below the subnormals, :func:`_fsum_sums`
    gives the sums.
    """
    t_count, m = shape
    # One buffer holds V and then its two parts, so the extraction makes few
    # temporaries and one einsum sums both parts.
    q = np.zeros((2, t_count, m, weighted.shape[1]))
    q1, p = q
    if len(trial) == t_count * m:  # every row present, in (trial, device) order
        p[...] = weighted.reshape(p.shape)
    else:
        p[trial, device] = weighted
    mu, g = float(np.abs(p).max()), m.bit_length() + 1
    if 2.0**-900 <= mu < 2.0 ** (1020 - g):  # false for inf and nan
        sigma = math.ldexp(1.0, math.frexp(mu)[1] + g)
        s2 = math.ldexp(sigma, g - 53)
        np.add(p, sigma, out=q1)
        q1 -= sigma  # q1 = (sigma + V) - sigma
        p -= q1  # p = V - q1, exact
        q2 = p + s2
        q2 -= s2  # q2 = (s2 + p) - s2
        if (q2 == p).all():
            sums = np.einsum("stmd->std", q)  # Σq1 and Σp of each trial, in whatever order
            return sums[0] + sums[1]
    return _fsum_sums(weighted, trial, t_count)


@dataclass(frozen=True)
class BlockRound:
    """One communication round of a block of T trials.

    ``models`` (T, d) holds each trial's new global model. ``errors`` maps
    the block position of every trial whose training diverged to its
    message; such a trial's row is its input model, unchanged.
    """

    models: np.ndarray
    errors: dict[int, str]


def run_round(
    global_models,
    data: FederatedData,
    cfg: TrainerConfig,
    local_iters: int,
    draws: np.ndarray | None = None,
    participate: np.ndarray | None = None,
) -> BlockRound:
    """One communication round of T independent trials: broadcast, local GD/SGD, aggregate.

    Trial t broadcasts ``global_models[t]`` to the devices marked in
    ``participate[t]`` (all by default); the others sit the round out and
    are neither trained nor aggregated, and a trial with no participant
    keeps its model bit for bit: :func:`~swiptfl.scenario.run_trial` holds
    a stopped trial in its block that way. Each of the ``local_iters``
    local iterations makes one gradient call over the K participating
    (trial, device) rows; with none,
    each trial aggregates its broadcast model, which it keeps up to the
    rounding of the average. Linear full batch gathers their
    :attr:`FederatedData.moments` once, (K, d, d) and (K, d), and steps by one
    batched ``A @ w - b``, O(d²) a row, not O(n·d); logistic full batch gathers
    their ``(K, n, d)`` features once; minibatch gathers each iteration's
    ``(K, batch_size, d)`` batch straight from ``data``: 1.0 MB for
    ``accuracy.yaml``'s block of 200 trials of 5 devices with batches of 8
    samples of 16 features, against 3.8 MB for their full sets. Each trial
    then aggregates its own rows by dataset size: the sum of its weighted
    rows, per coordinate, is correctly rounded (:func:`_server_sums`, an
    exact array sum over the whole block that falls back to ``math.fsum``
    per coordinate, with the same bits), so a trial's model depends neither
    on the order of its devices nor on its block.

    Minibatch training reads the round's uniforms from ``draws``, shaped
    (T, local_iters, M, n): at local iteration i, the batch of device j in
    trial t is the first ``batch_size`` indices of the argsort of
    ``draws[t, i, j]``, a row drawn for all M devices, participants or not,
    so it never depends on who else takes part. :func:`minibatch_draws`
    fills them from one generator per trial for a chunk of rounds;
    :func:`~swiptfl.scenario.run_trial` hands each round its slice of one
    ``("trial", t, "train")`` stream per trial, a stopped trial's included.
    Full-batch training draws nothing and needs no ``draws``.

    A trial whose gradient, parameters or aggregate stop being finite is
    reported in :attr:`BlockRound.errors` and keeps its input model; the
    other trials finish exactly as they would alone.
    """
    models = _block(global_models, data)
    t_count, (m, n) = len(models), data.targets.shape
    active = np.ones((t_count, m), bool) if participate is None else np.asarray(participate, bool)
    if active.shape != (t_count, m):
        raise ValueError(f"participate must have shape ({t_count}, {m})")
    minibatch = cfg.minibatch(n)
    if minibatch:
        shape = (t_count, local_iters, m, n)
        if draws is None or np.shape(draws) != shape:
            got = "none" if draws is None else np.shape(draws)
            raise ValueError(f"minibatch training needs draws of shape {shape}, got {got}")

    trial, device = np.nonzero(active)  # rows grouped by trial, devices ascending
    moments = not minibatch and cfg.task == TASK_LINEAR  # the rows take A, b, not x, y
    xb, yb = data.moments if moments else (data.features, data.targets)
    w = models[trial]
    if not minibatch and (len(device) != m or t_count > 1):  # a copy unless the identity
        xb, yb = xb[device], yb[device]
    errors: dict[int, str] = {}
    for it in range(local_iters):
        if minibatch:
            order = np.argsort(draws[trial, it, device], axis=1)
            batch = device[:, None], order[:, : cfg.batch_size]
            xb, yb = data.features[batch], data.targets[batch]
        with np.errstate(over="ignore", invalid="ignore"):  # e^-z = inf: the sigmoid's limit 0
            g = (xb @ w[..., None])[..., 0] - yb if moments else _gradients(w, xb, yb, cfg.task)
            stepped = w - cfg.learning_rate * g
        if not np.isfinite(stepped).all():  # a non-finite gradient makes a non-finite step
            bad_g, bad = ~np.isfinite(g).all(axis=1), ~np.isfinite(stepped).all(axis=1)
            for k in np.unique(trial[bad]).tolist():
                own = trial == k
                errors[k] = (
                    f"non-finite gradient at local iteration {it} "
                    f"(|w|={float(np.max(np.abs(w[own]))):.3e})"
                    if bad_g[own].any()
                    else f"parameters overflowed at local iteration {it}"
                )
            keep = ~np.isin(trial, list(errors))
            xb, yb, stepped, trial, device = (a[keep] for a in (xb, yb, stepped, trial, device))
        w = stepped

    with np.errstate(over="ignore"):  # an overflowed row or sum fails its trial below
        weighted = float(n) * w
    counts = np.bincount(trial, minlength=t_count)[:, None]
    sums = _server_sums(weighted, trial, device, (t_count, m))
    out = np.divide(sums, n * counts, out=models.copy(), where=counts > 0)
    if not np.isfinite(out).all():
        for k in np.flatnonzero(~np.isfinite(out).all(axis=1)).tolist():
            out[k], errors[k] = models[k], "aggregated model overflowed"
    return BlockRound(out, errors)


def minibatch_draws(
    rngs: Sequence[np.random.Generator], rounds: int, local_iters: int, shape: tuple[int, int]
) -> np.ndarray:
    """The minibatch uniforms of ``rounds`` successive rounds of T trials,
    (T, rounds, local_iters, M, n) for ``shape`` (M, n): one
    ``rngs[t].random`` fill per trial. A generator's doubles concatenate, so
    these are the values of ``rounds * local_iters`` successive
    ``rngs[t].random((M, n))`` calls, bit for bit, however the rounds are
    chunked. Round r's ``draws`` for :func:`run_round` are ``[:, r]``.
    """
    draws = np.empty((len(rngs), rounds, local_iters, *shape))
    for rng, rows in zip(rngs, draws):
        rng.random(out=rows)
    return draws


def evaluate_metric(models, data: FederatedData, task: str) -> np.ndarray:
    """Validation/test metric of each (T, d) model over every sample of
    ``data``, shape (T,): mean loss for regression, accuracy for logistic."""
    if task == TASK_LOGISTIC:
        w = _block(models, data)
        hits = (_predictions(w, data.features) >= 0) == data.targets
        return np.count_nonzero(hits.reshape(len(w), -1), axis=1) / data.targets.size
    return global_loss(models, data, task)


def best_budget(metrics: Sequence[float], task: str) -> int:
    """Index of the best of ``metrics``, one per round budget in ascending
    order: the highest accuracy or the lowest loss. An exact tie goes to the
    smaller budget, which costs less to communicate."""
    # Metrics are compared after rounding to 12 decimals so float dust can
    # never steal a tie from the cheaper budget; min and max keep the first
    # of equal keys.
    pick = max if task == TASK_LOGISTIC else min
    return pick(range(len(metrics)), key=lambda i: round(metrics[i], 12))


def check_candidates(candidates: list[int]) -> list[int]:
    """``candidates`` if they are round budgets to choose among: nonempty,
    strictly ascending and >= 1; ValueError otherwise."""
    if not candidates:
        raise ValueError("candidates must be nonempty")
    if sorted(candidates) != list(candidates) or len(set(candidates)) != len(candidates):
        raise ValueError("candidates must be strictly ascending")
    if candidates[0] < 1:
        raise ValueError("candidates must be >= 1")
    return candidates


def _draw_sets(
    rng: np.random.Generator, task: str, m: int, n: int, w_true: np.ndarray, noise: float
) -> FederatedData:
    """``m`` sets of ``n`` Gaussian feature rows labelled by the planted
    ``w_true``: linear targets with noise std ``noise``, or logistic labels
    each flipped with probability ``noise``. Draws from one generator
    concatenate, so linear sets, n * d feature normals then n noise normals
    each, take one (m, n * d + n) draw; logistic sets draw in turn."""
    dim = len(w_true)
    if task == TASK_LINEAR:
        z = rng.standard_normal((m, n * dim + n))
        x = np.ascontiguousarray(z[:, : n * dim]).reshape(m, n, dim)
        y = np.matmul(x, w_true) + noise * z[:, n * dim :]
    else:
        x, y = np.empty((m, n, dim)), np.empty((m, n))
        for xk, yk in zip(x, y):
            rng.standard_normal(out=xk)
            yk[...] = (xk @ w_true > 0) ^ (rng.random(n) < noise)
    return FederatedData(x, y)


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
) -> tuple[FederatedData, FederatedData, FederatedData, np.ndarray]:
    """Draw a full synthetic federated problem sharing one planted weight.

    ``noise`` is the target noise std for the linear task and the label
    flip probability for the logistic task. Returns every device's training
    set as one :class:`FederatedData`, the validation and test sets, each a
    stack of one drawn by the same recipe, and ``w_true``. The draws are
    ``w_true``'s and then :func:`_draw_sets`'s for the devices, validation
    and test, in that order.
    """
    if task not in _TASKS:
        raise ValueError(f"unknown task {task!r}")
    w_true = weight_scale * rng.standard_normal(dim)
    sets = [(n_devices, samples_per_device), (1, val_samples), (1, test_samples)]
    return *(_draw_sets(rng, task, m, n, w_true, noise) for m, n in sets), w_true
