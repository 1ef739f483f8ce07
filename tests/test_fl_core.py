"""Federated training core: losses, gradients, aggregation, round selection."""

import math

import numpy as np
import pytest

import oracles
from swiptfl.fl_core import (
    DivergenceError,
    FederatedData,
    LocalDataset,
    ModelVector,
    TrainerConfig,
    aggregate,
    evaluate_metric,
    global_loss,
    loss_gradient,
    make_federated_problem,
    run_round,
    select_rounds,
)


def linear_cfg(**kw):
    base = dict(learning_rate=0.1, local_iters=1, task="linear", batch_size=None)
    base.update(kw)
    return TrainerConfig(**base)


def test_local_loss_zero_at_interpolation():
    x = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    w = np.array([2.0, -1.0])
    data = LocalDataset(x, x @ w)
    assert global_loss(ModelVector(w), data, "linear") == 0.0


def test_local_loss_single_sample():
    data = LocalDataset(np.array([[1.0]]), np.array([2.0]))
    assert global_loss(ModelVector(np.array([0.0])), data, "linear") == 2.0


def test_local_loss_duplication_invariant():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((6, 3))
    y = rng.standard_normal(6)
    w = ModelVector(rng.standard_normal(3))
    once = global_loss(w, LocalDataset(x, y), "linear")
    twice = global_loss(w, LocalDataset(np.vstack([x, x]), np.concatenate([y, y])), "linear")
    assert twice == pytest.approx(once, rel=1e-15)


def test_global_loss_rejects_unknown_task():
    data = LocalDataset(np.array([[1.0]]), np.array([1.0]))
    w = ModelVector(np.array([0.5]))
    for d in (data, FederatedData.stack([data])):
        with pytest.raises(ValueError, match="unknown task 'bogus'"):
            global_loss(w, d, "bogus")


def test_global_loss_single_device_equals_local():
    rng = np.random.default_rng(4)
    data = LocalDataset(rng.standard_normal((5, 2)), rng.standard_normal(5))
    w = ModelVector(rng.standard_normal(2))
    assert global_loss(w, FederatedData.stack([data]), "linear") == pytest.approx(
        global_loss(w, data, "linear"), rel=1e-15
    )


def test_global_loss_equal_sizes_is_plain_mean():
    rng = np.random.default_rng(6)
    sets = [LocalDataset(rng.standard_normal((4, 2)), rng.standard_normal(4)) for _ in range(2)]
    w = ModelVector(rng.standard_normal(2))
    mean = 0.5 * (global_loss(w, sets[0], "linear") + global_loss(w, sets[1], "linear"))
    assert global_loss(w, FederatedData.stack(sets), "linear") == pytest.approx(mean, rel=1e-14)


def test_global_loss_weighted_identity():
    """Pooled objective equals the data-size-weighted mean of local means;
    devices of unequal size are pooled into one dataset."""
    rng = np.random.default_rng(8)
    for task in ("linear", "logistic"):
        sizes = (1, 2, 3)
        if task == "logistic":
            sets = [
                LocalDataset(rng.standard_normal((n, 3)), rng.integers(0, 2, n).astype(float))
                for n in sizes
            ]
        else:
            sets = [LocalDataset(rng.standard_normal((n, 3)), rng.standard_normal(n)) for n in sizes]
        w = ModelVector(rng.standard_normal(3))
        pooled = LocalDataset(
            np.vstack([s.features for s in sets]), np.concatenate([s.targets for s in sets])
        )
        weighted = sum(n * global_loss(w, s, task) for n, s in zip(sizes, sets)) / sum(sizes)
        assert global_loss(w, pooled, task) == pytest.approx(weighted, rel=1e-12)
        ref = oracles.pooled_loss(w.params, [s.features for s in sets], [s.targets for s in sets], task)
        assert global_loss(w, pooled, task) == pytest.approx(ref, rel=1e-12)


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(10)
    for task in ("linear", "logistic"):
        for _ in range(25):
            d = int(rng.integers(1, 6))
            n = int(rng.integers(1, 8))
            x = rng.standard_normal((n, d))
            y = rng.integers(0, 2, n).astype(float) if task == "logistic" else rng.standard_normal(n)
            data = LocalDataset(x, y)
            w = rng.standard_normal(d)
            grad = loss_gradient(ModelVector(w), data, task)
            fd = oracles.fd_gradient(lambda v: global_loss(ModelVector(v), data, task), w)
            assert np.linalg.norm(grad - fd) <= 1e-5 * max(1.0, np.linalg.norm(grad))


def test_run_round_single_step_matches_fd_oracle():
    rng = np.random.default_rng(14)
    data = LocalDataset(rng.standard_normal((8, 4)), rng.standard_normal(8))
    w0 = rng.standard_normal(4)
    lr = 0.07
    out = run_round(ModelVector(w0), FederatedData.stack([data]), linear_cfg(learning_rate=lr))
    fd = oracles.fd_gradient(lambda v: global_loss(ModelVector(v), data, "linear"), w0)
    expected = w0 - lr * fd
    assert np.max(np.abs(out.params - expected) / np.maximum(1e-8, np.abs(expected))) <= 1e-5


def test_descent_below_lipschitz_rate_never_increases_loss():
    rng = np.random.default_rng(16)
    x = rng.standard_normal((20, 5))
    y = rng.standard_normal(20)
    data = LocalDataset(x, y)
    lr = 0.9 / oracles.lipschitz_sq_loss(x)
    w = ModelVector(rng.standard_normal(5))
    stacked = FederatedData.stack([data])
    losses = [global_loss(w, data, "linear")]
    for _ in range(15):
        w = run_round(w, stacked, linear_cfg(learning_rate=lr))
        losses.append(global_loss(w, data, "linear"))
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


def test_aggregate_identical_vectors_fixed_point():
    w = np.array([1.5, -2.0, 0.25])
    out = aggregate(np.stack([w, w, w]), np.array([3.0, 1.0, 7.0]))
    assert np.array_equal(out.params, w)


def test_aggregate_single_device():
    w = np.array([0.1, 0.2])
    assert np.array_equal(aggregate(w[None], np.array([5.0])).params, w)


def test_aggregate_equal_weights_midpoint():
    out = aggregate(np.array([[0.0, 2.0], [1.0, 0.0]]), np.array([4.0, 4.0]))
    assert np.allclose(out.params, [0.5, 1.0], rtol=0, atol=1e-15)


def test_aggregate_is_convex_combination():
    rng = np.random.default_rng(18)
    for _ in range(30):
        m = int(rng.integers(1, 7))
        stacked = rng.standard_normal((m, 4))
        out = aggregate(stacked, rng.uniform(0.1, 5.0, m)).params
        assert np.all(out >= stacked.min(axis=0) - 1e-12)
        assert np.all(out <= stacked.max(axis=0) + 1e-12)


def test_aggregate_deterministic_and_order_canonicalized():
    """Each coordinate's sum is correctly rounded, so repeated calls and a
    permuted presentation of the devices agree bit for bit."""
    rng = np.random.default_rng(20)
    params = rng.standard_normal((5, 6))
    weights = rng.uniform(0.5, 3, 5)
    a = aggregate(params, weights).params
    b = aggregate(params, weights).params
    assert np.array_equal(a, b)
    perm = rng.permutation(5)
    c = aggregate(params[perm], weights[perm]).params
    assert np.array_equal(a, c)


def test_aggregate_validation():
    with pytest.raises(ValueError):
        aggregate(np.empty((0, 2)), np.empty(0))
    with pytest.raises(ValueError):
        aggregate(np.array([[1.0]]), np.array([0.0]))
    with pytest.raises(ValueError):
        aggregate(np.ones((2, 3)), np.ones(3))


def test_federated_data_stack_rejects_unequal_sizes():
    rng = np.random.default_rng(21)
    sets = [LocalDataset(rng.standard_normal((n, 2)), rng.standard_normal(n)) for n in (3, 4)]
    with pytest.raises(ValueError, match="same sample count"):
        FederatedData.stack(sets)
    stacked = FederatedData.stack(sets[:1] * 2)
    assert stacked.features.shape == (2, 3, 2) and (stacked.count, stacked.dim) == (3, 2)
    with pytest.raises(ValueError):
        FederatedData(np.full((1, 2, 2), np.nan), np.zeros((1, 2)))


def test_run_round_deterministic_given_streams():
    rng = np.random.default_rng(22)
    sets = [LocalDataset(rng.standard_normal((6, 3)), rng.standard_normal(6)) for _ in range(3)]
    data = FederatedData.stack(sets)
    w0 = ModelVector(rng.standard_normal(3))
    cfg = linear_cfg(batch_size=2, local_iters=3)
    out1 = run_round(w0, data, cfg, np.random.default_rng(99))
    out2 = run_round(w0, data, cfg, np.random.default_rng(99))
    assert np.array_equal(out1.params, out2.params)
    with pytest.raises(ValueError, match="rng"):
        run_round(w0, data, cfg)


def test_run_round_nobody_participates_keeps_global():
    rng = np.random.default_rng(24)
    sets = [LocalDataset(rng.standard_normal((4, 2)), rng.standard_normal(4)) for _ in range(2)]
    w0 = ModelVector(rng.standard_normal(2))
    out = run_round(w0, FederatedData.stack(sets), linear_cfg(), participate=np.array([False, False]))
    assert np.array_equal(out.params, w0.params)


def test_run_round_centralized_equivalence_small():
    rng = np.random.default_rng(26)
    sets = [LocalDataset(rng.standard_normal((5, 3)), rng.standard_normal(5)) for _ in range(4)]
    w0 = rng.standard_normal(3)
    lr = 0.05
    out = run_round(ModelVector(w0), FederatedData.stack(sets), linear_cfg(learning_rate=lr))
    ref = oracles.centralized_step(
        w0, [s.features for s in sets], [s.targets for s in sets], lr, "linear"
    )
    assert np.linalg.norm(out.params - ref) <= 1e-9 * max(1.0, np.linalg.norm(ref))


@pytest.mark.parametrize("task", ["linear", "logistic"])
@pytest.mark.parametrize("batch_size", [None, 3])
def test_run_round_matches_per_device_oracle(task, batch_size):
    """The batched kernel against the sample-by-sample reference trainer:
    the new global model is the count-weighted mean of the participants'
    local models, and minibatch rows follow the documented draw rule."""
    rng = np.random.default_rng(34)
    m, n, dim, iters, lr, seed = 4, 7, 3, 3, 0.2, 5
    x = rng.standard_normal((m, n, dim))
    if task == "linear":
        y = rng.standard_normal((m, n))
    else:
        y = rng.integers(0, 2, (m, n)).astype(float)
    w0 = rng.standard_normal(dim)
    participate = np.array([True, False, True, True])
    cfg = TrainerConfig(learning_rate=lr, local_iters=iters, task=task, batch_size=batch_size)

    out = run_round(
        ModelVector(w0), FederatedData(x, y), cfg, np.random.default_rng(seed), participate
    ).params

    draws = np.random.default_rng(seed)
    orders = [np.argsort(draws.random((m, n)), axis=1) for _ in range(iters)]
    acc, total = np.zeros(dim), 0.0
    for i in np.flatnonzero(participate):
        batches = None if batch_size is None else [order[i, :batch_size] for order in orders]
        acc += n * oracles.local_gd(w0, x[i], y[i], task, lr, iters, batches)
        total += n
    expected = acc / total
    assert np.max(np.abs(out - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_device_sitting_out_cannot_fail_the_round():
    """A device whose gradient step overflows raises only when it trains."""
    rng = np.random.default_rng(36)
    x = rng.standard_normal((3, 5, 2))
    x[1] *= 1e200
    y = rng.standard_normal((3, 5))
    w0 = ModelVector(rng.standard_normal(2))
    cfg = linear_cfg(local_iters=2)
    with np.errstate(over="ignore"), pytest.raises(DivergenceError):
        run_round(w0, FederatedData(x, y), cfg)
    masked = run_round(w0, FederatedData(x, y), cfg, participate=np.array([True, False, True]))
    without = run_round(w0, FederatedData(x[[0, 2]], y[[0, 2]]), cfg)
    assert np.array_equal(masked.params, without.params)


def test_divergence_raises():
    rng = np.random.default_rng(28)
    data = FederatedData.stack([LocalDataset(rng.standard_normal((5, 3)), rng.standard_normal(5))])
    with pytest.raises(DivergenceError):
        run_round(ModelVector(rng.standard_normal(3)), data,
                  linear_cfg(learning_rate=1e200, local_iters=50))


def test_evaluate_metric_semantics():
    x = np.array([[1.0], [-1.0], [2.0]])
    y = np.array([1.0, 0.0, 1.0])
    data = LocalDataset(x, y)
    assert evaluate_metric(ModelVector(np.array([1.0])), data, "logistic") == 1.0
    assert evaluate_metric(ModelVector(np.array([-1.0])), data, "logistic") == 0.0
    lin = LocalDataset(np.array([[1.0]]), np.array([2.0]))
    assert evaluate_metric(ModelVector(np.array([0.0])), lin, "linear") == 2.0


def _identity_problem(dim=4, seed=7):
    """One device whose features form the identity, so a full-batch step at
    the right rate contracts the error by an exact chosen factor."""
    rng = np.random.default_rng(seed)
    w_true = rng.standard_normal(dim)
    x = np.eye(dim)
    train = FederatedData.stack([LocalDataset(x, x @ w_true)])
    val = LocalDataset(x, x @ w_true)
    test = LocalDataset(x, x @ w_true)
    return train, val, test, w_true


def test_select_rounds_single_candidate():
    train, val, test, _ = _identity_problem()
    sel = select_rounds([5], train, val, test, linear_cfg(), np.random.default_rng(0),
                        ModelVector(np.zeros(4)))
    assert sel.best_rounds == 5


def test_select_rounds_strict_improvement_returns_largest():
    train, val, test, _ = _identity_problem(seed=9)
    cfg = linear_cfg(learning_rate=1.0)  # contraction 0.75 per round at lr=1, features=I, n=4
    sel = select_rounds([1, 2, 4, 8], train, val, test, cfg, np.random.default_rng(0),
                        ModelVector(np.zeros(4)))
    metrics = [row["val_metric"] for row in sel.table]
    assert all(a > b for a, b in zip(metrics, metrics[1:]))
    assert sel.best_rounds == 8


def test_select_rounds_plateau_ties_to_smallest():
    """Contraction 2e-5 per round pushes the validation loss below the
    12-decimal comparison floor from round 2 on; the tie must resolve to
    the cheapest budget."""
    dim = 4
    train, val, test, _ = _identity_problem(dim=dim, seed=11)
    lr = dim * (1.0 - 2e-5)
    cfg = linear_cfg(learning_rate=lr)
    sel = select_rounds([1, 2, 3, 4], train, val, test, cfg, np.random.default_rng(0),
                        ModelVector(np.zeros(dim)))
    metrics = [round(row["val_metric"], 12) for row in sel.table]
    assert metrics[0] > metrics[1]
    assert metrics[1] == metrics[2] == metrics[3]
    assert sel.best_rounds == 2


def test_select_rounds_validation():
    train, val, test, _ = _identity_problem()
    w0 = ModelVector(np.zeros(4))
    with pytest.raises(ValueError):
        select_rounds([], train, val, test, linear_cfg(), np.random.default_rng(0), w0)
    with pytest.raises(ValueError):
        select_rounds([4, 2], train, val, test, linear_cfg(), np.random.default_rng(0), w0)
    with pytest.raises(ValueError):
        select_rounds([0, 1], train, val, test, linear_cfg(), np.random.default_rng(0), w0)


def test_make_federated_problem_shapes_and_shared_weight():
    rng = np.random.default_rng(30)
    train, val, test, w_true = make_federated_problem(
        rng, "logistic", n_devices=3, samples_per_device=10, dim=5, noise=0.0,
        val_samples=20, test_samples=30,
    )
    assert len(train) == 3
    assert all(s.count == 10 and s.dim == 5 for s in train)
    assert val.count == 20 and test.count == 30
    # Noise-free labels must agree with the planted separator everywhere.
    for s in [*train, val, test]:
        assert np.array_equal(s.targets, (s.features @ w_true > 0).astype(float))


def test_make_federated_problem_label_flips():
    rng = np.random.default_rng(32)
    train, _, _, w_true = make_federated_problem(
        rng, "logistic", n_devices=1, samples_per_device=4000, dim=3, noise=0.2,
        val_samples=2, test_samples=2,
    )
    clean = (train[0].features @ w_true > 0).astype(float)
    flip_rate = float(np.mean(clean != train[0].targets))
    assert 0.15 < flip_rate < 0.25
