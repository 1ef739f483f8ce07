"""Federated training core: losses, gradients, rounds, the round-budget tie rule."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

import oracles
from swiptfl import fl_core
from swiptfl.fl_core import (
    FederatedData,
    TrainerConfig,
    best_budget,
    check_candidates,
    evaluate_metric,
    global_loss,
    make_federated_problem,
    minibatch_draws,
    run_round,
)


def linear_cfg(**kw):
    base = dict(learning_rate=0.1, task="linear", batch_size=None)
    base.update(kw)
    return TrainerConfig(**base)


def one_set(x, y):
    """The (n, d) features and (n,) targets of one dataset as a stack of one."""
    return FederatedData(x[None], y[None])


def stacked(sets):
    """Stacks of one, all of one size, joined into one FederatedData, one set each."""
    return FederatedData(np.concatenate([s.features for s in sets]),
                         np.concatenate([s.targets for s in sets]))


def test_local_loss_zero_at_interpolation():
    x = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    w = np.array([2.0, -1.0])
    data = one_set(x, x @ w)
    assert global_loss(w[None], data, "linear")[0] == 0.0


def test_local_loss_single_sample():
    data = one_set(np.array([[1.0]]), np.array([2.0]))
    assert global_loss(np.array([[0.0]]), data, "linear")[0] == 2.0


def test_local_loss_duplication_invariant():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((6, 3))
    y = rng.standard_normal(6)
    w = rng.standard_normal(3)[None]
    once = global_loss(w, one_set(x, y), "linear")[0]
    twice = global_loss(w, one_set(np.vstack([x, x]), np.concatenate([y, y])), "linear")[0]
    assert twice == pytest.approx(once, rel=1e-15)


# Where log(1 + e^z) crosses from log 2 + z/2 to z or to e^z, where e^-|z|
# turns subnormal (|z| > 708.4) or zero (|z| > 745), and the non-finite inputs.
SOFTPLUS_EDGES = [0.0, -0.0, 1e-300, -1e-300, 36.7, -36.7, 709.78, -709.78, 710.0, -710.0,
                  1e308, -1e308, math.inf, -math.inf, math.nan]


@pytest.mark.parametrize("scale", [1e-8, 1.0, 5.0, 30.0, 300.0, None], ids=str)
def test_softplus_is_logaddexp_within_3_ulp(scale):
    """The logistic loss's softplus term, max(z, 0) + log1p(e^-|z|), lies
    within 3 ulp of ``np.logaddexp(0, z)`` on 10^6 standard-normal draws at
    each scale and on the edge values (``None``), with inf and nan at the same
    positions, and raises no numpy warning, nan included, where
    ``np.logaddexp`` warns "invalid value"."""
    rng = np.random.default_rng(60)
    z = np.array(SOFTPLUS_EDGES) if scale is None else scale * rng.standard_normal(10**6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = fl_core._softplus(z)
    with np.errstate(invalid="ignore"):
        want = np.logaddexp(0.0, z)
    for special in (np.isnan, np.isposinf, np.isneginf):
        assert np.array_equal(special(got), special(want))
    finite = np.isfinite(want)
    gap = np.abs(got[finite] - want[finite])
    assert (gap <= 3 * np.spacing(np.abs(want[finite]))).all(), np.max(gap)


def test_global_loss_rejects_unknown_task():
    data = one_set(np.array([[1.0]]), np.array([1.0]))
    with pytest.raises(ValueError, match="unknown task 'bogus'"):
        global_loss(np.array([[0.5]]), data, "bogus")


ONE_DEVICE = one_set(np.eye(2), np.ones(2))  # two samples, d = 2
NOT_A_BLOCK = r"models must be a \(T, d\) block"
WRONG_DIM = "model dim 3 != feature dim 2"


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: linear_cfg(task="bogus"), "task must be one of"),
        (lambda: global_loss(np.zeros(2), ONE_DEVICE, "linear"), NOT_A_BLOCK),
        (lambda: global_loss(np.zeros((1, 3)), ONE_DEVICE, "linear"), WRONG_DIM),
        (lambda: run_round(np.zeros(2), ONE_DEVICE, linear_cfg(), 1), NOT_A_BLOCK),
        (lambda: run_round(np.zeros((1, 3)), ONE_DEVICE, linear_cfg(), 1), WRONG_DIM),
        (
            lambda: run_round(
                np.zeros((1, 2)), ONE_DEVICE, linear_cfg(), 1, participate=np.ones((2, 1), bool)
            ),
            r"participate must have shape \(1, 1\)",
        ),
        (
            lambda: make_federated_problem(np.random.default_rng(0), "bogus", 2, 3, 2, 0.1, 4, 4),
            "unknown task 'bogus'",
        ),
    ],
    ids=[
        "trainer-task",
        "loss-not-a-block",
        "loss-dim",
        "round-not-a-block",
        "round-dim",
        "round-participate-shape",
        "problem-task",
    ],
)
def test_malformed_arguments_raise_value_error(call, match):
    """Each argument check raises a ValueError that names what is wrong."""
    with pytest.raises(ValueError, match=match):
        call()


def test_global_loss_single_device_equals_local():
    rng = np.random.default_rng(4)
    x, y = rng.standard_normal((5, 2)), rng.standard_normal(5)
    w = rng.standard_normal(2)[None]
    assert global_loss(w, one_set(x, y), "linear")[0] == pytest.approx(
        oracles.pooled_loss(w[0], [x], [y], "linear"), rel=1e-15
    )


def test_global_loss_equal_sizes_is_plain_mean():
    rng = np.random.default_rng(6)
    sets = [one_set(rng.standard_normal((4, 2)), rng.standard_normal(4)) for _ in range(2)]
    w = rng.standard_normal(2)[None]
    mean = 0.5 * (global_loss(w, sets[0], "linear")[0] + global_loss(w, sets[1], "linear")[0])
    assert global_loss(w, stacked(sets), "linear")[0] == pytest.approx(mean, rel=1e-14)


def test_global_loss_weighted_identity():
    """Pooled objective equals the data-size-weighted mean of local means;
    devices of unequal size are pooled into one dataset."""
    rng = np.random.default_rng(8)
    for task in ("linear", "logistic"):
        sizes = (1, 2, 3)
        if task == "logistic":
            sets = [
                one_set(rng.standard_normal((n, 3)), rng.integers(0, 2, n).astype(float))
                for n in sizes
            ]
        else:
            sets = [one_set(rng.standard_normal((n, 3)), rng.standard_normal(n)) for n in sizes]
        w = rng.standard_normal(3)[None]
        features, targets = [s.features[0] for s in sets], [s.targets[0] for s in sets]
        pooled = one_set(np.vstack(features), np.concatenate(targets))
        weighted = sum(n * global_loss(w, s, task)[0] for n, s in zip(sizes, sets)) / sum(sizes)
        assert global_loss(w, pooled, task)[0] == pytest.approx(weighted, rel=1e-12)
        ref = oracles.pooled_loss(w[0], features, targets, task)
        assert global_loss(w, pooled, task)[0] == pytest.approx(ref, rel=1e-12)


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(10)
    for task in ("linear", "logistic"):
        for _ in range(25):
            d = int(rng.integers(1, 6))
            n = int(rng.integers(1, 8))
            x = rng.standard_normal((n, d))
            y = rng.integers(0, 2, n).astype(float) if task == "logistic" else rng.standard_normal(n)
            data = one_set(x, y)
            w = rng.standard_normal(d)
            grad = fl_core._gradients(w[None], x[None], y[None], task)[0]
            fd = oracles.fd_gradient(lambda v: global_loss(v[None], data, task)[0], w)
            assert np.linalg.norm(grad - fd) <= 1e-5 * max(1.0, np.linalg.norm(grad))


def test_run_round_single_step_matches_fd_oracle():
    rng = np.random.default_rng(14)
    data = one_set(rng.standard_normal((8, 4)), rng.standard_normal(8))
    w0 = rng.standard_normal(4)
    lr = 0.07
    out = run_round(w0[None], data, linear_cfg(learning_rate=lr), 1).models[0]
    fd = oracles.fd_gradient(lambda v: global_loss(v[None], data, "linear")[0], w0)
    expected = w0 - lr * fd
    assert np.max(np.abs(out - expected) / np.maximum(1e-8, np.abs(expected))) <= 1e-5


def test_descent_below_lipschitz_rate_never_increases_loss():
    rng = np.random.default_rng(16)
    x = rng.standard_normal((20, 5))
    y = rng.standard_normal(20)
    data = one_set(x, y)
    lr = 0.9 / oracles.lipschitz_sq_loss(x)
    w = rng.standard_normal(5)[None]
    losses = [global_loss(w, data, "linear")[0]]
    for _ in range(15):
        w = run_round(w, data, linear_cfg(learning_rate=lr), 1).models
        losses.append(global_loss(w, data, "linear")[0])
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


@pytest.mark.parametrize("task", ["linear", "logistic"])
def test_run_round_device_order_does_not_change_the_model(task):
    """Each coordinate of the aggregate is a correctly rounded sum, so
    presenting the devices in another order gives the same global models
    bit for bit, and so does a repeated call."""
    data, w0, rng = _block_problem(task, m=6, n=5, dim=4, trials=3, seed=20)
    participate = rng.random((3, 6)) < 0.7
    cfg = TrainerConfig(learning_rate=0.3, task=task)
    out = run_round(w0, data, cfg, 3, participate=participate)
    assert np.array_equal(out.models, run_round(w0, data, cfg, 3, participate=participate).models)
    for _ in range(5):
        perm = rng.permutation(6)
        shuffled = FederatedData(data.features[perm], data.targets[perm])
        moved = run_round(w0, shuffled, cfg, 3, participate=participate[:, perm])
        assert np.array_equal(moved.models, out.models)


@pytest.mark.parametrize("task", ["linear", "logistic"])
def test_run_round_single_participant_matches_local_gd(task):
    """With one device taking part, the new global model is that device's
    local model."""
    data, w0, _ = _block_problem(task, m=4, n=6, dim=3, trials=1, seed=19)
    cfg = TrainerConfig(learning_rate=0.2, task=task)
    participate = np.array([[False, False, True, False]])
    out = run_round(w0, data, cfg, 3, participate=participate).models[0]
    expected = oracles.local_gd(w0[0], data.features[2], data.targets[2], task, 0.2, 3)
    assert np.max(np.abs(out - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_federated_data_rejects_unequal_sizes():
    with pytest.raises(ValueError, match=r"targets \(M, n\)"):
        FederatedData(np.zeros((2, 3, 2)), np.zeros((2, 4)))
    data = FederatedData(np.zeros((2, 3, 2)), np.zeros((2, 3)))
    assert data.features.shape == (2, 3, 2) and (data.count, data.dim) == (3, 2)
    with pytest.raises(ValueError, match="must be finite"):
        FederatedData(np.full((1, 2, 2), np.nan), np.zeros((1, 2)))
    with pytest.raises(ValueError, match="at least one set, one sample"):
        FederatedData(np.zeros((1, 0, 2)), np.zeros((1, 0)))


def streams_draws(seeds, local_iters, data):
    """One round's minibatch uniforms, (T, local_iters, M, n), from one
    ``default_rng(seed)`` per trial."""
    rngs = [np.random.default_rng(seed) for seed in seeds]
    return minibatch_draws(rngs, 1, local_iters, data.targets.shape)[:, 0]


def test_run_round_deterministic_given_streams():
    rng = np.random.default_rng(22)
    sets = [one_set(rng.standard_normal((6, 3)), rng.standard_normal(6)) for _ in range(3)]
    data = stacked(sets)
    w0 = rng.standard_normal(3)[None]
    cfg = linear_cfg(batch_size=2)
    out1 = run_round(w0, data, cfg, 3, streams_draws([99], 3, data))
    out2 = run_round(w0, data, cfg, 3, streams_draws([99], 3, data))
    assert np.array_equal(out1.models, out2.models)


@pytest.mark.parametrize(
    "draws, got",
    [
        (None, "none"),
        (np.zeros((1, 3, 3)), r"\(1, 3, 3\)"),
        (np.zeros((2, 3, 3, 6)), r"\(2, 3, 3, 6\)"),
    ],
    ids=["missing", "too-few-axes", "too-many-trials"],
)
def test_minibatch_round_without_its_draws_names_their_shape(draws, got):
    """Minibatch training with missing or wrongly shaped uniforms raises a
    ValueError that names the (T, local_iters, M, n) shape it needs."""
    data = stacked([one_set(np.ones((6, 2)), np.ones(6)) for _ in range(3)])
    with pytest.raises(ValueError, match=rf"draws of shape \(1, 3, 3, 6\), got {got}$"):
        run_round(np.zeros((1, 2)), data, linear_cfg(batch_size=2), 3, draws)


def test_minibatch_draws_are_successive_random_calls():
    """Each trial's uniforms are, bit for bit, what successive ``random((M, n))``
    calls on its generator give, round-major and then local iteration,
    whatever the number of rounds drawn at once."""
    rngs = [np.random.default_rng(seed) for seed in (3, 4)]
    chunks = [minibatch_draws(rngs, rounds, 2, (3, 5)) for rounds in (1, 3, 2)]
    whole = np.concatenate(chunks, axis=1)
    assert whole.shape == (2, 6, 2, 3, 5)
    for seed, rows in zip((3, 4), whole):
        twin = np.random.default_rng(seed)
        want = [twin.random((3, 5)) for _ in range(12)]
        assert rows.reshape(12, 3, 5).tobytes() == np.array(want).tobytes()


def test_run_round_nobody_participates_keeps_global():
    rng = np.random.default_rng(24)
    sets = [one_set(rng.standard_normal((4, 2)), rng.standard_normal(4)) for _ in range(2)]
    w0 = rng.standard_normal(2)[None]
    out = run_round(w0, stacked(sets), linear_cfg(), 1, participate=np.zeros((1, 2), bool))
    assert np.array_equal(out.models, w0) and out.errors == {}


def test_run_round_centralized_equivalence_small():
    rng = np.random.default_rng(26)
    x, y = rng.standard_normal((4, 5, 3)), rng.standard_normal((4, 5))
    w0 = rng.standard_normal(3)
    lr = 0.05
    out = run_round(w0[None], FederatedData(x, y), linear_cfg(learning_rate=lr), 1).models[0]
    ref = oracles.centralized_step(w0, list(x), list(y), lr, "linear")
    assert np.linalg.norm(out - ref) <= 1e-9 * max(1.0, np.linalg.norm(ref))


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
    cfg = TrainerConfig(learning_rate=lr, task=task, batch_size=batch_size)

    data = FederatedData(x, y)
    out = run_round(
        w0[None], data, cfg, iters, streams_draws([seed], iters, data), participate[None]
    ).models[0]

    draws = np.random.default_rng(seed)
    orders = [np.argsort(draws.random((m, n)), axis=1) for _ in range(iters)]
    acc, total = np.zeros(dim), 0.0
    for i in np.flatnonzero(participate):
        batches = None if batch_size is None else [order[i, :batch_size] for order in orders]
        acc += n * oracles.local_gd(w0, x[i], y[i], task, lr, iters, batches)
        total += n
    expected = acc / total
    assert np.max(np.abs(out - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_moments_round_matches_local_gd_and_fsum_oracles():
    """Linear full-batch rounds step on each set's moments A w - b; the new
    models equal the sample-by-sample trainer followed by the per-trial
    math.fsum average, under a mask that leaves out other devices in each
    trial, and the trial with no participant keeps its model bit for bit."""
    data, w0, _ = _block_problem("linear", m=5, n=7, dim=3, trials=3, seed=38)
    participate = np.array([[True, False, True, True, False],
                            [False, True, False, True, True],
                            [False] * 5])
    lr, iters, n = 0.2, 2, data.count
    out = run_round(w0, data, linear_cfg(learning_rate=lr), iters, participate=participate)
    trial, device = np.nonzero(participate)
    local = [oracles.local_gd(w0[t], data.features[j], data.targets[j], "linear", lr, iters)
             for t, j in zip(trial, device)]
    want, overflowed = oracles.fsum_aggregate(w0, n * np.array(local), trial, n)
    assert out.errors == {} and overflowed == set()
    assert np.max(np.abs(out.models - want) / np.abs(want)) <= 1e-12
    assert out.models[2].tobytes() == w0[2].tobytes()


def test_device_sitting_out_cannot_fail_the_round():
    """A device whose gradient step overflows fails its trial only when it trains."""
    rng = np.random.default_rng(36)
    x = rng.standard_normal((3, 5, 2))
    x[1] *= 1e200
    y = rng.standard_normal((3, 5))
    w0 = rng.standard_normal(2)[None]
    cfg = linear_cfg()
    with np.errstate(over="ignore", invalid="ignore"):
        failed = run_round(w0, FederatedData(x, y), cfg, 2)
    assert list(failed.errors) == [0] and np.array_equal(failed.models, w0)
    participate = np.array([[True, False, True]])
    masked = run_round(w0, FederatedData(x, y), cfg, 2, participate=participate)
    without = run_round(w0, FederatedData(x[[0, 2]], y[[0, 2]]), cfg, 2)
    assert masked.errors == {} and np.array_equal(masked.models, without.models)


def test_divergence_raises():
    """Divergence comes back as the trial's entry in ``BlockRound.errors``."""
    rng = np.random.default_rng(28)
    data = one_set(rng.standard_normal((5, 3)), rng.standard_normal(5))
    out = run_round(rng.standard_normal(3)[None], data,
                    linear_cfg(learning_rate=1e200), 50)
    assert list(out.errors) == [0]
    assert out.errors[0].startswith(("non-finite gradient", "parameters overflowed"))


def _block_problem(task, m, n, dim, trials, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((m, n, dim))
    y = rng.standard_normal((m, n)) if task == "linear" else rng.integers(0, 2, (m, n)) * 1.0
    return FederatedData(x, y), rng.standard_normal((trials, dim)), rng


@pytest.mark.parametrize("task", ["linear", "logistic"])
@pytest.mark.parametrize("batch_size", [None, 3])
def test_block_round_equals_per_trial_calls(task, batch_size):
    """A block of T trials trains exactly as T one-trial calls: per-trial
    streams and participation masks, and a trial where nobody participates
    comes back unchanged."""
    data, w0, rng = _block_problem(task, m=5, n=7, dim=4, trials=6, seed=40)
    participate = rng.random((6, 5)) < 0.6
    participate[2] = False
    participate[4] = True
    cfg = TrainerConfig(learning_rate=0.3, task=task, batch_size=batch_size)

    def streams(trials):
        return streams_draws([100 + t for t in trials], 3, data)

    block = run_round(w0, data, cfg, 3, streams(range(6)), participate)
    assert block.errors == {}
    assert np.array_equal(block.models[2], w0[2])
    for t in range(6):
        alone = run_round(w0[t : t + 1], data, cfg, 3, streams([t]), participate[t : t + 1])
        assert np.array_equal(block.models[t], alone.models[0]), t


@pytest.mark.parametrize("m, n, dim, trials", [(50, 20, 4, 2), (5, 30, 16, 10), (10, 20, 4, 7)])
def test_block_evaluation_equals_per_model_calls(m, n, dim, trials):
    """One evaluation pass over (T, d) models gives, bit for bit, each
    model's own call: on stacked training sets and on pooled datasets."""
    for task in ("linear", "logistic"):
        data, w, _ = _block_problem(task, m, n, dim, trials, seed=42)
        w = 3.0 * w
        pooled = one_set(data.features.reshape(-1, dim), data.targets.reshape(-1))
        for fn, dataset in ((global_loss, data), (global_loss, pooled), (evaluate_metric, pooled)):
            block = fn(w, dataset, task)
            assert block.shape == (trials,)
            singles = [fn(w[t : t + 1], dataset, task)[0] for t in range(trials)]
            assert np.array_equal(block, singles), (fn.__name__, task)


@pytest.mark.parametrize("batch_size", [None, 3])
def test_diverging_trial_fails_alone(batch_size):
    """A trial whose gradient or parameters blow up is reported with its
    lone-trial message and keeps its input model; the other trials match
    their one-trial rounds bit for bit. Trials 3 and 1 leave the batch
    after local iterations 0 and 1, so minibatch rows drop out mid-round."""
    data, w0, _ = _block_problem("linear", m=4, n=6, dim=3, trials=5, seed=44)
    data = FederatedData(data.features * np.array([1e200, 1, 1, 1])[:, None, None], data.targets)
    participate = np.ones((5, 4), dtype=bool)
    participate[:, 0] = False
    participate[3, 0] = True  # only trial 3 trains the device whose gradient overflows
    w0[1] *= 1e200  # each step multiplies |w| by about the rate: trial 1 leaves the floats
    cfg = linear_cfg(learning_rate=1e60, batch_size=batch_size)

    def streams(trials):
        return streams_draws([200 + t for t in trials], 3, data)

    with np.errstate(over="ignore", invalid="ignore"):
        block = run_round(w0, data, cfg, 3, streams(range(5)), participate)
        alone = [
            run_round(w0[t : t + 1], data, cfg, 3, streams([t]), participate[t : t + 1])
            for t in range(5)
        ]
    assert block.errors == {1: alone[1].errors[0], 3: alone[3].errors[0]}
    assert block.errors[1] == "parameters overflowed at local iteration 1"
    assert block.errors[3] == (
        f"non-finite gradient at local iteration 0 (|w|={np.max(np.abs(w0[3])):.3e})"
    )
    assert np.array_equal(block.models[[1, 3]], w0[[1, 3]])
    for t in (0, 2, 4):
        assert alone[t].errors == {}
        assert np.array_equal(block.models[t], alone[t].models[0]), t


def test_aggregate_overflow_fails_its_trial_alone():
    """Local models that stay finite but whose size-weighted sum at the
    server overflows fail their trial as a divergence, with no exception and
    no numpy warning; the trial keeps its input model and the others their
    bits. Near 1e307 the exact sum overflows; at a rate of 1e308 some
    weighted rows themselves overflow to inf or -inf."""
    data, w0, _ = _block_problem("logistic", m=4, n=6, dim=3, trials=3, seed=46)
    w0[1] *= 1e307 / np.max(np.abs(w0[1]))
    cfg = TrainerConfig(learning_rate=0.1, task="logistic")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        block = run_round(w0, data, cfg, 1)
        alone = [run_round(w0[t : t + 1], data, cfg, 1) for t in range(3)]
        huge = run_round(w0[[0, 2]], data, replace(cfg, learning_rate=1e308), 1)
    assert block.errors == {1: "aggregated model overflowed"} == {1: alone[1].errors[0]}
    assert np.array_equal(block.models[1], w0[1])
    for t in (0, 2):
        assert alone[t].errors == {}
        assert np.array_equal(block.models[t], alone[t].models[0]), t
    assert huge.errors == dict.fromkeys([0, 1], "aggregated model overflowed")
    assert np.array_equal(huge.models, w0[[0, 2]])


def _count_fallbacks(monkeypatch):
    """A list that gains one entry each time the server sums fall back to math.fsum."""
    calls, real = [], fl_core._fsum_sums

    def fsum_sums(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(fl_core, "_fsum_sums", fsum_sums)
    return calls


def _fsum_reference(block, present):
    """Each trial's math.fsum of its present rows of a (T, M, d) block, per
    coordinate, and 0.0 for a trial with none; a trial where some
    coordinate's fsum raises (an overflow, or inf and -inf) is inf throughout."""
    sums = []
    for rows, mask in zip(block.tolist(), present.tolist()):
        kept = [row for row, on in zip(rows, mask) if on] or [[0.0] * block.shape[2]]
        try:
            sums.append([math.fsum(column) for column in zip(*kept)])
        except (OverflowError, ValueError):
            sums.append([math.inf] * block.shape[2])
    return np.array(sums)


def _sums_of(block, present=None):
    """The server sums of the present rows of a (T, M, d) block (all by default)."""
    block = np.asarray(block, dtype=float)
    present = np.ones(block.shape[:2], bool) if present is None else np.asarray(present)
    trial, device = np.nonzero(present)
    return fl_core._server_sums(block[trial, device], trial, device, present.shape), present


def _column(*values):
    """A one-trial block of one coordinate: one device per value."""
    return [[[v] for v in values]]


_NO_PARTICIPANT = np.array([[True, True], [False, False], [True, False]])

_SUM_CASES = {
    # 1 + 2^-53 and 1 + 3 * 2^-53 lie halfway between two floats.
    "ties to even, down": (_column(1.0, 2.0**-53), None, "exact"),
    "ties to even, up": (_column(1 + 2.0**-52, 2.0**-53), None, "exact"),
    # 2^-105 sits below the second grid and breaks the tie upward.
    "sticky bit below the second extraction": (_column(1.0, 2.0**-53, 2.0**-105), None, "fsum"),
    "cancellation to a tiny sum": ([[[0.1, 1.0], [0.2, 2.0**-60], [-0.3, -1.0]]], None, "exact"),
    "cancellation to exactly zero": (_column(1.5, -1.5, 0.25, -0.25), None, "exact"),
    "a column of -0.0": ([[[-0.0, 1.0], [-0.0, 2.0]]], None, "exact"),  # fsum gives +0.0
    "largest magnitude 2^-900": (_column(2.0**-900, 3 * 2.0**-960), None, "exact"),
    "largest magnitude below 2^-900": (_column(2.0**-901, 2.0**-950), None, "fsum"),
    "a subnormal below the second grid": (_column(2.0**-900, 2.0**-1074), None, "fsum"),
    "largest magnitude below 2^(1020 - g)": (_column(1.5 * 2.0**1015, -(2.0**1000)), None, "exact"),
    "largest magnitude near overflow": (_column(1e308, -1e308, 5.0), None, "fsum"),
    "an overflowing sum": (_column(1e308, 1e308), None, "fsum"),
    "an inf row": ([[[math.inf, 1.0], [1.0, 2.0]], [[1.0, 2.0], [3.0, 4.0]]], None, "fsum"),
    "inf and -inf rows": ([[[math.inf], [-math.inf]], [[1.0], [2.0]]], None, "fsum"),
    "a trial with no participant": (
        np.random.default_rng(50).standard_normal((3, 2, 2)), _NO_PARTICIPANT, "exact",
    ),
}


@pytest.mark.parametrize("case", list(_SUM_CASES))
def test_server_sums_equal_fsum_bit_for_bit(case, monkeypatch):
    """The server's per-trial sums are math.fsum's, sign bit included, on
    the cases that decide a correctly rounded sum, each taking the branch it
    should: the exact array sum, or the fsum loop when a term has bits below
    the second extraction or the block's largest magnitude is out of range
    or not finite. Where fsum raises, the trial's sums are inf."""
    block, present, branch = _SUM_CASES[case]
    fallbacks = _count_fallbacks(monkeypatch)
    got, present = _sums_of(block, present)
    want = _fsum_reference(np.asarray(block, dtype=float), present)
    assert got.tobytes() == want.tobytes(), (got, want)
    assert ("fsum" if fallbacks else "exact") == branch


def test_server_sums_equal_fsum_on_random_blocks(monkeypatch):
    """Random blocks of terms of every sign and of exponents spread over
    ranges from 1 to 200 binades, with random rows present: every sum is
    math.fsum's, bit for bit, on both branches, and both are taken."""
    rng = np.random.default_rng(52)
    fallbacks, taken = _count_fallbacks(monkeypatch), []
    for _ in range(300):
        t_count, m, dim = rng.integers(1, 5), rng.integers(1, 10), rng.integers(1, 5)
        spread = rng.integers(1, 200)
        exponents = rng.integers(-spread // 2, spread // 2 + 1, (t_count, m, dim))
        block = rng.uniform(-2, 2, (t_count, m, dim)) * 2.0**exponents
        present = rng.random((t_count, m)) < 0.8
        before = len(fallbacks)
        got, _ = _sums_of(block, present)
        assert got.tobytes() == _fsum_reference(block, present).tobytes()
        taken.append(len(fallbacks) > before)
    assert any(taken) and not all(taken)


@pytest.mark.parametrize("task", ["linear", "logistic"])
@pytest.mark.parametrize("batch_size", [None, 3])
def test_run_round_aggregate_matches_fsum_oracle(task, batch_size, monkeypatch):
    """run_round's new models are, bit for bit, the per-trial math.fsum
    average of the weighted rows it trained, on random blocks under random
    participation masks; a trial with no participant keeps its model, and so
    does a trial whose aggregate overflows. The trials' models span 40
    orders of magnitude, some reach 1e308 / n, so some blocks' sums fall back
    to math.fsum and the others take the exact array sum."""
    rows, real = [], fl_core._server_sums

    def server_sums(weighted, trial, device, shape):
        rows.append((weighted.copy(), trial.copy()))
        return real(weighted, trial, device, shape)

    monkeypatch.setattr(fl_core, "_server_sums", server_sums)
    fallbacks, taken = _count_fallbacks(monkeypatch), []
    rng = np.random.default_rng(54)
    for _ in range(12):
        t_count, m, n, dim = rng.integers(1, 7), rng.integers(1, 8), rng.integers(4, 9), 3
        data, w0, _ = _block_problem(task, m, n, dim, t_count, seed=int(rng.integers(1000)))
        w0 *= 10.0 ** rng.uniform(-20, 20, (t_count, 1))
        if rng.random() < 0.5:  # trial 0's weighted rows near 1e308: their sum overflows
            w0[0] = 1e308 / n * (w0[0] / np.max(np.abs(w0[0])))
        participate = rng.random((t_count, m)) < 0.7
        cfg = TrainerConfig(learning_rate=0.1, task=task, batch_size=batch_size)
        streams = streams_draws(range(t_count), 2, data)
        before = len(fallbacks)
        out = run_round(w0, data, cfg, 2, streams, participate)
        taken.append(len(fallbacks) > before)
        want, overflowed = oracles.fsum_aggregate(w0, *rows[-1], n)
        assert out.models.tobytes() == want.tobytes()
        overflows = {k for k, e in out.errors.items() if e == "aggregated model overflowed"}
        assert overflowed == overflows
    assert any(taken) and not all(taken)


def test_logistic_training_of_a_confident_model_warns_nothing():
    """e^-z overflows where a model is confident; the sigmoid there is its
    limit 0, so the round runs without a numpy warning."""
    data, w0, _ = _block_problem("logistic", m=5, n=30, dim=16, trials=4, seed=48)
    w0 *= 300.0  # |x . w| well past 709, where e^|z| overflows
    cfg = TrainerConfig(learning_rate=1000.0, task="logistic", batch_size=8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        step = run_round(w0, data, cfg, 2, streams_draws(range(4), 2, data))
    assert step.errors == {} and np.isfinite(step.models).all()


def test_evaluate_metric_semantics():
    x = np.array([[1.0], [-1.0], [2.0]])
    y = np.array([1.0, 0.0, 1.0])
    data = one_set(x, y)
    assert evaluate_metric(np.array([[1.0], [-1.0]]), data, "logistic").tolist() == [1.0, 0.0]
    lin = one_set(np.array([[1.0]]), np.array([2.0]))
    assert evaluate_metric(np.array([[0.0]]), lin, "linear").tolist() == [2.0]


def _identity_problem(dim=4, seed=7):
    """One device whose features form the identity, as training and val
    sets, so a full-batch step at the right rate contracts the error by an
    exact chosen factor."""
    rng = np.random.default_rng(seed)
    w_true = rng.standard_normal(dim)
    x = np.eye(dim)
    return one_set(x, x @ w_true), one_set(x, x @ w_true)


def val_metrics(candidates, train, val, cfg, w0):
    """The val metric of one model trained from ``w0`` as a block of one
    trial, one local iteration a round, at each candidate round budget."""
    w, metrics = np.asarray(w0, dtype=float)[None], []
    for r in range(1, candidates[-1] + 1):
        w = run_round(w, train, cfg, 1).models
        if r in candidates:
            metrics.append(float(evaluate_metric(w, val, cfg.task)[0]))
    return metrics


def test_select_rounds_single_candidate():
    train, val = _identity_problem()
    metrics = val_metrics([5], train, val, linear_cfg(), np.zeros(4))
    assert best_budget(metrics, "linear") == 0


def test_select_rounds_strict_improvement_returns_largest():
    train, val = _identity_problem(seed=9)
    cfg = linear_cfg(learning_rate=1.0)  # contraction 0.75 per round at lr=1, features=I, n=4
    candidates = [1, 2, 4, 8]
    metrics = val_metrics(candidates, train, val, cfg, np.zeros(4))
    assert all(a > b for a, b in zip(metrics, metrics[1:]))
    assert candidates[best_budget(metrics, "linear")] == 8


def test_select_rounds_plateau_ties_to_smallest():
    """Contraction 2e-5 per round pushes the validation loss below the
    12-decimal comparison floor from round 2 on; the tie must resolve to
    the cheapest budget."""
    dim = 4
    train, val = _identity_problem(dim=dim, seed=11)
    lr = dim * (1.0 - 2e-5)
    cfg = linear_cfg(learning_rate=lr)
    candidates = [1, 2, 3, 4]
    metrics = val_metrics(candidates, train, val, cfg, np.zeros(dim))
    rounded = [round(metric, 12) for metric in metrics]
    assert rounded[0] > rounded[1]
    assert rounded[1] == rounded[2] == rounded[3]
    assert candidates[best_budget(metrics, "linear")] == 2


def test_select_rounds_validation():
    with pytest.raises(ValueError):
        check_candidates([])
    with pytest.raises(ValueError):
        check_candidates([4, 2])
    with pytest.raises(ValueError):
        check_candidates([0, 1])


def test_make_federated_problem_shapes_and_shared_weight():
    rng = np.random.default_rng(30)
    train, val, test, w_true = make_federated_problem(
        rng, "logistic", n_devices=3, samples_per_device=10, dim=5, noise=0.0,
        val_samples=20, test_samples=30,
    )
    assert train.features.shape[0] == 3
    assert train.count == 10 and train.dim == 5
    assert val.features.shape == (1, 20, 5) and test.features.shape == (1, 30, 5)
    # Noise-free labels must agree with the planted separator everywhere.
    for s in [train, val, test]:
        assert np.array_equal(s.targets, (s.features @ w_true > 0).astype(float))


def test_make_federated_problem_label_flips():
    rng = np.random.default_rng(32)
    train, _, _, w_true = make_federated_problem(
        rng, "logistic", n_devices=1, samples_per_device=4000, dim=3, noise=0.2,
        val_samples=2, test_samples=2,
    )
    clean = (train.features[0] @ w_true > 0).astype(float)
    flip_rate = float(np.mean(clean != train.targets[0]))
    assert 0.15 < flip_rate < 0.25


@pytest.mark.parametrize("task", ["linear", "logistic"])
def test_make_federated_problem_is_the_per_device_recipe(task):
    """The stacked training sets, the val and test sets (stacks of one),
    ``w_true`` and the generator's final state equal those of drawing
    ``w_true`` and then calling the task's per-device recipe in
    ``oracles`` once per device, then for val and test, on a twin
    generator, bit for bit; the stacked arrays are C-contiguous."""
    maker = oracles.make_linear_data if task == "linear" else oracles.make_logistic_data
    for m, n, dim, noise in [(1, 1, 1, 0.0), (4, 7, 3, 0.3), (9, 1, 5, 0.1), (3, 6, 1, 0.5)]:
        rng, twin = np.random.default_rng(m * n * dim), np.random.default_rng(m * n * dim)
        train, val, test, w_true = make_federated_problem(rng, task, m, n, dim, noise, 5, 8, 1.5)
        w_twin = 1.5 * twin.standard_normal(dim)
        devices = [maker(twin, n, w_twin, noise) for _ in range(m)]
        expected = [
            [np.stack(part) for part in zip(*devices)],
            [part[None] for part in maker(twin, 5, w_twin, noise)],
            [part[None] for part in maker(twin, 8, w_twin, noise)],
        ]
        for got, (x, y) in zip([train, val, test], expected):
            assert got.features.shape == x.shape and got.targets.shape == y.shape
            assert got.features.tobytes() == x.tobytes()
            assert got.targets.tobytes() == y.tobytes()
        assert w_true.tobytes() == w_twin.tobytes()
        assert rng.bit_generator.state == twin.bit_generator.state
        assert train.features.flags.c_contiguous and train.targets.flags.c_contiguous
