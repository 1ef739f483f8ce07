"""Scenario assembly, trial reproducibility, battery ledger, and sweeps."""

import importlib.util
import math
import pickle
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import oracles
from swiptfl import channel
from swiptfl import optimizer as optimizer_module
from swiptfl.channel import DELTA_MAX, DELTA_MIN, ChannelRealization, downlink_budget
from swiptfl.energy import ComputeProfile, HarvestModel, compute_energy
from swiptfl import scenario as scenario_module
from swiptfl.config import (
    ConfigError,
    DataConfig,
    ScenarioConfig,
    load_config,
    merge,
    with_override,
)
from swiptfl.fl_core import BlockRound, TrainerConfig, global_loss
from swiptfl.scenario import (
    RoundMetrics,
    build,
    fading_draws,
    link_round,
    rng_stream,
    run_monte_carlo,
    run_trial,
    sweep,
    trial_fading,
)
from swiptfl.timing import local_train_time

ROOT = Path(__file__).resolve().parent.parent


def small_config(**kwargs):
    defaults = dict(
        master_seed=3,
        device_count=3,
        monte_carlo_trials=2,
        rounds=2,
        placement_trials=4,
    )
    defaults.update(kwargs)
    return ScenarioConfig(**defaults)


# ---------------------------------------------------------------- rng streams


def test_rng_stream_reproduces_and_separates():
    a = rng_stream(7, "trial", 3).integers(2**62, size=4)
    b = rng_stream(7, "trial", 3).integers(2**62, size=4)
    assert np.array_equal(a, b)

    paths = [
        (7, "trial", 3),
        (7, "trial", 4),
        (8, "trial", 3),
        (7, "fading", 3),
        (7, "trial", 3, 0),
    ]
    draws = {tuple(rng_stream(*p).integers(2**62, size=4)) for p in paths}
    assert len(draws) == len(paths)


def test_rng_stream_rejects_unhashable_path_parts():
    with pytest.raises(TypeError):
        rng_stream(0, 1.5)


def streams(master_seed, path):
    """The generators of one vectorized seed pass over ``path``, in C order of
    its broadcast shape, as :func:`fading_draws` builds them."""
    seeds = scenario_module._stream_seeds(master_seed, path)
    return [scenario_module._generator(words) for words in seeds.reshape(-1, 4)]


def scalar_paths(path):
    """Every scalar path that ``path`` names, in C order of its broadcast shape."""
    arrays = [part for part in path if isinstance(part, np.ndarray)]
    if not arrays:
        return [path]
    out = []
    for values in np.broadcast(*arrays):
        it = iter(values)
        out.append(tuple(int(next(it)) if isinstance(p, np.ndarray) else p for p in path))
    return out


def assert_same_streams(master_seed, path):
    batched = streams(master_seed, path)
    paths = scalar_paths(path)
    assert len(batched) == len(paths)
    for rng, path in zip(batched, paths):
        reference = rng_stream(master_seed, *path)
        assert rng.bit_generator.state == reference.bit_generator.state
        assert np.array_equal(rng.integers(2**62, size=8), reference.integers(2**62, size=8))
        assert np.array_equal(rng.exponential(1.0, 5), reference.exponential(1.0, 5))


@pytest.mark.parametrize("master_seed", [0, 7, 2**32 - 1, 2**32 + 5, 2**70 + 3])
def test_stream_seeds_draw_what_rng_stream_draws(master_seed):
    # One, two and four parts: entropy shorter than, equal to and longer
    # than SeedSequence's four-word pool; parts of 2**32 and more take
    # several entropy words.
    paths = [
        (0,),
        ("data",),
        (2**32,),
        ("trial", 3),
        (0, 0),
        (2**64 + 1, "x"),
        ("trial", 2, "fading", 9),
        ("trial", 0, "train", 0),
        (1, 2**32 - 1, 2**32, 2**40),
        (np.int64(4), "fading", np.int64(2**33), np.uint32(0)),
        (True, "placement-eval"),
        (),
    ]
    for path in paths:
        assert scenario_module._stream_seeds(master_seed, path).shape == (4,)
        assert_same_streams(master_seed, path)
    # Array parts broadcast to one stream per element, next to scalar parts
    # of one or several words, at both ends of the uint32 range.
    t, r = np.arange(7), np.arange(6)
    grid = ("trial", t[None, :], "fading", r[:, None])
    assert scenario_module._stream_seeds(master_seed, grid).shape == (6, 7, 4)
    assert_same_streams(master_seed, grid)
    edges = np.array([0, 1, 2**31, 2**32 - 1], dtype=np.uint64)
    assert_same_streams(master_seed, (edges, "x", 2**40))
    assert_same_streams(master_seed, (np.int64(2**33), edges[:, None], 0, np.array([5, 0])))
    assert_same_streams(master_seed, ("placement-eval", np.array(3)))


def test_stream_seeds_of_no_paths_is_empty():
    empty = np.arange(0)
    assert scenario_module._stream_seeds(3, ("placement-eval", empty)).shape == (0, 4)
    assert streams(3, ("trial", empty[None, :], "fading", np.arange(2)[:, None])) == []
    assert fading_draws(3, ("placement-eval", empty), 4).shape == (0, 4)


def test_stream_seeds_reject_what_rng_stream_rejects():
    for path in [(-1,), ("trial", -1, "fading", 0), (np.int64(-5),)]:
        with pytest.raises(ValueError):
            rng_stream(0, *path)
        with pytest.raises(ValueError):
            streams(0, path)
        with pytest.raises(ValueError):
            streams(0, (np.arange(3), *path))  # never wrapped into a uint32 word
    with pytest.raises(ValueError):
        streams(-1, (1,))
    for path in [(1.5,), ("trial", 2.0), (None,)]:
        with pytest.raises(TypeError):
            rng_stream(0, *path)
        with pytest.raises(TypeError):
            streams(0, path)
    with pytest.raises(TypeError):
        streams(0, ("trial", np.array([1.0])))
    # An array part takes one entropy word per element.
    wide = np.array([[1], [2**40]], dtype=np.uint64)
    for part in (np.array([0, -1]), np.array([2**32]), wide):
        with pytest.raises(ValueError):
            streams(0, ("trial", part, "fading", 0))


@pytest.mark.parametrize("master_seed", [0, 2**32 + 5, 2**70 + 3])
def test_fading_draws_are_what_rng_stream_draws(master_seed):
    t, r = np.arange(4), np.arange(3)
    gains = fading_draws(master_seed, ("trial", t[None, :], "fading", r[:, None]), 6)
    assert gains.shape == (3, 4, 6)
    for (ri, ti), row in zip(np.ndindex(3, 4), gains.reshape(-1, 6)):
        reference = rng_stream(master_seed, "trial", ti, "fading", ri)
        assert np.array_equal(row, reference.exponential(1.0, 6))
    gains = fading_draws(master_seed, ("placement-eval", np.arange(5)), 6)
    assert gains.shape == (5, 6)
    for t, row in enumerate(gains):
        assert np.array_equal(row, rng_stream(master_seed, "placement-eval", t).exponential(1.0, 6))
    for path in [("placement-eval", 2**40), (), (np.int64(7), "fading", 0)]:
        gains = fading_draws(master_seed, path, 6)
        assert gains.shape == (6,)
        assert np.array_equal(gains, rng_stream(master_seed, *path).exponential(1.0, 6))



@pytest.mark.parametrize("master_seed", [0, 7, 2**33 + 5])
def test_trial_fading_draws_the_named_trial_streams(master_seed):
    """trial_fading's (R, T, M) rows are the ("trial", t, "fading", r) streams
    of the given trials and rounds, in any order; its one-trial, one-round
    array path equals the scalar path bit for bit."""
    trials, rounds = [2, 5, 0], [4, 1]
    gains = trial_fading(master_seed, trials, rounds, 6)
    assert gains.shape == (2, 3, 6)
    for (i, k), row in zip(np.ndindex(2, 3), gains.reshape(-1, 6)):
        reference = rng_stream(master_seed, "trial", trials[k], "fading", rounds[i])
        assert np.array_equal(row.view(np.uint64), reference.exponential(1.0, 6).view(np.uint64))
    first = trial_fading(master_seed, [0], [0], 6)[0, 0]
    scalar = fading_draws(master_seed, ("trial", 0, "fading", 0), 6)
    assert np.array_equal(first.view(np.uint64), scalar.view(np.uint64))

# ------------------------------------------------------------- config checks


def test_config_validation():
    with pytest.raises(ValueError):
        ScenarioConfig(device_count=0)
    with pytest.raises(ValueError):
        ScenarioConfig(area_bounds=(0.0, 0.0, 0.0, 100.0))
    with pytest.raises(ValueError):
        ScenarioConfig(area_bounds=(0.0, 100.0, 0.0))
    with pytest.raises(ValueError):
        ScenarioConfig(placement_mode="hover")
    with pytest.raises(ValueError):
        ScenarioConfig(delta_mode="adaptive")
    with pytest.raises(ValueError):
        ScenarioConfig(delta_fixed=0.0)
    with pytest.raises(ValueError):
        ScenarioConfig(battery_initial_j=-1.0)
    with pytest.raises(ValueError):
        ScenarioConfig(payload_bits=0.0)
    with pytest.raises(ValueError):
        ScenarioConfig(uav_altitude_m=0.0)
    with pytest.raises(ValueError, match="uav_cpu_hz"):
        ScenarioConfig(uav_cpu_hz=0.0)
    with pytest.raises(ValueError, match="uav_cycles_per_bit"):
        ScenarioConfig(uav_cycles_per_bit=-1.0)
    for name in ("uav_altitude_m", "uav_cpu_hz", "uav_cycles_per_bit", "payload_bits"):
        with pytest.raises(ValueError, match=f"ScenarioConfig.{name} must be > 0 and finite"):
            ScenarioConfig(**{name: math.inf})
    with pytest.raises(ValueError, match="ScenarioConfig.area_bounds must be finite"):
        ScenarioConfig(area_bounds=(0.0, math.inf, 0.0, 100.0))
    for name in ("noise", "weight_scale", "init_scale"):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=rf"DataConfig.{name} must be (>= 0 and )?finite"):
                DataConfig(**{name: value})
    with pytest.raises(ValueError, match="DataConfig.noise must be >= 0"):
        DataConfig(noise=-0.1)


def test_logistic_noise_is_a_flip_probability():
    logistic = TrainerConfig(learning_rate=0.1, task="logistic")
    with pytest.raises(ValueError, match=r"DataConfig.noise must be in \[0, 1\] for the logistic"):
        ScenarioConfig(trainer=logistic, data=DataConfig(noise=1.5))
    assert ScenarioConfig(trainer=logistic, data=DataConfig(noise=1.0)).data.noise == 1.0
    assert ScenarioConfig(data=DataConfig(noise=1.5)).data.noise == 1.5  # a linear std


def test_battery_initial_j_rejects_nan_and_takes_inf():
    """A NaN battery would keep every device out of every round."""
    with pytest.raises(ValueError, match="battery_initial_j must be >= 0"):
        ScenarioConfig(battery_initial_j=math.nan)
    assert ScenarioConfig(battery_initial_j=math.inf).battery_initial_j == math.inf


def test_config_rejects_mismatched_iteration_counts(tmp_path):
    """compute.local_iters is the one local iteration count. A file or
    manifest that still names trainer.local_iters loads when the two agree,
    the trainer's dropped, and is a one-line ConfigError naming both fields
    when they differ. Anywhere else the trainer has no such field."""
    path = tmp_path / "legacy.yaml"
    for iters in (2, 3):
        path.write_text(f"compute:\n  local_iters: {iters}\ntrainer:\n  local_iters: {iters}\n")
        assert load_config(str(path)) == merge(ScenarioConfig(), {"compute.local_iters": iters})
    path.write_text("trainer:\n  learning_rate: 0.1\n  local_iters: 3\n")
    with pytest.raises(ConfigError) as err:
        load_config(str(path))
    message = str(err.value)
    assert "trainer.local_iters (3)" in message and "compute.local_iters (2)" in message
    assert "\n" not in message
    with pytest.raises(ValueError, match="unknown config field 'trainer.local_iters'"):
        merge(small_config(), {"trainer.local_iters": 3})
    with pytest.raises(TypeError, match="local_iters"):
        TrainerConfig(learning_rate=0.1, local_iters=3)


def test_build_is_deterministic_and_in_bounds():
    cfg = small_config()
    s1 = build(cfg)
    s2 = build(cfg)
    assert np.array_equal(s1.device_positions, s2.device_positions)
    assert s1.uav_position == s2.uav_position
    assert np.array_equal(s1.w0, s2.w0)
    assert np.array_equal(s1.train_sets.targets, s2.train_sets.targets)

    xmin, xmax, ymin, ymax = cfg.area_bounds
    assert np.all((s1.device_positions[:, 0] >= xmin) & (s1.device_positions[:, 0] <= xmax))
    assert np.all((s1.device_positions[:, 1] >= ymin) & (s1.device_positions[:, 1] <= ymax))
    assert np.all(s1.distances_m >= cfg.uav_altitude_m)


# The expected round delay at the centroid on configs/default.yaml, as
# place_uav scored it at build when centroid placement was eager. The
# grid-search values are pinned in tests/test_cli.py.
EAGER_CENTROID_OBJECTIVES = [
    ({}, 0.11336552834191224),
    ({"delta_mode": "optimized"}, 31.100894555155016),
]


def counted_mean_round_delay(monkeypatch):
    """Replace scenario.mean_round_delay with a wrapper that records the
    candidates of each call."""
    calls, real = [], scenario_module.mean_round_delay

    def counted(config, device_positions, candidates):
        calls.append(candidates.shape)
        return real(config, device_positions, candidates)

    monkeypatch.setattr(scenario_module, "mean_round_delay", counted)
    return calls


@pytest.mark.parametrize("delta_mode", ["fixed", "optimized"])
def test_centroid_placement_scores_nothing_until_read(monkeypatch, delta_mode):
    """Building and running a centroid scenario runs no placement link
    round; the first read of its objective runs one, on the UAV position
    alone, and a second read reuses it."""
    calls = counted_mean_round_delay(monkeypatch)
    cfg = small_config(delta_mode=delta_mode, placement_mode="centroid")
    scenario = build(cfg)
    run_monte_carlo(cfg, scenario)
    assert calls == []
    first = scenario.placement_objective_s
    assert calls == [(1, 3)]
    assert scenario.placement_objective_s is first
    assert calls == [(1, 3)]


@pytest.mark.parametrize("overrides, objective", EAGER_CENTROID_OBJECTIVES)
def test_centroid_objective_reads_the_eager_value(overrides, objective):
    cfg = merge(load_config(str(ROOT / "configs" / "default.yaml")), overrides)
    assert repr(build(cfg).placement_objective_s) == repr(objective)


def test_pickled_scenario_computes_its_objective_after_unpickling(monkeypatch):
    """A worker's copy of an unread scenario carries no objective and
    computes the same one when read."""
    calls = counted_mean_round_delay(monkeypatch)
    scenario = build(small_config())
    copy = pickle.loads(pickle.dumps(scenario))
    assert calls == []
    assert copy.placement_objective_s == scenario.placement_objective_s
    assert len(calls) == 2


def test_replaced_placement_objective_is_kept(monkeypatch):
    calls = counted_mean_round_delay(monkeypatch)
    scenario = build(small_config())
    assert replace(scenario, placement_objective_s=1.25).placement_objective_s == 1.25
    assert calls == []
    with pytest.raises(AttributeError):
        scenario_module.Scenario.placement_objective_s


def test_grid_search_scores_every_candidate_in_one_call(monkeypatch):
    """Grid search scores its 9 x 9 lattice and the centroid in one call at
    build, and reading the objective then computes nothing."""
    calls = counted_mean_round_delay(monkeypatch)
    scenario = build(small_config(placement_mode="grid_search"))
    assert calls == [(82, 3)]
    assert scenario.placement_objective_s > 0.0
    assert calls == [(82, 3)]


def test_link_round_payloads_follow_the_config():
    """Both links carry ``payload_bits``, or 32 bits per model coordinate
    when it is unset, and the UAV aggregates M payloads unless
    ``uav_payload_scales_with_m`` is off."""
    cfg = small_config(device_count=4)
    rng = np.random.default_rng(5)
    realization = ChannelRealization(rng.exponential(1.0, 4), rng.uniform(20.0, 150.0, 4))
    for bits, config in [
        (32.0 * cfg.data.dim, cfg),
        (1000.0, replace(cfg, payload_bits=1000.0)),
    ]:
        rnd = link_round(config, realization)
        assert np.array_equal(rnd.uplink.tx_time_s, bits / rnd.uplink.rate_bps)
        assert np.array_equal(rnd.downlink.tx_time_s, bits / rnd.downlink.rate_bps)
        assert rnd.t_uav_s == oracles.t_uav(cfg.uav_cycles_per_bit, 4 * bits, cfg.uav_cpu_hz)
        flat = link_round(replace(config, uav_payload_scales_with_m=False), realization)
        assert flat.t_uav_s == oracles.t_uav(cfg.uav_cycles_per_bit, bits, cfg.uav_cpu_hz)
        assert rnd.t_uav_s == 4 * flat.t_uav_s


def test_run_trial_is_bit_reproducible():
    scenario = build(small_config())
    t1 = run_trial(scenario, [0])[0]
    t2 = run_trial(scenario, [0])[0]
    assert not t1.failed
    for a, b in zip(t1.rounds, t2.rounds):
        assert a.t_total_s == b.t_total_s
        assert a.train_loss == b.train_loss
        assert a.test_metric == b.test_metric
        assert np.array_equal(a.e_harvest_j, b.e_harvest_j)
        assert np.array_equal(a.deltas, b.deltas)


def test_distinct_trials_draw_distinct_fading():
    scenario = build(small_config())
    t0 = run_trial(scenario, [0])[0]
    t1 = run_trial(scenario, [1])[0]
    assert t0.rounds[0].t_total_s != t1.rounds[0].t_total_s


def test_outage_count_matches_round_records():
    scenario = build(small_config(monte_carlo_trials=1, rounds=4))
    trial = run_trial(scenario, [0])[0]
    expected = sum(
        1
        for rm in trial.rounds
        if not math.isfinite(rm.t_total_s) or not bool(rm.feasible.all())
    )
    assert trial.outage_count == expected


def test_fixed_and_optimized_delta_modes():
    fixed = build(small_config(delta_fixed=0.37))
    rm = run_trial(fixed, [0])[0].rounds[0]
    assert rm.delta_method == "fixed"
    assert np.all(rm.deltas == 0.37)

    opt = build(small_config(delta_mode="optimized"))
    rm = run_trial(opt, [0])[0].rounds[0]
    assert rm.delta_method in ("bisection", "grid")
    assert np.all((rm.deltas > 0.0) & (rm.deltas < 1.0))


def test_single_device_round_matches_closed_form():
    """With one device there is no interference, so every recorded quantity
    follows from the raw definitions; rebuild them all through the
    independent helpers, reproducing the fading from the named stream."""
    cfg = ScenarioConfig(
        master_seed=11,
        device_count=1,
        monte_carlo_trials=1,
        rounds=1,
        placement_trials=2,
    )
    scenario = build(cfg)
    rm = run_trial(scenario, [0])[0].rounds[0]

    gain = float(rng_stream(11, "trial", 0, "fading", 0).exponential(1.0, 1)[0])
    dist = float(scenario.distances_m[0])
    link = cfg.link
    payload = 32.0 * cfg.data.dim

    prx_ul = oracles.rx_power(link.ptx_ul_w, dist, link.pathloss_exponent, gain)
    t_up = oracles.transmit_time(
        payload,
        oracles.shannon_rate(
            link.bandwidth_hz, oracles.sinr_value(prx_ul, 0.0, link.noise_power_ul_w)
        ),
    )
    prx_dl = oracles.rx_power(link.ptx_dl_w, dist, link.pathloss_exponent, gain)
    t_down = oracles.transmit_time(
        payload,
        oracles.shannon_rate(
            link.bandwidth_hz,
            oracles.sinr_value(cfg.delta_fixed * prx_dl, 0.0, link.noise_power_dl_w),
        ),
    )
    t_loc = oracles.t_local(
        cfg.compute.cycles_per_bit, cfg.compute.data_bits, cfg.compute.local_iters, cfg.compute.cpu_hz
    )
    t_server = oracles.t_uav(cfg.uav_cycles_per_bit, payload, cfg.uav_cpu_hz)
    total = oracles.t_round([t_up], [t_loc], [t_down], t_server)

    assert rm.t_uplink_max_s == pytest.approx(t_up, rel=1e-12)
    assert rm.t_downlink_max_s == pytest.approx(t_down, rel=1e-12)
    assert rm.t_local_max_s == pytest.approx(t_loc, rel=1e-12)
    assert rm.t_uav_s == pytest.approx(t_server, rel=1e-12)
    assert rm.t_total_s == pytest.approx(total, rel=1e-12)

    e_c = oracles.e_compute(
        cfg.compute.kappa,
        cfg.compute.cycles_per_bit,
        cfg.compute.data_bits,
        cfg.compute.local_iters,
        cfg.compute.cpu_hz,
    )
    e_bill = e_c + oracles.e_transmit(t_up, link.ptx_ul_w) + oracles.e_transmit(t_down, link.ptx_dl_w)
    p_h = oracles.p_harvest(
        cfg.harvest.a1, cfg.harvest.a2, cfg.harvest.a3, (1.0 - cfg.delta_fixed) * prx_dl
    )
    assert rm.e_total_j[0] == pytest.approx(e_bill, rel=1e-12)
    assert rm.e_harvest_j[0] == pytest.approx(t_down * p_h, rel=1e-12)


@pytest.mark.parametrize(
    "delta_mode, harvest, method",
    [
        ("fixed", HarvestModel(0.1, 0.5, 0.0), "fixed"),
        ("optimized", HarvestModel(0.1, 0.5, 0.0), "bisection"),
        ("optimized", HarvestModel(0.4, -0.1, 0.003), "grid"),
    ],
    ids=["fixed", "bisection", "grid"],
)
def test_batched_link_round_equals_per_slice(delta_mode, harvest, method):
    """A (C, T, M) realization gives, bit for bit, the stack of the 1-D
    rounds of its slices, in every power-split regime. One slice holds a
    dominant device whose interference would swamp the others."""
    cfg = small_config(
        device_count=4,
        delta_mode=delta_mode,
        harvest=harvest,
        device_pays_downlink=False,
        link=replace(ScenarioConfig().link, ptx_ul_w=1e-3),
        compute=replace(ScenarioConfig().compute, kappa=1e-31),
    )
    rng = np.random.default_rng(17)
    gains = rng.exponential(1.0, (3, 5, 4))
    gains[1, 2, 0] = 1e20
    dists = rng.uniform(20.0, 150.0, (3, 1, 4))
    batched = link_round(cfg, ChannelRealization(gains, dists))
    assert (batched.methods() == method).all()
    singles = [
        [link_round(cfg, ChannelRealization(gains[c, t], dists[c, 0])) for t in range(5)]
        for c in range(3)
    ]

    def per_device(rnd):
        return {
            "deltas": rnd.deltas,
            "grid": rnd.grid,
            "uplink": rnd.uplink.tx_time_s,
            "downlink": rnd.downlink.tx_time_s,
            "e_total_j": rnd.energy.e_total_j,
            "e_harvest_j": rnd.energy.e_harvest_j,
            "feasible": rnd.energy.feasible,
            "t_total_s": rnd.delay(),
        }

    for name, got in per_device(batched).items():
        want = np.array([[per_device(rnd)[name] for rnd in row] for row in singles])
        assert np.array_equal(got, want), name
    for c, row in enumerate(singles):
        assert batched.methods()[c].tolist() == [rnd.methods().item() for rnd in row]


@pytest.mark.parametrize(
    "harvest, method",
    [(HarvestModel(0.1, 0.5, 0.0), "bisection"), (HarvestModel(0.4, -0.1, 0.003), "grid")],
    ids=["bisection", "grid"],
)
def test_optimized_round_takes_the_solvers_downlink(monkeypatch, harvest, method):
    """An optimized round's downlink is the solver's, equal bit for bit to
    ``downlink_budget`` at its ratios, and the solver's bracket ends are the
    round's one ``downlink_budget`` call. Its energy ledger is built on read."""
    cfg = small_config(
        device_count=4,
        delta_mode="optimized",
        harvest=harvest,
        device_pays_downlink=False,
        link=replace(ScenarioConfig().link, ptx_ul_w=1e-3),
        compute=replace(ScenarioConfig().compute, kappa=1e-31),
    )
    rng = np.random.default_rng(29)
    realization = ChannelRealization(
        rng.exponential(1.0, (3, 5, 4)), rng.uniform(20.0, 150.0, (3, 1, 4))
    )
    calls = []

    def counted(module):
        budget = module.downlink_budget

        def counted_budget(*args, **kwargs):
            calls.append(module.__name__)
            return budget(*args, **kwargs)

        monkeypatch.setattr(module, "downlink_budget", counted_budget)

    counted(scenario_module)
    counted(optimizer_module)
    rnd = link_round(cfg, realization)
    assert (rnd.methods() == method).all() and calls == ["swiptfl.optimizer"]
    assert ((rnd.deltas > DELTA_MIN) & (rnd.deltas < DELTA_MAX)).any()  # solved inside
    assert "energy" not in vars(rnd)  # nothing read it yet
    assert rnd.energy is rnd.energy and "energy" in vars(rnd)
    want = downlink_budget(cfg.link, realization, rnd.deltas, 32.0 * cfg.data.dim)
    for name in ("prx_w", "interference_w", "sinr", "rate_bps", "tx_time_s"):
        assert np.array_equal(getattr(rnd.downlink, name), getattr(want, name)), name


# -------------------------------------------------------------- battery mode


def battery_config(**kwargs):
    defaults = dict(
        master_seed=5,
        monte_carlo_trials=1,
        rounds=8,
        battery_ledger=True,
        battery_initial_j=5e-3,
    )
    defaults.update(kwargs)
    return small_config(**defaults)


def test_battery_never_negative_and_recursion_holds():
    scenario = build(battery_config())
    trial = run_trial(scenario, [0])[0]
    cfg = scenario.config
    level = np.full(cfg.device_count, cfg.battery_initial_j)
    for rm in trial.rounds:
        expected_part = np.isfinite(rm.e_total_j) & (level + rm.e_harvest_j - rm.e_total_j >= 0.0)
        assert np.array_equal(rm.participate, expected_part)
        level = level + rm.e_harvest_j - np.where(rm.participate, rm.e_total_j, 0.0)
        assert np.array_equal(rm.battery_j, level)
        assert np.all(rm.battery_j >= 0.0)


def test_battery_funds_at_most_two_rounds_each():
    """Every round bills at least ~2 mJ (the compute term alone) against
    microjoule harvests, so a 5 mJ battery pays for at most two rounds per
    device, and with eight rounds and three devices some round must see
    nobody participate. A skipping device may re-enter later when a cheap
    round comes, so only the budget arithmetic is pinned, not a schedule."""
    scenario = build(battery_config())
    rounds = run_trial(scenario, [0])[0].rounds
    assert np.all(rounds[0].participate)
    paid = np.sum([rm.participate for rm in rounds], axis=0)
    assert np.all(paid <= 2)

    idle = [rm for rm in rounds if not np.any(rm.participate)]
    assert len(idle) >= 2
    # Skipping devices stop gating the round: only downlink and server time remain.
    rm = idle[0]
    assert rm.t_uplink_max_s == 0.0
    assert rm.t_local_max_s == 0.0
    assert rm.t_total_s == rm.t_downlink_max_s + rm.t_uav_s


def test_empty_battery_stalls_training_but_still_harvests():
    scenario = build(battery_config(battery_initial_j=0.0, rounds=4))
    rounds = run_trial(scenario, [0])[0].rounds
    for rm in rounds:
        assert not np.any(rm.participate)
        assert rm.t_uplink_max_s == 0.0
        assert np.all(rm.battery_j > 0.0)
    assert len({rm.train_loss for rm in rounds}) == 1
    assert len({rm.test_metric for rm in rounds}) == 1
    # Harvest-only rounds keep accumulating charge.
    assert np.all(rounds[-1].battery_j > rounds[0].battery_j)


def test_battery_disabled_records_no_levels():
    scenario = build(small_config())
    trial = run_trial(scenario, [0])[0]
    assert trial.rounds[0].battery_j is None
    assert np.all(trial.rounds[0].participate)


# ---------------------------------------------------------------- aggregates


def test_monte_carlo_worker_count_does_not_change_results():
    # The second case has more workers than trials: no block may be empty.
    for trials, workers in ((4, 2), (2, 3)):
        cfg = small_config(monte_carlo_trials=trials)
        serial = run_monte_carlo(cfg)
        parallel = run_monte_carlo(replace(cfg, workers=workers))
        assert len(parallel.trials) == trials
        assert serial.delay_mean_s == parallel.delay_mean_s
        assert serial.outage_rate == parallel.outage_rate
        for a, b in zip(serial.trials, parallel.trials):
            assert a.trial_index == b.trial_index
            for ra, rb in zip(a.rounds, b.rounds):
                assert ra.t_total_s == rb.t_total_s
                assert ra.test_metric == rb.test_metric


def assert_same_trial(a, b):
    """Two trial results agree field for field, every round bit for bit."""
    assert (a.trial_index, a.outage_count, a.failed, a.error) == (
        b.trial_index,
        b.outage_count,
        b.failed,
        b.error,
    )
    assert len(a.rounds) == len(b.rounds)
    for ra, rb in zip(a.rounds, b.rounds):
        for f in fields(RoundMetrics):
            x, y = getattr(ra, f.name), getattr(rb, f.name)
            if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
                assert np.array_equal(x, y), f.name
            else:
                assert x == y, f.name


# The mixed-grid case: a harvest curve with a negative linear coefficient
# sends only the strongest fades to the dense scan, so within one round some
# trials of a block are solved on the grid and others by bisection.
MIXED_GRID = dict(
    master_seed=3,
    device_count=6,
    monte_carlo_trials=4,
    rounds=3,
    placement_trials=2,
    delta_mode="optimized",
    device_pays_downlink=False,
    harvest=HarvestModel(-1e3, 0.5, 0.0),
)
# The contested regime: optimized ratios against a small battery.
OPTIMIZED_BATTERY = dict(
    monte_carlo_trials=4,
    rounds=6,
    device_count=6,
    delta_mode="optimized",
    device_pays_downlink=False,
    link=replace(ScenarioConfig().link, ptx_ul_w=1e-3),
    compute=replace(ScenarioConfig().compute, kappa=1e-31),
    battery_ledger=True,
    battery_initial_j=1e-4,
)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(monte_carlo_trials=4, rounds=3, delta_fixed=0.37),
        OPTIMIZED_BATTERY,
        MIXED_GRID,
    ],
    ids=["fixed", "optimized-battery", "mixed-grid"],
)
def test_block_of_trials_equals_single_trials(kwargs):
    """A block gives, field for field, the trials run one by one: its
    trials share one batched link round per round but nothing else, and
    each is labelled by how its own ratios were solved."""
    cfg = small_config(**kwargs)
    scenario = build(cfg)
    trials = range(cfg.monte_carlo_trials)
    block = run_trial(scenario, trials)
    singles = [run_trial(scenario, [t])[0] for t in trials]
    assert len(block) == len(singles)
    for a, b in zip(block, singles):
        assert_same_trial(a, b)
    with pytest.raises(ValueError):
        run_trial(scenario, [])  # an empty block is a driver bug, never silently empty
    if kwargs is MIXED_GRID:
        labels = [tr.rounds[2].delta_method for tr in block]
        assert labels == ["grid", "bisection", "bisection", "bisection"]


def test_diverging_trial_stops_alone(monkeypatch):
    """A trial whose training diverges keeps the rounds it finished; the
    other trials of its block run on unchanged."""
    cfg = small_config(monte_carlo_trials=3, rounds=3)
    scenario = build(cfg)
    singles = [run_trial(scenario, [t])[0] for t in range(3)]

    real_run_round = scenario_module.run_round
    calls = []

    def run_round(models, *args):
        step = real_run_round(models, *args)
        calls.append(len(models))
        if len(calls) == 2:  # round 1: one block call per round, trial 1 at position 1
            kept = step.models.copy()
            kept[1] = models[1]
            return BlockRound(kept, {1: "injected"})
        return step

    monkeypatch.setattr(scenario_module, "run_round", run_round)
    block = run_trial(scenario, range(3))
    assert calls == [3, 3, 3]  # the diverged trial keeps its row in the block's later rounds
    assert [tr.failed for tr in block] == [False, True, False]
    assert block[1].error == "injected"
    assert len(block[1].rounds) == 1
    # Only the recorded round counts its outage; the diverging round has no record.
    outages = [not math.isfinite(rm.t_total_s) or not rm.feasible.all() for rm in singles[1].rounds]
    assert block[1].outage_count == sum(outages[:1])
    assert_same_trial(block[0], singles[0])
    assert_same_trial(block[2], singles[2])
    for ra, rb in zip(block[1].rounds, singles[1].rounds):
        assert ra.t_total_s == rb.t_total_s and ra.train_loss == rb.train_loss


def test_stopped_trial_keeps_its_row_and_its_late_reports_change_nothing(monkeypatch):
    """After trial 1 stops in round 1, every later run_round call of its block
    receives all three rows, row 1 of ``participate`` all False, and returns
    row 1 unchanged. An error reported for the stopped trial changes no record."""
    cfg = small_config(monte_carlo_trials=3, rounds=4)
    scenario = build(cfg)
    real_run_round = scenario_module.run_round

    def run(late_report):
        calls = []

        def run_round(models, *args):
            step = real_run_round(models, *args)
            calls.append((np.array(models), np.array(args[-1]), step.models.copy()))
            if len(calls) == 2:  # round 1: trial 1 fails and keeps its input model
                kept = step.models.copy()
                kept[1] = models[1]
                return BlockRound(kept, {1: "injected"})
            if late_report and len(calls) == 4:  # round 3: a report for the stopped trial
                return BlockRound(step.models, {1: "late"})
            return step

        monkeypatch.setattr(scenario_module, "run_round", run_round)
        return run_trial(scenario, range(3)), calls

    block, calls = run(late_report=True)
    assert len(calls) == cfg.rounds
    for models, participate, out in calls[2:]:
        assert len(models) == len(participate) == len(out) == 3
        assert not participate[1].any()
        assert np.array_equal(out[1], models[1])
    assert (block[1].error, len(block[1].rounds)) == ("injected", 1)
    quiet, _ = run(late_report=False)
    for a, b in zip(block, quiet):
        assert_same_trial(a, b)


# Five rounds, so two-round chunks split a block 2 + 2 + 1. In "device-major"
# the whole-block chunk's 200 fading states over 3 devices reduce device-major
# and a one-round chunk's 20 along the last axis.
CHUNKED = {
    "fixed": dict(monte_carlo_trials=3, rounds=5, delta_fixed=0.37),
    "optimized-battery": dict(OPTIMIZED_BATTERY, rounds=5),
    "grid": dict(MIXED_GRID, rounds=5),
    "minibatch": dict(
        monte_carlo_trials=3,
        rounds=5,
        trainer=TrainerConfig(learning_rate=0.1, batch_size=5),
    ),
    # Every trial's loss overflows in round 1, so the block stops inside a chunk.
    "diverging": dict(monte_carlo_trials=3, rounds=5, trainer=TrainerConfig(learning_rate=1e60)),
    "device-major": dict(monte_carlo_trials=20, rounds=10),
}


@pytest.mark.parametrize("name", sorted(CHUNKED))
def test_chunking_leaves_every_record_unchanged(monkeypatch, name):
    """A block runs all its rounds in one chunk here. One-round chunks and
    uneven ones (2 + 2 + 1) give every record and every trial result bit
    for bit: nothing in a round's physics reads an earlier round."""
    cfg = small_config(**CHUNKED[name])
    scenario = build(cfg)
    trials = range(cfg.monte_carlo_trials)
    states = cfg.monte_carlo_trials * cfg.device_count
    assert cfg.rounds * states <= scenario_module.ROUND_BLOCK
    with np.errstate(over="ignore", invalid="ignore"):
        whole = run_trial(scenario, trials)
        for rounds_per_chunk in (1, 2):
            monkeypatch.setattr(scenario_module, "ROUND_BLOCK", rounds_per_chunk * states)
            chunked = run_trial(scenario, trials)
            assert len(chunked) == len(whole)
            for a, b in zip(chunked, whole):
                assert_same_trial(a, b)
    if name == "device-major":  # the whole block and one round take different paths
        shape = (cfg.monte_carlo_trials, cfg.device_count)
        wide, narrow = (np.zeros((r, *shape)) for r in (cfg.rounds, 1))
        assert channel._device_major(wide) is not None and channel._device_major(narrow) is None
    if name == "grid":  # some rounds solved on the grid and some by bisection
        assert {rm.delta_method for tr in whole for rm in tr.rounds} == {"grid", "bisection"}
    if name == "diverging":
        assert [(tr.failed, len(tr.rounds)) for tr in whole] == [(True, 1)] * 3


MINIBATCH = TrainerConfig(learning_rate=0.1, batch_size=5)


def test_held_out_failure_mid_chunk_stops_the_trial_at_its_round(monkeypatch):
    """A trial whose train loss, val or test metric is not finite in a round
    inside a chunk stops at that round with the per-round message: train
    loss before val before test, and before a training error the trial meets
    in a later round of the chunk. It keeps the rounds before and their
    outages, and a run in one-round chunks gives every trial result bit for bit."""
    cfg = small_config(monte_carlo_trials=4, rounds=5, trainer=MINIBATCH)
    scenario = build(cfg)
    real_evaluate, real_run_round = scenario_module.evaluate_metric, scenario_module.run_round
    real_loss, passes = scenario_module.global_loss, []

    def recording(models, data, task):
        passes.append(np.array(models))
        return real_evaluate(models, data, task)

    monkeypatch.setattr(scenario_module, "evaluate_metric", recording)
    clean = run_trial(scenario, range(4))
    assert len(passes) == 2  # one val pass and one test pass over the 20 models
    trained = passes[0].reshape(5, 4, -1)  # [round, trial], round-major
    # Keyed by samples per set: training 20, val 200, test 400. Trial 0 fails
    # in rounds 3 and 4, trial 1 in round 1, trial 2 on train loss and val in round 2.
    poisoned = {
        20: [trained[2, 2]],
        200: [trained[1, 1], trained[2, 2]],
        400: [trained[1, 1], trained[3, 0], trained[4, 0]],
    }
    injected = []

    def poisoning(real):
        def score(models, data, task):
            out = real(models, data, task)
            for w in poisoned[data.count]:
                out[(models == w).all(axis=1)] = np.nan
            return out

        return score

    def run_round(models, *args):  # trials 1 and 2's training fails in round 3
        step = real_run_round(models, *args)
        hit = np.flatnonzero([(w == trained[2, 1:3]).all(-1).any() for w in models]).tolist()
        injected.extend(hit)
        return BlockRound(step.models, {**step.errors, **dict.fromkeys(hit, "injected")})

    monkeypatch.setattr(scenario_module, "global_loss", poisoning(real_loss))
    monkeypatch.setattr(scenario_module, "evaluate_metric", poisoning(real_evaluate))
    monkeypatch.setattr(scenario_module, "run_round", run_round)
    whole = run_trial(scenario, range(4))
    assert injected == [1, 2]  # the chunk trained trials 1 and 2 past their failing rounds
    assert [tr.error for tr in whole] == [
        "non-finite test metric in round 3",
        "non-finite val metric in round 1",
        "non-finite train loss in round 2",
        None,
    ]
    assert [len(tr.rounds) for tr in whole] == [3, 1, 2, 5]
    for tr, ref in zip(whole, clean):
        kept = replace(ref, rounds=ref.rounds[: len(tr.rounds)], failed=tr.failed, error=tr.error)
        outages = [not math.isfinite(rm.t_total_s) or not rm.feasible.all() for rm in kept.rounds]
        assert_same_trial(tr, replace(kept, outage_count=sum(outages)))
    monkeypatch.setattr(scenario_module, "ROUND_BLOCK", 4 * cfg.device_count)  # one-round chunks
    injected.clear()
    chunked = run_trial(scenario, range(4))
    assert injected == [2, 2]  # trial 2, stopped in round 2, keeps its row in rounds 3 and 4
    for a, b in zip(chunked, whole):
        assert_same_trial(a, b)


@pytest.mark.parametrize("task", ["linear", "logistic"])
def test_held_out_passes_split_by_eval_block_leave_every_record(monkeypatch, task):
    """Scoring a chunk's models in passes of at most EVAL_BLOCK (model,
    sample) pairs, or of one model each, gives the records of one pass."""
    trainer = replace(MINIBATCH, task=task)
    scenario = build(small_config(monte_carlo_trials=3, rounds=5, trainer=trainer))
    real_evaluate, calls = scenario_module.evaluate_metric, []

    def evaluate_metric(models, data, task):
        calls.append((len(models), data.count))
        return real_evaluate(models, data, task)

    monkeypatch.setattr(scenario_module, "evaluate_metric", evaluate_metric)
    monkeypatch.setattr(scenario_module, "EVAL_BLOCK", 1 << 30)
    whole = run_trial(scenario, range(3))
    assert calls == [(15, 200), (15, 400)]
    for block, val_passes, test_passes in ((1000, 3, 8), (1, 15, 15)):
        calls.clear()
        monkeypatch.setattr(scenario_module, "EVAL_BLOCK", block)
        split = run_trial(scenario, range(3))
        assert [size for _, size in calls] == [200] * val_passes + [400] * test_passes
        assert sum(n for n, _ in calls) == 30
        assert all(n * size <= max(block, size) for n, size in calls)
        for a, b in zip(split, whole):
            assert_same_trial(a, b)


def test_link_rounds_stay_within_the_round_block(monkeypatch):
    """No link round of a block covers more than max(ROUND_BLOCK, T * M)
    fading states, and a block with T * M >= ROUND_BLOCK makes one per round."""
    cfg = small_config(monte_carlo_trials=3, rounds=5, device_count=4)
    scenario = build(cfg)
    states = 3 * 4
    sizes = []

    def counting_link_round(config, realization):
        sizes.append(realization.gains_sq.size)
        return link_round(config, realization)

    monkeypatch.setattr(scenario_module, "link_round", counting_link_round)
    cases = [(5 * states, 1), (2 * states, 3), (2 * states - 1, 5), (states, 5), (states - 1, 5), (1, 5)]
    for block, calls in cases:
        monkeypatch.setattr(scenario_module, "ROUND_BLOCK", block)
        sizes.clear()
        run_trial(scenario, range(3))
        assert len(sizes) == calls, block
        assert max(sizes) <= max(block, states), block


def test_outage_rate_covers_the_recorded_rounds(monkeypatch):
    """A trial that diverges in an outage round records no row for it and
    counts no outage for it, so every outage_count is the number of outages
    among the trial's records, and the rate, the summed counts over the
    recorded rounds, recomputes from the records and stays in [0, 1].
    Every round of this config is in outage."""
    cfg = small_config(monte_carlo_trials=2, rounds=3)
    real_run_round = scenario_module.run_round
    calls = []

    def run_round(models, *args):
        step = real_run_round(models, *args)
        calls.append(len(models))
        if len(calls) == 2:  # round 1: trial 0 diverges
            return BlockRound(step.models, {0: "injected"})
        return step

    monkeypatch.setattr(scenario_module, "run_round", run_round)
    res = run_monte_carlo(cfg)
    diverged = res.trials[0]
    assert diverged.failed and len(diverged.rounds) == 1 and diverged.outage_count == 1
    records = [rm for tr in res.trials for rm in tr.rounds]
    outages = [not math.isfinite(rm.t_total_s) or not rm.feasible.all() for rm in records]
    assert all(outages)
    assert res.outage_rate == sum(outages) / len(records) == 1.0


def test_diverging_run_passes_the_benchmark_checks():
    """The benchmark's recomputation of every record, outage count and
    aggregate accepts a run whose trials all diverge in round 1.
    ``bench/checks.py`` is loaded, never changed."""
    spec = importlib.util.spec_from_file_location("bench_checks", ROOT / "bench" / "checks.py")
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    cfg = load_config(str(ROOT / "configs" / "default.yaml"))
    cfg = merge(cfg, {"monte_carlo_trials": 3, "rounds": 5, "trainer.learning_rate": 1e60})
    res = run_monte_carlo(cfg)
    assert [(tr.failed, len(tr.rounds)) for tr in res.trials] == [(True, 1)] * 3
    ck = checks.Checker()
    checks.check_rounds(ck, res)
    checks.check_aggregates(ck, res)
    assert ck.attempted > 0 and ck.failures == []


def test_monte_carlo_metric_arrays_cover_every_round(monkeypatch):
    """Round r's metric_mean and metric_std are np.mean and np.std of the
    surviving trials' round-r test metrics, bit for bit, with enough trials
    (>= 9) for numpy's pairwise summation to matter; with no survivor both
    are NaN arrays of their own."""
    cfg = small_config(rounds=3)
    res = run_monte_carlo(cfg)
    assert res.metric_mean.shape == (3,)
    assert res.metric_std.shape == (3,)
    assert np.all(np.isfinite(res.metric_mean))
    assert res.n_failed == 0
    assert 0.0 <= res.outage_rate <= 1.0

    trainer = TrainerConfig(learning_rate=0.1, batch_size=5)
    cfg = small_config(rounds=3, monte_carlo_trials=12, trainer=trainer)
    real_run_round = scenario_module.run_round
    fail_in_round, calls = {1: [4]}, []  # round -> block positions whose training fails in it

    def run_round(models, *args):
        step = real_run_round(models, *args)
        failing = fail_in_round.get(len(calls))
        calls.append(len(models))
        if failing is None:
            return step
        return BlockRound(step.models, {j: "injected" for j in failing})

    monkeypatch.setattr(scenario_module, "run_round", run_round)
    res = run_monte_carlo(cfg)
    assert res.n_failed == 1 and res.trials[4].failed
    survivors = [tr for tr in res.trials if not tr.failed]
    assert len(survivors) == 11
    for r in range(3):
        metrics = [tr.rounds[r].test_metric for tr in survivors]
        assert len(set(metrics)) > 1  # minibatches make the trials differ
        assert res.metric_mean[r] == np.mean(metrics) and res.metric_std[r] == np.std(metrics)

    fail_in_round, calls = {0: range(12)}, []
    res = run_monte_carlo(cfg)
    assert res.n_failed == 12
    assert np.isnan(res.metric_mean).all() and np.isnan(res.metric_std).all()
    assert res.metric_mean.shape == res.metric_std.shape == (3,)
    assert res.metric_mean is not res.metric_std


def list_statistics(res):
    """Every aggregate of ``res`` by list formulas over its records, the
    reference the columnar reductions must match: delay mean, std, p5 and
    p95, outage rate, metric mean and std, and the failed trials."""
    ok = [tr for tr in res.trials if not tr.failed]
    finite = [rm.t_total_s for tr in ok for rm in tr.rounds if math.isfinite(rm.t_total_s)]
    delay = [math.nan] * 4
    if finite:
        delay = [float(np.mean(finite)), float(np.std(finite))]
        delay += np.percentile(finite, [5, 95]).tolist()
    metric = [np.full(res.scenario.config.rounds, np.nan)] * 2
    if ok:
        test = np.array([[rm.test_metric for rm in tr.rounds] for tr in ok]).T.copy()
        metric = [test.mean(axis=1), test.std(axis=1)]
    records = [rm for tr in res.trials for rm in tr.rounds]
    outages = sum(not math.isfinite(rm.t_total_s) or not rm.feasible.all() for rm in records)
    return [*delay, outages / len(records), *metric, len(res.trials) - len(ok)]


# The contested golden case of tests/test_cli.py: outage 0.533, with a battery.
CONTESTED_RUN = {
    "monte_carlo_trials": 5,
    "rounds": 6,
    "device_count": 12,
    "delta_mode": "optimized",
    "device_pays_downlink": False,
    "link.ptx_ul_w": 1e-3,
    "compute.kappa": 1e-31,
    "battery_ledger": True,
    "battery_initial_j": 1e-4,
}


@pytest.mark.parametrize(
    "overrides, failing, n_failed",
    [
        ({}, None, 0),
        (CONTESTED_RUN, None, 0),
        ({"trainer.learning_rate": 1e30}, None, 50),
        ({"trainer.learning_rate": 1e60}, None, 50),
        ({}, [1, 3], 2),
    ],
    ids=["default", "contested", "rate-1e30", "rate-1e60", "two-fail"],
)
def test_statistics_from_columns_equal_the_list_formulas(monkeypatch, overrides, failing, n_failed):
    """The masked reductions over the block record give every statistic bit
    for bit as the list formulas over the records do. At a learning rate of
    1e30 every trial fails in round 2, and at 1e60 in round 1, so neither
    has a finite delay; in "two-fail" trials 1 and 3 fail in round 2."""
    cfg = merge(load_config(str(ROOT / "configs" / "default.yaml")), overrides)
    if failing:
        real_run_round, calls = scenario_module.run_round, []

        def run_round(models, *args):
            calls.append(len(models))
            step = real_run_round(models, *args)
            if len(calls) == 3:
                return BlockRound(step.models, {j: "injected" for j in failing})
            return step

        monkeypatch.setattr(scenario_module, "run_round", run_round)
    res = run_monte_carlo(cfg)
    columns = [res.delay_mean_s, res.delay_std_s, res.delay_p5_s, res.delay_p95_s]
    columns += [res.outage_rate, res.metric_mean, res.metric_std, res.n_failed]
    expected = list_statistics(res)
    for got, want in zip(columns, expected):
        assert np.asarray(got, dtype=float).tobytes() == np.asarray(want, dtype=float).tobytes()
    assert res.n_failed == n_failed
    records = [rm for tr in res.trials for rm in tr.rounds]
    unreachable = sum(not math.isfinite(rm.t_total_s) for rm in records)
    short = sum(math.isfinite(rm.t_total_s) and not rm.feasible.all() for rm in records)
    assert (res.outage_unreachable, res.outage_energy_short) == (unreachable, short)
    per_trial = [sum(not math.isfinite(rm.t_total_s) for rm in tr.rounds) for tr in res.trials]
    assert res.record["outage_unreachable"].tolist() == per_trial


def test_trial_rounds_view_reads_the_block_record():
    """A trial's rounds are a read-only sequence view of its block's record:
    len, index (negative too), slice and iteration give records whose fields
    have their declared types, and a pickled block carries its one shared
    record once."""
    cfg = small_config(**OPTIMIZED_BATTERY)
    block = run_trial(build(cfg), range(cfg.monte_carlo_trials))
    view = block[1].rounds
    assert len(view) == cfg.rounds and view.record is block[0].rounds.record
    records = list(view)
    assert [rm.round_index for rm in records] == list(range(cfg.rounds))
    assert_same_trial(replace(block[1], rounds=records), block[1])
    assert view[-1].round_index == cfg.rounds - 1 and len(view[1:4]) == 3
    with pytest.raises(IndexError):
        view[cfg.rounds]
    rm = view[2]
    for item in fields(RoundMetrics):
        if item.type == "float":
            assert type(getattr(rm, item.name)) is float, item.name
    assert type(rm.round_index) is int and type(rm.delta_method) is str
    assert rm.deltas.shape == rm.battery_j.shape == (cfg.device_count,)
    assert rm.feasible.dtype == rm.participate.dtype == bool
    with pytest.raises(TypeError):
        view[0] = rm

    restored = pickle.loads(pickle.dumps(block))
    assert len({id(tr.rounds.record) for tr in restored}) == 1
    for a, b in zip(restored, block):
        assert_same_trial(a, b)
    one = len(pickle.dumps(block[0].rounds.record))
    assert len(pickle.dumps(block)) < one + 2000  # the record once, not once per trial


# ------------------------------------------------------------ overrides, sweep


def test_with_override_coerces_numbers():
    cfg = small_config()
    assert with_override(cfg, "rounds", 30.0).rounds == 30
    assert isinstance(with_override(cfg, "rounds", 30.0).rounds, int)
    assert with_override(cfg, "link.ptx_dl_w", 2).link.ptx_dl_w == 2.0
    bounds = with_override(cfg, "area_bounds", [0, 50, 0, 50]).area_bounds
    assert bounds == (0.0, 50.0, 0.0, 50.0)
    # Optional fields follow their declared type and take null back.
    sized = with_override(cfg, "trainer.batch_size", 3.0)
    assert sized.trainer.batch_size == 3 and isinstance(sized.trainer.batch_size, int)
    assert with_override(sized, "trainer.batch_size", None).trainer.batch_size is None
    assert with_override(cfg, "payload_bits", 256).payload_bits == 256.0
    assert isinstance(with_override(cfg, "payload_bits", 256).payload_bits, float)
    # Library callers get the file's text rules: numeric text, and dBm on power fields.
    assert with_override(cfg, "link.bandwidth_hz", "1.0e6").link.bandwidth_hz == 1e6
    assert with_override(cfg, "link.ptx_ul_w", "20 dBm").link.ptx_ul_w == pytest.approx(0.1)
    # A mapping for a section merges into it, keeping the fields it does not name.
    merged = with_override(cfg, "link", {"ptx_dl_w": 2})
    assert merged.link == replace(cfg.link, ptx_dl_w=2.0)
    # merge takes dotted keys in order: a later key merges into the section
    # as earlier keys left it, and a later key for the same leaf wins.
    merged = merge(cfg, {"link.ptx_ul_w": 1e-3, "link": {"ptx_dl_w": 2}})
    assert merged.link == replace(cfg.link, ptx_ul_w=1e-3, ptx_dl_w=2.0)
    merged = merge(cfg, {"link.ptx_ul_w": 1e-3, "link": {"ptx_ul_w": 2}})
    assert merged.link == replace(cfg.link, ptx_ul_w=2.0)


def test_with_override_rejects_bad_values():
    cfg = small_config()
    with pytest.raises(ValueError):
        with_override(cfg, "rounds", 1.5)
    with pytest.raises(ValueError):
        with_override(cfg, "battery_ledger", 1)
    with pytest.raises(ValueError):
        with_override(cfg, "delta_mode", 5)
    with pytest.raises(ValueError):
        with_override(cfg, "no_such_field", 1)
    with pytest.raises(ValueError):
        with_override(cfg, "link.no_such_field", 1)
    with pytest.raises(ValueError):
        with_override(cfg, "rounds.deeper", 1)
    with pytest.raises(ValueError):
        with_override(cfg, "link..ptx_dl_w", 1)
    with pytest.raises(ValueError, match="link.bandwidth_hz expects a number, got '20 dBm'"):
        with_override(cfg, "link.bandwidth_hz", "20 dBm")
    with pytest.raises(ValueError, match="link expects a mapping, got 5"):
        with_override(cfg, "link", 5)
    with pytest.raises(ValueError, match="trainer expects a mapping, got None"):
        with_override(cfg, "trainer", None)


def test_sweep_rows_have_the_reporting_columns():
    cfg = small_config()
    rows = sweep(cfg, "link.ptx_dl_w", [0.5, 2.0])
    assert [r["param_value"] for r in rows] == [0.5, 2.0]
    for row in rows:
        assert list(row) == [
            "param_value",
            "mean_t_total_s",
            "std_t_total_s",
            "p5",
            "p95",
            "outage_rate",
            "failed_trials",
        ]
    assert rows[0]["mean_t_total_s"] != rows[1]["mean_t_total_s"]


def test_sweep_reuses_fading_across_points():
    """A parameter with no physical effect leaves the paired delay stats
    bit-identical, which is exactly what common random numbers promise."""
    cfg = small_config()
    rows = sweep(cfg, "trainer.learning_rate", [0.05, 0.2])
    assert rows[0]["mean_t_total_s"] == rows[1]["mean_t_total_s"]
    assert rows[0]["p95"] == rows[1]["p95"]
    assert rows[0]["outage_rate"] == rows[1]["outage_rate"]


def test_compute_profile_is_shared_per_device():
    """The config's one compute profile sets every device's local time and
    compute bill: with a negligible payload and the downlink billed to the
    UAV, the bill is the compute energy alone."""
    cfg = small_config(
        compute=ComputeProfile(
            kappa=3e-28, cycles_per_bit=2e3, data_bits=1e4, local_iters=2, cpu_hz=1e9
        ),
        device_pays_downlink=False,
        payload_bits=1e-300,
    )
    rm = run_trial(build(cfg), [0])[0].rounds[0]
    assert rm.t_local_max_s == local_train_time(cfg.compute)
    assert np.allclose(rm.e_total_j, compute_energy(cfg.compute), rtol=1e-12, atol=0.0)


def test_the_trainer_runs_what_the_ledger_bills(monkeypatch):
    """default.yaml at compute.local_iters=3, the one override: the delay
    model bills 3 iterations of local time, the ledger 3 of compute energy
    on top of the same transmit energy, and trial 0's round-0 model is the
    one a direct run_round of 3 local iterations from w0 trains."""
    base = merge(
        load_config(str(ROOT / "configs" / "default.yaml")), {"monte_carlo_trials": 2, "rounds": 2}
    )
    cfg = with_override(base, "compute.local_iters", 3)
    c = cfg.compute
    real_run_round, trained = scenario_module.run_round, []

    def run_round(models, *args):
        step = real_run_round(models, *args)
        trained.append(step.models)
        return step

    monkeypatch.setattr(scenario_module, "run_round", run_round)
    scenario = build(cfg)
    three = run_trial(scenario, [0, 1])[0].rounds.record
    two = run_trial(build(base), [0, 1])[0].rounds.record
    assert np.all(three["t_local_max_s"] == 3 * c.cycles_per_bit * c.data_bits / c.cpu_hz)
    assert np.all(three["participate"])
    e_compute = compute_energy(c)
    assert e_compute == pytest.approx(3 * c.kappa * c.cycles_per_bit * c.data_bits * c.cpu_hz**2)
    billed = three["e_total_j"] - two["e_total_j"]  # the same fading and transmit energy
    assert np.allclose(billed, e_compute - compute_energy(base.compute), rtol=1e-9, atol=0.0)

    direct = real_run_round(scenario.w0[None], scenario.train_sets, cfg.trainer, 3).models[0]
    assert np.array_equal(trained[0][0], direct)
    assert three["train_loss"][0, 0] == global_loss(direct[None], scenario.train_sets, "linear")[0]
    fewer = real_run_round(scenario.w0[None], scenario.train_sets, cfg.trainer, 2).models[0]
    assert not np.array_equal(direct, fewer)
