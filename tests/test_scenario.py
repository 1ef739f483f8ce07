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
from swiptfl.energy import ComputeProfile, HarvestModel, compute_energy, transmit_energy
from swiptfl import scenario as scenario_module
from swiptfl.config import (
    ConfigError,
    DataConfig,
    ScenarioConfig,
    load_config,
    merge,
    with_override,
)
from swiptfl.fl_core import (
    BlockRound,
    TrainerConfig,
    evaluate_metric,
    global_loss,
    minibatch_draws,
    run_round,
)
from swiptfl.scenario import (
    BlockRecord,
    MonteCarloResult,
    RoundMetrics,
    build,
    fading_draws,
    link_round,
    rng_stream,
    run_monte_carlo,
    run_trial,
    statistics,
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


def recorded_rows(record, *names):
    """A block record's recorded rounds, one list per trial, each round a
    tuple of the named columns' cells: the list formulas' reading."""
    rows = enumerate(record["rounds_done"].tolist())
    return [list(zip(*(record[name][k, :n] for name in names))) for k, n in rows]


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


@pytest.mark.parametrize("entry", [True, None, [1]])
def test_area_bounds_entries_follow_the_merge_number_rule(entry):
    """Built directly, ScenarioConfig reads each area_bounds entry as merge
    reads the float leaf area_bounds[i]: a bool, None or a list is a
    ConfigError that names the entry, not a 1 m-wide area or a TypeError."""
    with pytest.raises(ConfigError) as err:
        ScenarioConfig(area_bounds=(0, entry, 0, 100))
    assert str(err.value) == f"area_bounds[1] expects a number, got {entry!r}"
    with pytest.raises(ConfigError) as merged:
        merge(ScenarioConfig(), {"area_bounds": [0, entry, 0, 100]})
    assert str(merged.value) == str(err.value)
    assert ScenarioConfig(area_bounds=(0, 100, 0, 50)).area_bounds == (0.0, 100.0, 0.0, 50.0)


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


@pytest.mark.parametrize("device_count", [1, 3, 5, 50])
@pytest.mark.parametrize("delta_mode", ["fixed", "optimized"])
def test_grid_search_scores_every_candidate_in_one_call(monkeypatch, delta_mode, device_count):
    """Grid search scores its 9 x 9 lattice and the centroid in one call at
    build. The first read of the objective scores the chosen position alone,
    and equals its row of the build's batch bit for bit."""
    calls, rows, real = [], [], scenario_module.mean_round_delay

    def counted(config, device_positions, candidates):
        calls.append(candidates.shape)
        rows.append((candidates, real(config, device_positions, candidates)))
        return rows[-1][1]

    monkeypatch.setattr(scenario_module, "mean_round_delay", counted)
    modes = dict(placement_mode="grid_search", delta_mode=delta_mode)
    scenario = build(small_config(device_count=device_count, **modes))
    assert calls == [(82, 3)]
    objective = scenario.placement_objective_s
    assert calls == [(82, 3), (1, 3)]
    candidates, delays = rows[0]
    chosen = np.flatnonzero((candidates == scenario.uav_position).all(axis=1))
    assert math.isfinite(objective) and objective > 0.0
    assert {repr(float(delays[i])) for i in chosen} == {repr(objective)}


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
    t1 = run_trial(scenario, [0])
    t2 = run_trial(scenario, [0])
    assert t1["error"][0] is None
    for name in ("t_total_s", "train_loss", "test_metric", "e_harvest_j", "deltas"):
        assert np.array_equal(t1[name], t2[name]), name


def test_distinct_trials_draw_distinct_fading():
    scenario = build(small_config())
    t0 = run_trial(scenario, [0])
    t1 = run_trial(scenario, [1])
    assert t0["t_total_s"][0, 0] != t1["t_total_s"][0, 0]


def test_outage_count_matches_round_records():
    rec = run_monte_carlo(small_config(monte_carlo_trials=1, rounds=4)).record
    (rounds,) = recorded_rows(rec, "t_total_s", "feasible")
    expected = sum(1 for t, feasible in rounds if not math.isfinite(t) or not bool(feasible.all()))
    assert rec["outage_count"][0] == expected


def test_fixed_and_optimized_delta_modes():
    fixed = run_trial(build(small_config(delta_fixed=0.37)), [0])
    assert fixed["grid"].shape == fixed["deltas"].shape and not fixed["grid"].any()
    assert np.all(fixed["deltas"][0, 0] == 0.37)

    opt = run_trial(build(small_config(delta_mode="optimized")), [0])
    assert opt["grid"].shape == opt["deltas"].shape and not opt["grid"].any()  # bisected
    assert np.all((opt["deltas"][0, 0] > 0.0) & (opt["deltas"][0, 0] < 1.0))


@pytest.mark.parametrize(
    "powers",
    [{}, {"link.ptx_ul_w": 1e-3, "link.ptx_dl_w": 2.0}],
    ids=["default-powers", "own-powers"],
)
def test_single_device_round_matches_closed_form(powers):
    """With one device there is no interference, so every recorded quantity
    follows from the raw definitions; rebuild them all through the
    independent helpers, reproducing the fading from the named stream.
    Each direction's energy is billed at that direction's own power."""
    cfg = ScenarioConfig(
        master_seed=11,
        device_count=1,
        monte_carlo_trials=1,
        rounds=1,
        placement_trials=2,
    )
    cfg = merge(cfg, powers)
    scenario = build(cfg)
    rec = run_trial(scenario, [0])

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

    assert rec["t_uplink_max_s"][0, 0] == pytest.approx(t_up, rel=1e-12)
    assert rec["t_downlink_max_s"][0, 0] == pytest.approx(t_down, rel=1e-12)
    assert rec["t_local_max_s"][0, 0] == pytest.approx(t_loc, rel=1e-12)
    assert rec["t_uav_s"][0, 0] == pytest.approx(t_server, rel=1e-12)
    assert rec["t_total_s"][0, 0] == pytest.approx(total, rel=1e-12)

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
    assert rec["e_total_j"][0, 0, 0] == pytest.approx(e_bill, rel=1e-12)
    assert rec["e_harvest_j"][0, 0, 0] == pytest.approx(t_down * p_h, rel=1e-12)


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
    assert (batched.grid == (method == "grid")).all()
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
    assert (rnd.grid == (method == "grid")).all() and calls == ["swiptfl.optimizer"]
    assert ((rnd.deltas > DELTA_MIN) & (rnd.deltas < DELTA_MAX)).any()  # solved inside
    assert "energy" not in vars(rnd)  # nothing read it yet
    assert rnd.energy is rnd.energy and "energy" in vars(rnd)
    want = downlink_budget(cfg.link, realization, rnd.deltas, 32.0 * cfg.data.dim)
    for name in ("prx_w", "interference_w", "sinr", "rate_bps", "tx_time_s"):
        assert np.array_equal(getattr(rnd.downlink, name), getattr(want, name)), name


def test_uplink_stage_law_of_each_device_at_ten_devices():
    """Each device's uplink time under co-channel Rayleigh interference has
    a closed-form law at any M. Device j's SINR is a_j g_j over
    sum_{i != j} a_i g_i + N with every g ~ Exp(1), so, with
    theta = 2^(L / (B x)) - 1,
    P(t_ul,j <= x) = P(SINR_j >= theta)
                   = e^(-theta N / a_j) prod_{i != j} (1 + theta a_i / a_j)^-1
    (Haenggi, Stochastic Geometry for Wireless Networks, 2012). On round 0
    of trials 0-19999 of default.yaml (M = 10), one link round, each
    device's empirical CDF at its median and p90 lies within 4 binomial
    standard errors of the law, with a_i = ptx d_i^-alpha from the oracles.
    Shared interference couples the devices, so the stage maximum is not
    the product of these marginals, and nothing here checks it against one."""
    cfg = load_config(str(ROOT / "configs" / "default.yaml"))
    link, m, n = cfg.link, cfg.device_count, 20000
    distances = build(cfg).distances_m.tolist()
    gains = trial_fading(cfg.master_seed, np.arange(n), [0], m)
    t_up = link_round(cfg, ChannelRealization(gains, np.array(distances))).uplink.tx_time_s[0]
    a = [oracles.rx_power(link.ptx_ul_w, d, link.pathloss_exponent, 1.0) for d in distances]
    payload = 32.0 * cfg.data.dim  # payload_bits unset: 32 bits per model coordinate
    z = []
    for j in range(m):
        for x in np.quantile(t_up[:, j], [0.5, 0.9]).tolist():
            theta = 2.0 ** (payload / (link.bandwidth_hz * x)) - 1.0
            law = math.exp(-theta * link.noise_power_ul_w / a[j])
            for i in range(m):
                if i != j:
                    law /= 1.0 + theta * a[i] / a[j]
            observed = np.count_nonzero(t_up[:, j] <= x) / n
            z.append((observed - law) / math.sqrt(law * (1.0 - law) / n))
    assert len(z) == 20 and max(map(abs, z)) < 4.0, z


def test_uplink_power_moves_the_energy_bill_not_the_delay():
    """Every device sends at one power p, so the uplink SINR
    p a_j / (p sum_{i != j} a_i + N) loses p once the interference outweighs
    the noise. On round 0 of trial 0 of default.yaml at M = 200, 0.01 W and
    1 W give the same uplink times within 1e-6, and uplink energies 100 times apart."""
    cfg = merge(load_config(str(ROOT / "configs" / "default.yaml")), {"device_count": 200})
    gains = trial_fading(cfg.master_seed, [0], [0], cfg.device_count)[0, 0]
    realization = ChannelRealization(gains, build(cfg).distances_m)
    times, energies = [], []
    for power in (0.01, 1.0):
        t_up = link_round(merge(cfg, {"link.ptx_ul_w": power}), realization).uplink.tx_time_s
        times.append(t_up)
        energies.append(transmit_energy(t_up, power))
    np.testing.assert_allclose(times[1], times[0], rtol=1e-6)
    np.testing.assert_allclose(energies[1], 100.0 * energies[0], rtol=1e-6)


# ptx_ul_w / kappa / bandwidth_hz of three energy regimes at M = 1, without
# the downlink bill; their outage at fixed / optimized delta is about 0.93 /
# 0.45, 0.63 / 0.21 and 0.24 / 0.05.
SINGLE_DEVICE_REGIMES = [(1e-5, 1e-33, 1e4), (1e-5, 1e-33, 1e3), (1e-6, 1e-34, 1e4)]


def test_single_device_outage_matches_semi_analytic_law():
    """With one device nothing interferes, so a round is in outage exactly
    when its one fading gain g ~ Exp(1) leaves the device short of energy.
    Its verdict at g comes from the scalar oracles, at delta_fixed or
    anywhere on the solver's delta grid, and its outage probability from
    the edges of the set where it holds (Nasir, Zhou, Durrani and Kennedy,
    IEEE TWC 2013). On round 0 of trials 0-19999 of default.yaml at M = 1,
    one link round per regime and mode gives an outage rate within 4
    binomial standard errors of it, in each of three regimes."""
    base = load_config(str(ROOT / "configs" / "default.yaml"))
    base = merge(base, {"device_count": 1, "device_pays_downlink": False})
    n, dist = 20000, float(build(base).distances_m[0])
    gains = trial_fading(base.master_seed, np.arange(n), [0], 1)[0]
    solver_grid = np.append(np.arange(DELTA_MIN, DELTA_MAX, 1e-3), DELTA_MAX)
    payload = 32.0 * base.data.dim  # payload_bits unset: 32 bits per model coordinate
    z = []
    for ptx_ul, kappa, bandwidth in SINGLE_DEVICE_REGIMES:
        regime = {"link.ptx_ul_w": ptx_ul, "compute.kappa": kappa, "link.bandwidth_hz": bandwidth}
        for mode in ("fixed", "optimized"):
            cfg = merge(base, {**regime, "delta_mode": mode})
            link, c, h = cfg.link, cfg.compute, cfg.harvest
            phys = link_round(cfg, ChannelRealization(gains, np.array([dist])))
            outage = ~phys.energy.feasible.all(axis=-1) | ~np.isfinite(phys.delay())
            compute = c.kappa, c.cycles_per_bit, c.data_bits, c.local_iters, c.cpu_hz
            e_compute = oracles.e_compute(*compute)
            deltas = [cfg.delta_fixed] if mode == "fixed" else solver_grid

            def feasible(g):
                prx = oracles.rx_power(link.ptx_ul_w, dist, link.pathloss_exponent, g)
                snr = oracles.sinr_value(prx, 0.0, link.noise_power_ul_w)
                t_up = oracles.transmit_time(payload, oracles.shannon_rate(link.bandwidth_hz, snr))
                spend = e_compute + oracles.e_transmit(t_up, link.ptx_ul_w)
                downlink = link.ptx_dl_w, dist, link.pathloss_exponent, g, 0.0
                downlink += link.noise_power_dl_w, link.bandwidth_hz, payload, spend, False
                verdicts = oracles.delta_feasibility_grid(*downlink, h.a1, h.a2, h.a3, deltas)
                return verdicts.any()

            law = 1.0 - oracles.exponential_mass(feasible)
            z.append((np.count_nonzero(outage) / n - law) / math.sqrt(law * (1.0 - law) / n))
    assert len(z) == 6 and max(map(abs, z)) < 4.0, z


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
    rec = run_trial(scenario, [0])
    cfg = scenario.config
    level = np.full(cfg.device_count, cfg.battery_initial_j)
    (rounds,) = recorded_rows(rec, "e_total_j", "e_harvest_j", "participate", "battery_j")
    for e_total, e_harvest, participate, battery in rounds:
        expected_part = np.isfinite(e_total) & (level + e_harvest - e_total >= 0.0)
        assert np.array_equal(participate, expected_part)
        level = level + e_harvest - np.where(participate, e_total, 0.0)
        assert np.array_equal(battery, level)
        assert np.all(battery >= 0.0)


def test_battery_funds_at_most_two_rounds_each():
    """Every round bills at least ~2 mJ (the compute term alone) against
    microjoule harvests, so a 5 mJ battery pays for at most two rounds per
    device, and with eight rounds and three devices some round must see
    nobody participate. A skipping device may re-enter later when a cheap
    round comes, so only the budget arithmetic is pinned, not a schedule."""
    scenario = build(battery_config())
    rec = run_trial(scenario, [0])
    participate = rec["participate"][0, : rec["rounds_done"][0]]
    assert np.all(participate[0])
    paid = np.sum(participate, axis=0)
    assert np.all(paid <= 2)

    idle = np.flatnonzero(~participate.any(axis=1))
    assert len(idle) >= 2
    # Skipping devices stop gating the round: only downlink and server time remain.
    r = idle[0]
    assert rec["t_uplink_max_s"][0, r] == 0.0
    assert rec["t_local_max_s"][0, r] == 0.0
    assert rec["t_total_s"][0, r] == rec["t_downlink_max_s"][0, r] + rec["t_uav_s"][0, r]


def test_empty_battery_stalls_training_but_still_harvests():
    scenario = build(battery_config(battery_initial_j=0.0, rounds=4))
    rec = run_trial(scenario, [0])
    done = rec["rounds_done"][0]
    battery = rec["battery_j"][0, :done]
    assert not np.any(rec["participate"][0, :done])
    assert np.all(rec["t_uplink_max_s"][0, :done] == 0.0)
    assert np.all(battery > 0.0)
    assert len(set(rec["train_loss"][0, :done].tolist())) == 1
    assert len(set(rec["test_metric"][0, :done].tolist())) == 1
    # Harvest-only rounds keep accumulating charge.
    assert np.all(battery[-1] > battery[0])


def test_battery_disabled_records_no_levels():
    scenario = build(small_config())
    rec = run_trial(scenario, [0])
    assert rec["battery_j"] is None
    assert np.all(rec["participate"][0, 0])


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


def test_monte_carlo_rejects_a_scenario_of_another_config():
    """A scenario passed to run_monte_carlo must be the one built from its
    config: one of another round and device count, or of the same geometry
    under another trainer, is an error, not a run that mixes the two."""
    cfg = small_config(monte_carlo_trials=3)
    with pytest.raises(ValueError, match="another config"):
        run_monte_carlo(cfg, build(replace(cfg, rounds=4, device_count=6)))
    diverging = replace(cfg, trainer=replace(cfg.trainer, learning_rate=1e60))
    with pytest.raises(ValueError, match="another config"):
        run_monte_carlo(diverging, build(cfg))
    assert run_monte_carlo(diverging, build(diverging)).n_failed == 3


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


def assert_same_records(a, b, trials=slice(None)):
    """Two block records agree on the given trials column for column: every
    (T,) column, the error messages included, and every recorded round bit for bit."""
    assert a.keys() == b.keys()
    a, b = (BlockRecord({k: c if c is None else c[trials] for k, c in r.items()}) for r in (a, b))
    done = a.recorded()
    for name, x in a.items():
        y = b[name]
        if x is None or y is None:
            assert x is y, name
        elif x.ndim == 1:  # trial_index, rounds_done, error and the outage counts
            assert x.tolist() == y.tolist(), name
        else:
            assert np.array_equal(x[done], y[done]), name


def joined(records):
    """The records of blocks of consecutive trials as the record of one block."""
    columns = {k: [r[k] for r in records] for k in records[0]}
    return BlockRecord({k: c[0] if c[0] is None else np.concatenate(c) for k, c in columns.items()})


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
MINIBATCH = TrainerConfig(learning_rate=0.1, batch_size=5)
# Minibatch training over two local iterations a round.
TWO_ITERS = replace(ScenarioConfig().compute, local_iters=2)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(monte_carlo_trials=4, rounds=3, delta_fixed=0.37),
        OPTIMIZED_BATTERY,
        MIXED_GRID,
        dict(monte_carlo_trials=4, rounds=4, trainer=MINIBATCH, compute=TWO_ITERS),
        dict(OPTIMIZED_BATTERY, trainer=MINIBATCH),
    ],
    ids=["fixed", "optimized-battery", "mixed-grid", "minibatch", "minibatch-battery"],
)
def test_block_of_trials_equals_single_trials(kwargs):
    """A block gives, field for field, the trials run one by one: its
    trials share one batched link round per round but nothing else, each
    draws its minibatches from its own training stream, and each records
    which of its own devices the solver scanned on the grid."""
    cfg = small_config(**kwargs)
    scenario = build(cfg)
    trials = range(cfg.monte_carlo_trials)
    block = run_trial(scenario, trials)
    singles = [run_trial(scenario, [t]) for t in trials]
    assert len(block["trial_index"]) == len(singles)
    assert_same_records(block, joined(singles))
    with pytest.raises(ValueError):
        run_trial(scenario, [])  # an empty block is a driver bug, never silently empty
    if kwargs is MIXED_GRID:
        assert block["grid"][:, 2].any(-1).tolist() == [True, False, False, False]


def test_moments_training_block_equals_single_trials():
    """Linear full-batch training steps every (trial, device) row on its
    set's moments in one batched A @ w; on default.yaml in the contested
    regime, where the battery sits other devices out in each trial, a block
    of 7 trials gives, field for field and bit for bit, 7 one-trial blocks."""
    cfg = merge(load_config(str(ROOT / "configs" / "default.yaml")), CONTESTED_RUN)
    scenario = build(replace(cfg, monte_carlo_trials=7))
    assert cfg.trainer.task == "linear"
    assert not cfg.trainer.minibatch(scenario.train_sets.count)
    block = run_trial(scenario, range(7))
    participate = block["participate"]
    assert not participate.all() and len({m.tobytes() for m in participate}) > 1
    assert_same_records(block, joined([run_trial(scenario, [t]) for t in range(7)]))


def test_minibatch_training_consumes_one_stream_per_trial():
    """Each trial trains from one ``("trial", t, "train")`` generator,
    consumed round after round: a loop that trains every trial alone from
    its own ``rng_stream`` gives run_trial's models, so its scores, bit for bit."""
    overrides = {"monte_carlo_trials": 3, "rounds": 4, "compute.local_iters": 2}
    cfg = merge(load_config(str(ROOT / "configs" / "accuracy.yaml")), overrides)
    scenario, task = build(cfg), cfg.trainer.task
    assert cfg.trainer.minibatch(scenario.train_sets.count)
    block = run_trial(scenario, range(3))
    assert block["rounds_done"].tolist() == [4] * 3 and block["participate"].all()
    sets = (scenario.train_sets, scenario.val_set, scenario.test_set)
    metrics = (global_loss, evaluate_metric, evaluate_metric)
    for t in range(3):
        rng, w = rng_stream(cfg.master_seed, "trial", t, "train"), scenario.w0[None, :]
        for r in range(4):
            draws = minibatch_draws([rng], 1, 2, scenario.train_sets.targets.shape)[:, 0]
            w = run_round(w, scenario.train_sets, cfg.trainer, 2, draws).models
            scores = [float(metric(w, data, task)[0]) for metric, data in zip(metrics, sets)]
            names = ("train_loss", "val_metric", "test_metric")
            assert [block[name][t, r] for name in names] == scores, (t, r)


def test_draw_chunking_leaves_every_record_unchanged(monkeypatch):
    """The learning pass draws a block's minibatch uniforms a chunk of
    rounds at a time. On accuracy.yaml under the contested battery overrides,
    where the trials' devices sit out different rounds, and with trial 1
    stopped in round 2, one-round chunks and uneven ones (4 + 2) give the
    record of the one chunk that the default bound draws, bit for bit."""
    cfg = merge(load_config(str(ROOT / "configs" / "accuracy.yaml")), CONTESTED_RUN)
    scenario = build(cfg)
    per_round = cfg.monte_carlo_trials * cfg.compute.local_iters * scenario.train_sets.targets.size
    assert cfg.trainer.minibatch(scenario.train_sets.count)
    real_run_round, real_draws = scenario_module.run_round, scenario_module.minibatch_draws
    calls, chunks = [], []

    def run_round(models, *args):
        step = real_run_round(models, *args)
        calls.append(len(models))
        if len(calls) == 3:  # round 2: trial 1 stops and keeps its input model
            kept = step.models.copy()
            kept[1] = models[1]
            return BlockRound(kept, {1: "injected"})
        return step

    def minibatch_draws(rngs, rounds, *args):
        chunks.append(rounds)
        return real_draws(rngs, rounds, *args)

    monkeypatch.setattr(scenario_module, "run_round", run_round)
    monkeypatch.setattr(scenario_module, "minibatch_draws", minibatch_draws)
    trials = range(cfg.monte_carlo_trials)
    whole = run_trial(scenario, trials)
    assert chunks == [cfg.rounds]
    assert whole["rounds_done"].tolist() == [6, 2, 6, 6, 6] and whole["error"][1] == "injected"
    participate = whole["participate"]
    assert not participate.all() and len({m.tobytes() for m in participate}) > 1
    for rounds_per_chunk, expected in ((1, [1] * 6), (4, [4, 2])):
        monkeypatch.setattr(scenario_module, "DRAW_BLOCK", rounds_per_chunk * per_round)
        calls.clear()
        chunks.clear()
        chunked = run_trial(scenario, trials)
        assert chunks == expected
        assert_same_records(chunked, whole)


def test_diverging_trial_stops_alone(monkeypatch):
    """A trial whose training diverges keeps the rounds it finished; the
    other trials of its block run on unchanged."""
    cfg = small_config(monte_carlo_trials=3, rounds=3)
    scenario = build(cfg)
    singles = joined([run_trial(scenario, [t]) for t in range(3)])

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
    assert [e is not None for e in block["error"]] == [False, True, False]
    assert block["error"][1] == "injected"
    assert block["rounds_done"][1] == 1
    # Only the recorded round counts its outage; the diverging round has no record.
    single = recorded_rows(singles, "t_total_s", "feasible")[1]
    outages = [not math.isfinite(t) or not feasible.all() for t, feasible in single]
    calls.clear()
    assert run_monte_carlo(cfg, scenario).record["outage_count"][1] == sum(outages[:1])
    assert_same_records(block, singles, [0, 2])
    for name in ("t_total_s", "train_loss"):
        assert block[name][1, 0] == singles[name][1, 0]


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
    assert (block["error"][1], block["rounds_done"][1]) == ("injected", 1)
    quiet, _ = run(late_report=False)
    assert_same_records(block, quiet)


# Five rounds, so two-round chunks split a block 2 + 2 + 1. In "device-major"
# the whole-block chunk's 200 fading states over 3 devices reduce device-major
# and a one-round chunk's 20 along the last axis.
CHUNKED = {
    "fixed": dict(monte_carlo_trials=3, rounds=5, delta_fixed=0.37),
    "optimized-battery": dict(OPTIMIZED_BATTERY, rounds=5),
    "grid": dict(MIXED_GRID, rounds=5),
    "minibatch": dict(monte_carlo_trials=3, rounds=5, trainer=MINIBATCH),
    # Every trial's loss overflows in round 1, so the block stops inside a chunk.
    "diverging": dict(monte_carlo_trials=3, rounds=5, trainer=TrainerConfig(learning_rate=1e60)),
    "device-major": dict(monte_carlo_trials=20, rounds=10),
}


@pytest.mark.parametrize("name", sorted(CHUNKED))
def test_chunking_leaves_every_record_unchanged(monkeypatch, name):
    """A block runs all its rounds in one chunk here. One-round chunks and
    uneven ones (2 + 2 + 1) give every record and every trial result bit
    for bit: nothing in a round's physics reads an earlier round. The
    learning pass makes the same run_round calls, inputs and masks bit for
    bit, at every chunking: chunks split only the physics."""
    cfg = small_config(**CHUNKED[name])
    scenario = build(cfg)
    trials = range(cfg.monte_carlo_trials)
    states = cfg.monte_carlo_trials * cfg.device_count
    assert cfg.rounds * states <= scenario_module.ROUND_BLOCK
    real_run_round, calls = scenario_module.run_round, []

    def run_round(models, *args):
        calls.append((np.asarray(models).tobytes(), np.asarray(args[-1]).tobytes()))
        return real_run_round(models, *args)

    monkeypatch.setattr(scenario_module, "run_round", run_round)
    with np.errstate(over="ignore", invalid="ignore"):
        whole = run_trial(scenario, trials)
        whole_calls = calls[:]
        assert len(whole_calls) == cfg.rounds
        for rounds_per_chunk in (1, 2):
            monkeypatch.setattr(scenario_module, "ROUND_BLOCK", rounds_per_chunk * states)
            calls.clear()
            chunked = run_trial(scenario, trials)
            assert calls == whole_calls, rounds_per_chunk
            assert len(chunked["trial_index"]) == len(whole["trial_index"])
            assert_same_records(chunked, whole)
    if name == "device-major":  # the whole block and one round take different paths
        shape = (cfg.monte_carlo_trials, cfg.device_count)
        wide, narrow = (np.zeros((r, *shape)) for r in (cfg.rounds, 1))
        assert channel._device_major(wide) is not None and channel._device_major(narrow) is None
    if name == "grid":  # some rounds solved on the grid and some by bisection
        assert set(whole["grid"][whole.recorded()].any(-1).tolist()) == {True, False}
    if name == "diverging":
        stopped = zip(whole["error"], whole["rounds_done"].tolist())
        assert [(e is not None, n) for e, n in stopped] == [(True, 1)] * 3


@pytest.mark.parametrize("name", sorted(CHUNKED))
def test_physics_does_not_depend_on_the_learning(monkeypatch, name):
    """A block whose every trial reports a training error in round 0 has
    the physics columns, t_total_s to battery_j, of the clean run bit for
    bit: the learning pass reads the participation mask and changes nothing
    the physics pass records."""
    cfg = small_config(**CHUNKED[name])
    scenario = build(cfg)
    trials = range(cfg.monte_carlo_trials)
    real_run_round, calls = scenario_module.run_round, []

    def run_round(models, *args):
        step = real_run_round(models, *args)
        calls.append(len(models))
        if len(calls) == 1:  # round 0: every trial's training fails
            return BlockRound(step.models, dict.fromkeys(range(len(models)), "injected"))
        return step

    with np.errstate(over="ignore", invalid="ignore"):
        clean = run_trial(scenario, trials)
        monkeypatch.setattr(scenario_module, "run_round", run_round)
        failed = run_trial(scenario, trials)
    assert failed["rounds_done"].tolist() == [0] * cfg.monte_carlo_trials
    assert failed["error"].tolist() == ["injected"] * cfg.monte_carlo_trials
    names = [f.name for f in fields(RoundMetrics)]
    for column in names[names.index("t_total_s") : names.index("battery_j") + 1]:
        x, y = clean[column], failed[column]
        if x is None or y is None:
            assert x is y, column
        else:
            assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), column


def test_held_out_failure_mid_chunk_stops_the_trial_at_its_round(monkeypatch):
    """A trial whose train loss, val or test metric is not finite in a round
    inside a chunk stops at that round with the per-round message: train
    loss before val before test, and before a training error the trial meets
    in a later round. It keeps the rounds before and their
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
    assert injected == [1, 2]  # the learning pass trained trials 1 and 2 past their failing rounds
    assert whole["error"].tolist() == [
        "non-finite test metric in round 3",
        "non-finite val metric in round 1",
        "non-finite train loss in round 2",
        None,
    ]
    assert whole["rounds_done"].tolist() == [3, 1, 2, 5]
    kept = BlockRecord(clean, rounds_done=whole["rounds_done"], error=whole["error"])
    rows = recorded_rows(kept, "t_total_s", "feasible")  # the outages of the kept rounds only
    outages = [sum(not math.isfinite(t) or not f.all() for t, f in row) for row in rows]
    unreachable = [sum(not math.isfinite(t) for t, _ in row) for row in rows]
    kept["outage_count"], kept["outage_unreachable"] = np.array(outages), np.array(unreachable)
    assert_same_records(whole, kept)
    assert run_monte_carlo(cfg, scenario).record["outage_count"].tolist() == outages
    monkeypatch.setattr(scenario_module, "ROUND_BLOCK", 4 * cfg.device_count)  # one-round chunks
    injected.clear()
    chunked = run_trial(scenario, range(4))
    assert injected == [1, 2]  # one-round physics chunks change nothing the learning trains
    assert_same_records(chunked, whole)


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
        assert_same_records(split, whole)


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
    rec = res.record
    diverged = (rec["error"][0], rec["rounds_done"][0], rec["outage_count"][0])
    assert diverged[0] is not None and diverged[1:] == (1, 1)
    records = [rm for row in recorded_rows(rec, "t_total_s", "feasible") for rm in row]
    outages = [not math.isfinite(t) or not feasible.all() for t, feasible in records]
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
    stopped = zip(res.record["error"], res.record["rounds_done"].tolist())
    assert [(e is not None, n) for e, n in stopped] == [(True, 1)] * 3
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
    assert res.n_failed == 1 and res.record["error"][4] is not None
    survivors = [row for row, e in zip(res.record["test_metric"], res.record["error"]) if e is None]
    assert len(survivors) == 11
    for r in range(3):
        metrics = [row[r] for row in survivors]
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
    trials = recorded_rows(res.record, "t_total_s", "test_metric", "feasible")
    ok = [rows for rows, e in zip(trials, res.record["error"]) if e is None]
    finite = [t for rows in ok for t, _, _ in rows if math.isfinite(t)]
    delay = [math.nan] * 4
    if finite:
        delay = [float(np.mean(finite)), float(np.std(finite))]
        delay += np.percentile(finite, [5, 95]).tolist()
    metric = [np.full(res.scenario.config.rounds, np.nan)] * 2
    if ok:
        test = np.array([[metric for _, metric, _ in rows] for rows in ok]).T.copy()
        metric = [test.mean(axis=1), test.std(axis=1)]
    records = [rm for rows in trials for rm in rows]
    outages = sum(not math.isfinite(t) or not feasible.all() for t, _, feasible in records)
    return [*delay, outages / len(records), *metric, len(trials) - len(ok)]


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
    trials = recorded_rows(res.record, "t_total_s", "feasible")
    records = [rm for rows in trials for rm in rows]
    unreachable = sum(not math.isfinite(t) for t, _ in records)
    short = sum(math.isfinite(t) and not feasible.all() for t, feasible in records)
    assert (res.outage_unreachable, res.outage_energy_short) == (unreachable, short)
    per_trial = [sum(not math.isfinite(t) for t, _ in rows) for rows in trials]
    assert res.record["outage_unreachable"].tolist() == per_trial


def _percentile(values, q):
    """The q-th percentile of ``values`` by linear interpolation between ranks."""
    ranked = sorted(values)
    pos = q / 100 * (len(ranked) - 1)
    lo = math.floor(pos)
    return ranked[lo] + (pos - lo) * (ranked[min(lo + 1, len(ranked) - 1)] - ranked[lo])


@pytest.mark.parametrize(
    "overrides",
    [{}, CONTESTED_RUN, {"trainer.learning_rate": 1e30}],
    ids=["default", "contested", "rate-1e30"],
)
def test_statistics_reduce_a_record_from_run_trial(overrides):
    """run_trial records its block's outage counts, so statistics reduces a
    record straight from run_trial: on one block of every trial it gives
    run_monte_carlo's table at one worker, bit for bit."""
    cfg = merge(load_config(str(ROOT / "configs" / "default.yaml")), {"monte_carlo_trials": 4})
    cfg = merge(cfg, {**overrides, "workers": 1})
    scenario = build(cfg)
    table = statistics(run_trial(scenario, range(cfg.monte_carlo_trials)))
    res = run_monte_carlo(cfg, scenario)
    assert list(table) == [f.name for f in fields(MonteCarloResult)][3:]
    for name, value in table.items():
        assert np.asarray(value).tobytes() == np.asarray(getattr(res, name)).tobytes(), name


def test_statistics_table_of_a_hand_built_record():
    """Every entry of the table over a 3-trial, 3-round, 2-device record, in
    the order of MonteCarloResult's fields, against a plain loop over the
    trial rows. Trial 0 has an unreachable round (an infinite delay) and an
    energy-short one; trial 1 stopped in round 1, and the filler past its
    stop must not count. With every trial failed, each per-round entry is
    a NaN array of its own."""
    t_total = np.array([[1.0, math.inf, 3.5], [2.0, 99.0, math.inf], [0.5, 1.5, 4.0]])
    feasible = np.ones((3, 3, 2), dtype=bool)
    feasible[0, 2, 1] = False  # trial 0's energy-short round
    feasible[1, 1:] = False  # filler past trial 1's stop
    test = np.array([[0.1, 0.25, 0.3], [0.4, -7.0, 9.0], [0.75, 0.8, 0.95]])
    stopped = "non-finite train loss in round 1"
    rec = BlockRecord(
        t_total_s=t_total,
        feasible=feasible,
        test_metric=test,
        val_metric=1.0 - test,
        trial_index=np.arange(3),
        rounds_done=np.array([3, 1, 3]),
        error=np.array([None, stopped, None], dtype=object),
    )
    # The outage columns run_trial records, by a loop over the recorded rounds.
    trials = recorded_rows(rec, "t_total_s", "feasible")
    rec["outage_unreachable"] = np.array([sum(not math.isfinite(t) for t, _ in r) for r in trials])
    short = [sum(math.isfinite(t) and not f.all() for t, f in rows) for rows in trials]
    rec["outage_count"] = rec["outage_unreachable"] + short
    assert rec["outage_count"].tolist() == [2, 0, 0]

    table = statistics(rec)
    assert list(table) == [f.name for f in fields(MonteCarloResult)][3:]
    ok = [k for k in range(3) if rec["error"][k] is None]
    finite = [t for k in ok for t in t_total[k] if math.isfinite(t)]
    assert finite == [1.0, 3.5, 0.5, 1.5, 4.0]
    mean = sum(finite) / len(finite)
    expected = {
        "delay_mean_s": mean,
        "delay_std_s": math.sqrt(sum((t - mean) ** 2 for t in finite) / len(finite)),
        "delay_p5_s": _percentile(finite, 5),
        "delay_p95_s": _percentile(finite, 95),
        "outage_rate": 2 / 7,
        "outage_unreachable": 1,
        "outage_energy_short": 1,
        "n_failed": 1,
    }
    for name, column in [("metric_mean", test), ("val_metric_mean", 1.0 - test)]:
        expected[name] = [sum(column[k, r] for k in ok) / len(ok) for r in range(3)]
    means = expected["metric_mean"]
    expected["metric_std"] = [
        math.sqrt(sum((test[k, r] - means[r]) ** 2 for k in ok) / len(ok)) for r in range(3)
    ]
    for name, value in expected.items():
        assert table[name] == pytest.approx(value, rel=1e-12, abs=0), name
    assert [type(table[name]) for name in ("outage_unreachable", "n_failed")] == [int, int]

    rec["error"] = np.array(["a", stopped, "c"], dtype=object)
    table = statistics(rec)
    assert table["n_failed"] == 3 and table["outage_rate"] == 2 / 7
    delays = [table[name] for name in list(table)[:4]]
    per_round = [table[name] for name in ("metric_mean", "metric_std", "val_metric_mean")]
    assert all(math.isnan(d) for d in delays)
    for column in per_round:
        assert column.shape == (3,) and np.isnan(column).all()
    assert len({id(column) for column in per_round}) == 3

def test_trial_rounds_view_reads_the_block_record():
    """A trial's rounds are a read-only sequence view of the Monte Carlo
    record: len, index (negative too), slice and iteration give records
    whose fields have their declared types, and a pickled result carries
    its one shared record once."""
    cfg = small_config(**OPTIMIZED_BATTERY)
    res = run_monte_carlo(cfg)
    block = res.trials
    view = block[1].rounds
    assert len(view) == cfg.rounds and view.record is res.record
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
    assert type(rm.round_index) is int
    assert rm.deltas.shape == rm.grid.shape == rm.battery_j.shape == (cfg.device_count,)
    assert rm.grid.dtype == rm.feasible.dtype == rm.participate.dtype == bool
    with pytest.raises(TypeError):
        view[0] = rm

    restored = pickle.loads(pickle.dumps(res))
    assert all(tr.rounds.record is restored.record for tr in restored.trials)
    for a, b in zip(restored.trials, block):
        assert_same_trial(a, b)
    one = len(pickle.dumps(replace(res, trials=[])))
    assert len(pickle.dumps(res)) < one + 2000  # the record once, not once per trial


@pytest.mark.parametrize(
    "kwargs",
    [dict(delta_fixed=0.37), dict(delta_mode="optimized"), MIXED_GRID],
    ids=["fixed", "bisection", "mixed-grid"],
)
def test_record_columns_are_the_round_fields(kwargs):
    """A record's round columns are the fields of RoundMetrics after
    round_index, and a trial's view fills each field from its own column.
    ``grid`` is each round's link-round mask, bit for bit: all False at a
    fixed ratio or when every device bisects, and True for the dipping devices."""
    cfg = small_config(**kwargs)
    scenario = build(cfg)
    res = run_monte_carlo(cfg, scenario)
    rec = res.record
    per_trial = {"trial_index", "rounds_done", "error", "outage_count", "outage_unreachable"}
    assert set(rec) - per_trial == {f.name for f in fields(RoundMetrics)[1:]}

    k = cfg.monte_carlo_trials - 1
    for rm in res.trials[k].rounds:
        for f in fields(RoundMetrics)[1:]:
            got, column = getattr(rm, f.name), rec[f.name]
            if column is None:
                assert got is None, f.name
            else:
                assert np.array_equal(got, column[k, rm.round_index]), f.name

    assert rec["grid"].dtype == bool
    assert rec["grid"].shape == (cfg.monte_carlo_trials, cfg.rounds, cfg.device_count)
    for t, r in np.ndindex(cfg.monte_carlo_trials, cfg.rounds):
        gains = trial_fading(cfg.master_seed, [t], [r], cfg.device_count)[0, 0]
        rnd = link_round(cfg, ChannelRealization(gains, scenario.distances_m))
        assert rnd.grid.tobytes() == rec["grid"][t, r].tobytes(), (t, r)
    assert rec["grid"].any() == (kwargs is MIXED_GRID)


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
            "delay_mean_s",
            "delay_std_s",
            "delay_p5_s",
            "delay_p95_s",
            "outage_rate",
            "outage_unreachable",
            "outage_energy_short",
            "n_failed",
        ]
    assert rows[0]["delay_mean_s"] != rows[1]["delay_mean_s"]


def test_sweep_reuses_fading_across_points():
    """A parameter with no physical effect leaves the paired delay stats
    bit-identical, which is exactly what common random numbers promise."""
    cfg = small_config()
    rows = sweep(cfg, "trainer.learning_rate", [0.05, 0.2])
    assert rows[0]["delay_mean_s"] == rows[1]["delay_mean_s"]
    assert rows[0]["delay_p95_s"] == rows[1]["delay_p95_s"]
    assert rows[0]["outage_rate"] == rows[1]["outage_rate"]


def test_sweep_checks_every_value_before_its_first_run(monkeypatch):
    """Every point's config is built before the first Monte Carlo run, so a
    value its field rejects raises with nothing run; a point records its
    field's value, so "20 dBm" reads 0.1 W."""
    runs = []
    monkeypatch.setattr(scenario_module, "run_monte_carlo", runs.append)
    with pytest.raises(ValueError, match="rounds expects an int, got 1.5"):
        sweep(ScenarioConfig(monte_carlo_trials=2, rounds=2), "rounds", [2, 3, 1.5])
    assert runs == []
    monkeypatch.undo()
    rows = sweep(ScenarioConfig(monte_carlo_trials=1, rounds=1), "link.ptx_ul_w", ["20 dBm"])
    assert rows[0]["param_value"] == pytest.approx(0.1, rel=1e-12)


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
    rec = run_trial(build(cfg), [0])
    assert rec["t_local_max_s"][0, 0] == local_train_time(cfg.compute)
    assert np.allclose(rec["e_total_j"][0, 0], compute_energy(cfg.compute), rtol=1e-12, atol=0.0)


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
    three = run_trial(scenario, [0, 1])
    two = run_trial(build(base), [0, 1])
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
