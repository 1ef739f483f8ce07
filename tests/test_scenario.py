"""Scenario assembly, trial reproducibility, battery ledger, and sweeps."""

import math
from dataclasses import replace

import numpy as np
import pytest

import oracles
from swiptfl.energy import ComputeProfile, compute_energy
from swiptfl.fl_core import TrainerConfig
from swiptfl.scenario import (
    ScenarioConfig,
    build,
    rng_stream,
    run_monte_carlo,
    run_trial,
    sweep,
    with_override,
)
from swiptfl.timing import local_train_time


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


def test_build_rejects_mismatched_iteration_counts():
    cfg = small_config(trainer=TrainerConfig(learning_rate=0.1, local_iters=3))
    with pytest.raises(ValueError, match="local_iters"):
        build(cfg)


def test_build_is_deterministic_and_in_bounds():
    cfg = small_config()
    s1 = build(cfg)
    s2 = build(cfg)
    assert np.array_equal(s1.device_positions, s2.device_positions)
    assert s1.uav_position == s2.uav_position
    assert np.array_equal(s1.w0.params, s2.w0.params)
    assert np.array_equal(s1.train_sets[0].targets, s2.train_sets[0].targets)

    xmin, xmax, ymin, ymax = cfg.area_bounds
    assert np.all((s1.device_positions[:, 0] >= xmin) & (s1.device_positions[:, 0] <= xmax))
    assert np.all((s1.device_positions[:, 1] >= ymin) & (s1.device_positions[:, 1] <= ymax))
    assert np.all(s1.distances_m >= cfg.uav_altitude_m)
    assert s1.payload_ul_bits == 32.0 * cfg.data.dim
    assert s1.uav_payload_bits == s1.payload_ul_bits * cfg.device_count


def test_uav_payload_scaling_toggle():
    flat = build(small_config(uav_payload_scales_with_m=False))
    assert flat.uav_payload_bits == flat.payload_ul_bits


def test_run_trial_is_bit_reproducible():
    scenario = build(small_config())
    t1 = run_trial(scenario, 0)
    t2 = run_trial(scenario, 0)
    assert not t1.failed
    for a, b in zip(t1.rounds, t2.rounds):
        assert a.t_total_s == b.t_total_s
        assert a.train_loss == b.train_loss
        assert a.test_metric == b.test_metric
        assert np.array_equal(a.e_harvest_j, b.e_harvest_j)
        assert np.array_equal(a.deltas, b.deltas)


def test_distinct_trials_draw_distinct_fading():
    scenario = build(small_config())
    t0 = run_trial(scenario, 0)
    t1 = run_trial(scenario, 1)
    assert t0.rounds[0].t_total_s != t1.rounds[0].t_total_s


def test_outage_count_matches_round_records():
    scenario = build(small_config(monte_carlo_trials=1, rounds=4))
    trial = run_trial(scenario, 0)
    expected = sum(
        1
        for rm in trial.rounds
        if not math.isfinite(rm.t_total_s) or not bool(rm.feasible.all())
    )
    assert trial.outage_count == expected


def test_fixed_and_optimized_delta_modes():
    fixed = build(small_config(delta_fixed=0.37))
    rm = run_trial(fixed, 0).rounds[0]
    assert rm.delta_method == "fixed"
    assert np.all(rm.deltas == 0.37)

    opt = build(small_config(delta_mode="optimized"))
    rm = run_trial(opt, 0).rounds[0]
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
    rm = run_trial(scenario, 0).rounds[0]

    gain = float(rng_stream(11, "trial", 0, "fading", 0).exponential(1.0, 1)[0])
    dist = float(scenario.distances_m[0])
    link = cfg.link
    payload = scenario.payload_ul_bits

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
    t_server = oracles.t_uav(cfg.uav_cycles_per_bit, scenario.uav_payload_bits, cfg.uav_cpu_hz)
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
    trial = run_trial(scenario, 0)
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
    rounds = run_trial(scenario, 0).rounds
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
    rounds = run_trial(scenario, 0).rounds
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
    trial = run_trial(scenario, 0)
    assert trial.rounds[0].battery_j is None
    assert np.all(trial.rounds[0].participate)


# ---------------------------------------------------------------- aggregates


def test_monte_carlo_worker_count_does_not_change_results():
    cfg = small_config(monte_carlo_trials=4)
    serial = run_monte_carlo(cfg)
    parallel = run_monte_carlo(replace(cfg, workers=2))
    assert serial.delay_mean_s == parallel.delay_mean_s
    assert serial.outage_rate == parallel.outage_rate
    for a, b in zip(serial.trials, parallel.trials):
        assert a.trial_index == b.trial_index
        for ra, rb in zip(a.rounds, b.rounds):
            assert ra.t_total_s == rb.t_total_s
            assert ra.test_metric == rb.test_metric


def test_monte_carlo_metric_arrays_cover_every_round():
    cfg = small_config(rounds=3)
    res = run_monte_carlo(cfg)
    assert res.metric_mean.shape == (3,)
    assert res.metric_std.shape == (3,)
    assert np.all(np.isfinite(res.metric_mean))
    assert res.n_failed == 0
    assert 0.0 <= res.outage_rate <= 1.0


# ------------------------------------------------------------ overrides, sweep


def test_with_override_coerces_numbers():
    cfg = small_config()
    assert with_override(cfg, "rounds", 30.0).rounds == 30
    assert isinstance(with_override(cfg, "rounds", 30.0).rounds, int)
    assert with_override(cfg, "link.ptx_dl_w", 2).link.ptx_dl_w == 2.0
    bounds = with_override(cfg, "area_bounds", [0, 50, 0, 50]).area_bounds
    assert bounds == (0.0, 50.0, 0.0, 50.0)


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
    rm = run_trial(build(cfg), 0).rounds[0]
    assert rm.t_local_max_s == local_train_time(cfg.compute)
    assert np.allclose(rm.e_total_j, compute_energy(cfg.compute), rtol=1e-12, atol=0.0)