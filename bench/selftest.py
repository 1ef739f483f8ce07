"""Each output check must pass a clean result and reject a corrupted one.

Run with ``python3 bench/run.py --self-test``. Small versions of the three
workloads are simulated once; every case then corrupts one recorded value
and asserts that the named check reports a failure.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

import checks
from checks import Checker
from workloads import WORKLOADS


def _small_result(root, workload_name: str, **extra):
    from swiptfl import cli, scenario

    workload = WORKLOADS[workload_name]
    cfg = cli.load_config(str(root / "configs" / workload.config))
    for path, value in (*workload.overrides, *extra.items()):
        cfg = scenario.with_override(cfg, path, value)
    return scenario.run_monte_carlo(cfg)


def _with_round(result, trial: int, rnd: int, **changes):
    trials = list(result.trials)
    rounds = list(trials[trial].rounds)
    rounds[rnd] = replace(rounds[rnd], **changes)
    trials[trial] = replace(trials[trial], rounds=rounds)
    return replace(result, trials=trials)


def _first(result, predicate):
    """(trial, round, device) of the first device where predicate(round) holds."""
    for t, tr in enumerate(result.trials):
        for r, rm in enumerate(tr.rounds):
            hits = np.flatnonzero(predicate(rm))
            if hits.size:
                return t, r, int(hits[0])
    raise LookupError("no round has a device of the kind this case corrupts")


def _bumped(array, index, fn):
    out = np.array(array, dtype=float)
    out[index] = fn(out[index])
    return out


def _cases(fixed, contested, minibatch):
    rm0 = fixed.trials[0].rounds[0]
    yield "round delay x 1.01", checks.check_rounds, _with_round(
        fixed, 0, 0, t_total_s=rm0.t_total_s * 1.01
    )
    yield "downlink time x 1.01", checks.check_rounds, _with_round(
        fixed, 0, 0, t_downlink_max_s=rm0.t_downlink_max_s * 1.01
    )
    yield "uplink time x 1.01", checks.check_rounds, _with_round(
        fixed, 0, 0, t_uplink_max_s=rm0.t_uplink_max_s * 1.01
    )
    yield "e_total_j x (1 + 1e-6)", checks.check_rounds, _with_round(
        fixed, 0, 0, e_total_j=_bumped(rm0.e_total_j, 3, lambda v: v * (1 + 1e-6))
    )
    yield "e_harvest_j x (1 + 1e-6)", checks.check_rounds, _with_round(
        fixed, 0, 0, e_harvest_j=_bumped(rm0.e_harvest_j, 3, lambda v: v * (1 + 1e-6))
    )
    tr0 = fixed.trials[0]
    yield "outage count + 1", checks.check_rounds, replace(
        fixed, trials=[replace(tr0, outage_count=tr0.outage_count + 1), *fixed.trials[1:]]
    )
    yield "delay_mean_s x (1 + 1e-9)", checks.check_aggregates, replace(
        fixed, delay_mean_s=fixed.delay_mean_s * (1 + 1e-9)
    )
    executed = sum(len(tr.rounds) for tr in contested.trials)
    yield "outage_rate off by one round", checks.check_aggregates, replace(
        contested, outage_rate=contested.outage_rate - 1.0 / executed
    )
    yield "metric_mean[-1] + 1e-6", checks.check_aggregates, replace(
        fixed, metric_mean=_bumped(fixed.metric_mean, -1, lambda v: v + 1e-6)
    )
    yield "distances x 1.001", checks.check_geometry, replace(
        fixed.scenario, distances_m=fixed.scenario.distances_m * 1.001
    )
    yield "placement objective x 1.01", checks.check_placement, replace(
        fixed.scenario, placement_objective_s=fixed.scenario.placement_objective_s * 1.01
    )
    # A consistent but worse placement: a corner of the area, with its own
    # objective recorded, must lose to the centroid.
    sc = minibatch.scenario
    phys = checks.Physics(sc)
    corner = (sc.config.area_bounds[0], sc.config.area_bounds[2], sc.config.uav_altitude_m)
    yield "grid search picks a corner", checks.check_placement, replace(
        sc,
        uav_position=corner,
        placement_objective_s=phys.placement_objective(phys.distances(sc.device_positions, corner)),
    )
    yield "accuracy does not climb", checks.check_learning, replace(
        minibatch, metric_mean=minibatch.metric_mean[::-1].copy()
    )
    t, r, i = _first(minibatch, lambda rm: np.array([True]))
    yield "accuracy 1.5", checks.check_learning, _with_round(minibatch, t, r, test_metric=1.5)

    t, r, i = _first(contested, lambda rm: rm.feasible & (rm.deltas < 0.99))
    d = contested.trials[t].rounds[r].deltas
    yield "feasible delta + 1e-3", checks.check_deltas, _with_round(
        contested, t, r, deltas=_bumped(d, i, lambda v: v + 1e-3)
    )
    yield "feasible delta - 1e-3", checks.check_deltas, _with_round(
        contested, t, r, deltas=_bumped(d, i, lambda v: v - 1e-3)
    )
    t, r, i = _first(contested, lambda rm: ~rm.feasible)
    d = contested.trials[t].rounds[r].deltas
    yield "infeasible delta moved off delta_min", checks.check_deltas, _with_round(
        contested, t, r, deltas=_bumped(d, i, lambda v: 0.5)
    )
    t, r, i = _first(contested, lambda rm: rm.feasible)
    rm = contested.trials[t].rounds[r]
    flags = rm.feasible.copy()
    flags[i] = False
    yield "a feasible device flagged infeasible at delta_min", checks.check_deltas, _with_round(
        contested, t, r, feasible=flags, deltas=_bumped(rm.deltas, i, lambda v: checks.DELTA_MIN)
    )
    t, r, i = _first(contested, lambda rm: np.array([True]))
    rm = contested.trials[t].rounds[r]
    yield "battery entry negative", checks.check_battery, _with_round(
        contested, t, r, battery_j=_bumped(rm.battery_j, i, lambda v: -1e-12)
    )
    yield "battery entry + 1 %", checks.check_battery, _with_round(
        contested, t, r, battery_j=_bumped(rm.battery_j, i, lambda v: v * 1.01 + 1e-30)
    )
    t, r, i = _first(contested, lambda rm: ~rm.participate)
    rm = contested.trials[t].rounds[r]
    flipped = rm.participate.copy()
    flipped[i] = True
    yield "a device that cannot pay trains", checks.check_battery, _with_round(
        contested, t, r, participate=flipped
    )


def main(root) -> int:
    fixed = _small_result(root, "fixed-m200", device_count=20, monte_carlo_trials=2)
    contested = _small_result(
        root, "contested-m50", device_count=10, monte_carlo_trials=4, placement_trials=3
    )
    minibatch = _small_result(root, "minibatch-m5", monte_carlo_trials=10, placement_grid_points=3)

    failures = 0
    for name, result in (("fixed", fixed), ("contested", contested), ("minibatch", minibatch)):
        ck = Checker()
        checks.check_result(ck, result)
        ok = not ck.failures and ck.attempted > 0
        failures += not ok
        print(f"[{'PASS' if ok else 'FAIL'}] clean {name} result passes {ck.attempted} checks"
              + ("" if ok else f": {ck.failures[:3]}"))
    for name, check, corrupted in _cases(fixed, contested, minibatch):
        ck = Checker()
        check(ck, corrupted)
        ok = bool(ck.failures)
        failures += not ok
        print(f"[{'PASS' if ok else 'FAIL'}] {check.__name__} rejects: {name}")
    print(f"{failures} self-test failures")
    return 1 if failures else 0
