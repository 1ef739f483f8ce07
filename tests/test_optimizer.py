"""Ratio-solver and placement tests."""

from dataclasses import replace
from typing import NamedTuple

import numpy as np
import pytest

import oracles
from swiptfl.channel import (
    DELTA_MAX,
    DELTA_MIN,
    ChannelRealization,
    LinkBudget,
    LinkParams,
    downlink_budget,
    uplink_budget,
)
from swiptfl.energy import ComputeProfile, HarvestModel, compute_energy, ledger, transmit_energy
from swiptfl.optimizer import optimize_delta_all, place_uav


class Case(NamedTuple):
    """Everything the ratio solve needs for a realization of M=1 or more."""

    params: LinkParams
    realization: ChannelRealization
    payload_dl_bits: float
    uplink: LinkBudget
    profile: ComputeProfile
    harvest: HarvestModel
    device_pays_downlink: bool


def make_case(
    gain=1.0,
    dist=30.0,
    ptx_dl=1.0,
    ptx_ul=0.1,
    harvest=(0.1, 0.5, 0.0),
    local_iters=5,
    payload_ul=2048.0,
    payload_dl=2048.0,
    pays_downlink=True,
):
    params = LinkParams(
        pathloss_exponent=2.0,
        bandwidth_hz=1e6,
        noise_power_ul_w=1e-9,
        noise_power_dl_w=1e-9,
        ptx_ul_w=ptx_ul,
        ptx_dl_w=ptx_dl,
    )
    realization = ChannelRealization(np.atleast_1d(gain), np.atleast_1d(dist))
    profile = ComputeProfile(
        kappa=1e-28, cycles_per_bit=1e3, data_bits=1e4, local_iters=local_iters, cpu_hz=1e9
    )
    return Case(
        params=params,
        realization=realization,
        payload_dl_bits=payload_dl,
        uplink=uplink_budget(params, realization, payload_ul),
        profile=profile,
        harvest=HarvestModel(*harvest),
        device_pays_downlink=pays_downlink,
    )


def random_case(rng):
    """One device with a log-uniform channel quality so a healthy share of
    draws lands on each side of the energy-feasibility boundary."""
    dist = float(rng.uniform(2.0, 30.0))
    quality = 10.0 ** rng.uniform(-2.0, 1.5)
    return make_case(
        gain=quality * dist**2,
        dist=dist,
        ptx_dl=float(rng.uniform(0.5, 3.0)),
        harvest=(float(rng.uniform(0.0, 0.4)), float(rng.uniform(0.05, 1.0)), 0.0),
        local_iters=int(rng.integers(0, 3)),
        payload_dl=float(rng.uniform(256.0, 8192.0)),
        pays_downlink=bool(rng.random() < 0.75),
    )


def solve(case):
    return optimize_delta_all(
        case.params,
        case.realization,
        case.uplink,
        case.profile,
        case.harvest,
        case.payload_dl_bits,
        device_pays_downlink=case.device_pays_downlink,
    )


def solve_one(case):
    """(delta, feasible) of the single device of an M=1 case."""
    sol = solve(case)
    return float(sol.deltas[0]), bool(sol.feasible[0])


def _feasible(case, delta):
    down = downlink_budget(case.params, case.realization, delta, case.payload_dl_bits)
    return ledger(
        case.profile,
        case.harvest,
        case.uplink,
        down,
        delta,
        case.params.ptx_ul_w,
        case.params.ptx_dl_w,
        device_pays_downlink=case.device_pays_downlink,
    ).feasible


def test_slack_constraint_hits_upper_clamp():
    """Zero consumption (no iterations, empty uplink) under a generous flat
    harvest curve leaves every ratio feasible, so the solver takes the top."""
    case = make_case(local_iters=0, payload_ul=0.0, harvest=(0.0, 0.0, 100.0), ptx_dl=0.01)
    delta, feasible = solve_one(case)
    assert feasible
    assert delta == DELTA_MAX


def test_dead_harvest_curve_is_infeasible():
    case = make_case(harvest=(0.0, 0.0, 0.0))
    delta, feasible = solve_one(case)
    assert not feasible
    assert delta == DELTA_MIN


def test_returned_feasible_delta_revalidates_through_ledger():
    rng = np.random.default_rng(17)
    checked = 0
    for _ in range(100):
        case = random_case(rng)
        delta, feasible = solve_one(case)
        assert DELTA_MIN <= delta <= DELTA_MAX
        if not feasible:
            continue
        checked += 1
        assert _feasible(case, delta)[0]
    assert checked >= 10


def _oracle_solve(case, device=0, step=1e-4):
    deltas = np.arange(DELTA_MIN, DELTA_MAX, step)
    deltas = np.append(deltas, DELTA_MAX)
    p, r = case.params, case.realization
    fixed = compute_energy(case.profile) + transmit_energy(case.uplink.tx_time_s[device], p.ptx_ul_w)
    mask = oracles.delta_feasibility_grid(
        p.ptx_dl_w,
        r.distances_m[device],
        p.pathloss_exponent,
        r.gains_sq[device],
        oracles.interference(p.ptx_dl_w, r.gains_sq, r.distances_m, p.pathloss_exponent, device),
        p.noise_power_dl_w,
        p.bandwidth_hz,
        case.payload_dl_bits,
        fixed,
        case.device_pays_downlink,
        case.harvest.a1,
        case.harvest.a2,
        case.harvest.a3,
        deltas,
    )
    return oracles.largest_feasible_delta(mask, deltas)


def test_solver_agrees_with_dense_grid_oracle():
    rng = np.random.default_rng(29)
    n_feasible = 0
    n_infeasible = 0
    for _ in range(120):
        case = random_case(rng)
        delta, feasible = solve_one(case)
        ref = _oracle_solve(case)
        assert feasible == (ref is not None)
        if feasible:
            assert abs(delta - ref) <= 1e-3
            n_feasible += 1
        else:
            n_infeasible += 1
    # The sampler must exercise both verdicts or the test proves little.
    assert n_feasible >= 15
    assert n_infeasible >= 15


def test_solver_falls_back_to_grid_on_nonmonotone_feasibility():
    """A harvest curve that dips negative mid-range splits the feasible set
    in two. Its negative linear coefficient fails the nondecreasing-curve
    rule, so the device goes to the dense scan instead of bisection."""
    case = make_case(
        gain=2.0,
        dist=1.0,
        ptx_dl=2.0,
        harvest=(10.0, -8.0, 0.5),
        local_iters=0,
        pays_downlink=False,
    )
    # Confirm the construction: feasible at both ends, dead in the middle.
    assert _feasible(case, DELTA_MIN)[0]
    assert not _feasible(case, 0.85)[0]
    assert _feasible(case, DELTA_MAX)[0]

    sol = solve(case)
    assert sol.method == "grid"
    assert sol.feasible[0]
    assert sol.deltas[0] == DELTA_MAX


def test_solution_invariant_under_joint_energy_rescale():
    """Scaling every consumption term and the harvest curve by the same
    power of two flips no feasibility verdict, so the solved ratio is
    bit-identical. The uplink budget is reused as-is: its transmit time
    does not change, only the billed power does."""
    case = make_case(
        gain=140.0,
        dist=8.0,
        ptx_dl=2.0,
        harvest=(0.05, 0.4, 0.0),
        local_iters=0,
        pays_downlink=False,
    )
    d1, f1 = solve_one(case)
    assert f1
    assert DELTA_MIN < d1 < DELTA_MAX

    c = 4.0
    scaled = case._replace(
        params=replace(case.params, ptx_ul_w=c * case.params.ptx_ul_w),
        profile=replace(case.profile, kappa=c * case.profile.kappa),
        harvest=HarvestModel(c * case.harvest.a1, c * case.harvest.a2, c * case.harvest.a3),
    )
    d2, f2 = solve_one(scaled)
    assert f2
    assert d1 == d2


def test_optimize_delta_all_solves_interfering_devices_together():
    """Four devices solved in one call each land on their own oracle edge,
    the oracle seeing the interference of the other three."""
    rng = np.random.default_rng(37)
    m = 4
    solved = 0
    for _ in range(20):
        dists = rng.uniform(2.0, 30.0, m)
        case = make_case(
            gain=10.0 ** rng.uniform(-2.0, 1.5, m) * dists**2,
            dist=dists,
            harvest=(float(rng.uniform(0.0, 0.4)), float(rng.uniform(0.05, 1.0)), 0.0),
            local_iters=1,
        )
        sol = solve(case)
        assert sol.deltas.shape == (m,) and sol.feasible.shape == (m,)
        assert sol.method == "bisection"
        for i in range(m):
            ref = _oracle_solve(case, device=i)
            assert sol.feasible[i] == (ref is not None)
            if ref is not None:
                assert abs(sol.deltas[i] - ref) <= 1e-4 + 1e-6
                solved += 1
            else:
                assert sol.deltas[i] == DELTA_MIN
    assert 10 <= solved <= 20 * m - 10


def test_place_uav_centroid_of_square():
    sol = place_uav((0.0, 100.0, 0.0, 100.0), 20.0, "centroid", lambda pos: 1.0)
    assert sol.position == (50.0, 50.0, 20.0)
    assert sol.objective_s == 1.0


def test_place_uav_rejects_bad_arguments():
    with pytest.raises(ValueError):
        place_uav((0.0, 1.0, 0.0, 1.0), 10.0, "hover", lambda pos: 1.0)
    with pytest.raises(ValueError):
        place_uav((0.0, 1.0, 0.0, 1.0), 10.0, "grid_search", lambda pos: 1.0, grid_points=1)


def test_place_uav_single_device_picks_nearest_lattice_point():
    """One device means no interference, so the delay shrinks as the UAV
    approaches it and the winning lattice point is the closest one.
    Cross-checked against exhaustive evaluation of every candidate."""
    from swiptfl.scenario import ScenarioConfig, _delay_evaluator

    config = ScenarioConfig(
        device_count=1,
        placement_trials=10,
        placement_grid_points=5,
        placement_mode="grid_search",
    )
    device = np.array([[83.0, 22.0]])
    evaluator = _delay_evaluator(config, device, 128.0, 128.0, 128.0)
    sol = place_uav(
        config.area_bounds, config.uav_altitude_m, "grid_search", evaluator, grid_points=5
    )

    lattice = [
        (float(x), float(y), config.uav_altitude_m)
        for x in np.linspace(0.0, 100.0, 5)
        for y in np.linspace(0.0, 100.0, 5)
    ]
    nearest = min(lattice, key=lambda p: (p[0] - 83.0) ** 2 + (p[1] - 22.0) ** 2)
    assert sol.position == nearest
    exhaustive = min(evaluator(p) for p in lattice + [(50.0, 50.0, config.uav_altitude_m)])
    assert sol.objective_s == exhaustive


def test_place_uav_symmetric_devices_prefer_centroid():
    """Four devices at the corners of a square under a worst-distance
    objective: the center equalizes distances and must win, with the
    tie-break resolving any draws toward the centroid."""
    positions = np.array([[10.0, 10.0], [90.0, 10.0], [10.0, 90.0], [90.0, 90.0]])

    def worst_distance(pos):
        d2 = (positions[:, 0] - pos[0]) ** 2 + (positions[:, 1] - pos[1]) ** 2 + pos[2] ** 2
        return float(np.max(np.sqrt(d2)))

    sol = place_uav((0.0, 100.0, 0.0, 100.0), 20.0, "grid_search", worst_distance, grid_points=9)
    assert sol.position == (50.0, 50.0, 20.0)


def test_grid_search_objective_never_worse_than_centroid():
    from swiptfl.scenario import ScenarioConfig, _delay_evaluator

    config = ScenarioConfig(device_count=3, placement_trials=8)
    rng = np.random.default_rng(43)
    devices = rng.uniform(0.0, 100.0, (3, 2))
    evaluator = _delay_evaluator(config, devices, 128.0, 128.0, 384.0)
    centroid = place_uav(config.area_bounds, config.uav_altitude_m, "centroid", evaluator)
    grid = place_uav(
        config.area_bounds, config.uav_altitude_m, "grid_search", evaluator, grid_points=5
    )
    assert grid.objective_s <= centroid.objective_s