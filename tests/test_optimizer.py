"""Ratio-solver and placement tests."""

import tracemalloc
from dataclasses import replace
from typing import NamedTuple

import numpy as np
import pytest

import oracles
from swiptfl import optimizer
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
from swiptfl.config import ScenarioConfig, merge
from swiptfl.scenario import build, link_round, mean_round_delay, rng_stream, run_monte_carlo


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


def verdict(case, sol):
    """The ledger's feasibility flags at the solved ratios."""
    return ledger(
        case.profile,
        case.harvest,
        case.uplink,
        sol.downlink,
        device_pays_downlink=case.device_pays_downlink,
    ).feasible


def solve_one(case):
    """(delta, feasible) of the single device of an M=1 case."""
    sol = solve(case)
    return float(sol.deltas[0]), bool(verdict(case, sol)[0])


def _feasible(case, delta):
    down = downlink_budget(case.params, case.realization, delta, case.payload_dl_bits)
    return ledger(
        case.profile,
        case.harvest,
        case.uplink,
        down,
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
    assert sol.grid.tolist() == [True]
    assert verdict(case, sol)[0]
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
        uplink=replace(case.uplink, ptx_w=c * case.uplink.ptx_w),
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
        feasible = verdict(case, sol)
        assert sol.deltas.shape == (m,) and feasible.shape == (m,)
        assert not sol.grid.any()
        for i in range(m):
            ref = _oracle_solve(case, device=i)
            assert feasible[i] == (ref is not None)
            if ref is not None:
                assert abs(sol.deltas[i] - ref) <= 1e-4 + 1e-6
                solved += 1
            else:
                assert sol.deltas[i] == DELTA_MIN
    assert 10 <= solved <= 20 * m - 10


def test_bisection_count_is_the_least_that_reaches_tol():
    """Every bracket starts as [DELTA_MIN, DELTA_MAX] and halves at each
    step, so BISECTIONS steps leave it within TOL and one fewer would not."""
    width = DELTA_MAX - DELTA_MIN
    n = optimizer.BISECTIONS
    assert width / 2**n <= optimizer.TOL < width / 2 ** (n - 1)


def random_batch(rng, harvest, shape=(4, 6), peak_gain=1e20):
    """Positional arguments of one solve over a batch of devices with
    log-uniform channel quality, one unreachable device (zero gain, so an
    infinite downlink time) and one device at ``peak_gain``."""
    params = LinkParams(
        pathloss_exponent=2.0,
        bandwidth_hz=1e6,
        noise_power_ul_w=1e-9,
        noise_power_dl_w=1e-9,
        ptx_ul_w=0.1,
        ptx_dl_w=float(rng.uniform(0.5, 3.0)),
    )
    dists = rng.uniform(2.0, 30.0, shape)
    gains = 10.0 ** rng.uniform(-2.0, 1.5, shape) * dists**2
    gains.flat[[0, -1]] = 0.0, peak_gain
    realization = ChannelRealization(gains, dists)
    iters = int(rng.integers(0, 3))
    profile = ComputeProfile(
        kappa=1e-28, cycles_per_bit=1e3, data_bits=1e4, local_iters=iters, cpu_hz=1e9
    )
    uplink = uplink_budget(params, realization, 2048.0)
    payload_dl = float(rng.uniform(256.0, 8192.0))
    return params, realization, uplink, profile, harvest, payload_dl


@pytest.mark.parametrize("pays_downlink", [True, False], ids=["pays", "free"])
@pytest.mark.parametrize(
    "harvest",
    [HarvestModel(0.1, 0.5, 0.0), HarvestModel(0.4, -0.1, 0.1)],
    ids=["bisection", "dipping"],
)
def test_solver_equals_full_chain_reference(harvest, pays_downlink):
    """Reusing the ratio-independent terms across probes changes no bit:
    the solver equals a reference that runs the full downlink budget and
    ledger at every probe. The dipping curve takes the grid path."""
    rng = np.random.default_rng(71)
    interior = 0
    for _ in range(10):
        args = random_batch(rng, harvest)
        sol = optimize_delta_all(*args, device_pays_downlink=pays_downlink)
        deltas, feasible, grid = oracles.full_chain_delta_solve(*args, pays_downlink)
        _, _, uplink, profile, _, _ = args
        solved = ledger(profile, harvest, uplink, sol.downlink, device_pays_downlink=pays_downlink)
        assert np.array_equal(sol.deltas, deltas)
        assert np.array_equal(solved.feasible, feasible)
        assert np.array_equal(sol.grid, grid)
        assert sol.grid.any() == (harvest.a2 < 0)
        assert not feasible.all() and feasible.any()
        interior += int((feasible & (sol.deltas < DELTA_MAX)).sum())
    assert interior >= 40


@pytest.mark.parametrize("shape", [(6,), (4, 6), (2, 3, 6)])
@pytest.mark.parametrize("a2", [0.5, -0.1], ids=["bisection", "dipping"])
def test_solver_runs_the_full_chain_once(monkeypatch, shape, a2):
    """One solve makes one downlink_budget and one ledger call, on both
    bracket ends stacked, whatever the batch shape and the path taken."""
    calls = {"downlink_budget": 0, "ledger": 0}

    def counted(name):
        fn = getattr(optimizer, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(optimizer, name, counted(name))
    rng = np.random.default_rng(73)
    args = random_batch(rng, HarvestModel(0.1, a2, 0.1), shape, peak_gain=1.0)
    sol = optimize_delta_all(*args, device_pays_downlink=False)
    _, _, uplink, profile, harvest, _ = args
    feasible = ledger(profile, harvest, uplink, sol.downlink, device_pays_downlink=False).feasible
    assert sol.deltas.shape == shape
    assert (feasible & (sol.deltas > DELTA_MIN) & (sol.deltas < DELTA_MAX)).any()
    assert sol.grid.any() == (a2 < 0)
    assert calls == {"downlink_budget": 1, "ledger": 1}


@pytest.mark.parametrize("delta_fixed", [0.5, 0.2, 0.05])
def test_optimized_delta_dominates_fixed_on_paired_rounds(delta_fixed):
    """The same seeds at a fixed delta and at optimized delta, round by round.

    Fading streams are keyed by (trial, round), not by the delta mode, so
    the two runs see the same channels. The solver keeps a feasible ratio
    wherever one exists, so every device feasible at fixed delta is
    feasible at optimized delta. A ratio changes no device's interference,
    and a larger one never slows its download, so a round all-feasible at
    fixed delta is no slower at optimized delta once every solved ratio is
    at least the fixed one. At 0.5 that is exact: the solver's first
    bisection probe is 0.5 * (delta_min + delta_max), which is exactly 0.5,
    so wherever 0.5 is feasible the solved ratio is at least 0.5. At 0.2 and
    0.05 bisection stops within TOL below the feasibility edge, so a fixed
    ratio within TOL of that edge could beat the solved one; no such round
    occurs on these seeds.
    """
    assert 0.5 * (DELTA_MIN + DELTA_MAX) == 0.5
    base = merge(
        ScenarioConfig(),
        {
            "master_seed": 4,
            "monte_carlo_trials": 50,
            "rounds": 10,
            "delta_fixed": delta_fixed,
            "device_pays_downlink": False,
            "link.ptx_ul_w": 1e-6,
            "link.bandwidth_hz": 1e4,
            "compute.kappa": 1e-34,
        },
    )
    checked = faster = 0
    for m in (1, 3, 5, 10):
        fixed = run_monte_carlo(merge(base, {"device_count": m})).record
        solved = run_monte_carlo(merge(base, {"device_count": m, "delta_mode": "optimized"})).record
        assert np.array_equal(fixed["rounds_done"], solved["rounds_done"])
        recorded = fixed.recorded()[..., None]
        lost = recorded & fixed["feasible"] & ~solved["feasible"]
        assert not lost.any(), f"M={m}: {lost.sum()} devices feasible only at fixed delta"
        all_feasible = fixed.recorded() & fixed["feasible"].all(axis=-1)
        slower = all_feasible & (solved["t_total_s"] > fixed["t_total_s"])
        assert not slower.any(), f"M={m}: {slower.sum()} all-feasible rounds slower when solved"
        checked += int(all_feasible.sum())
        faster += int((all_feasible & (solved["t_total_s"] < fixed["t_total_s"])).sum())
    # Not vacuous: many rounds are all-feasible at fixed delta, and in some
    # of them the solved ratios make the round strictly faster.
    assert checked >= 1000 and faster > 0, (checked, faster)


def constant(value):
    return lambda candidates: np.full(len(candidates), value)


def per_candidate_objective(config, devices, candidates):
    """Mean round delay at each candidate, one 1-D link round per candidate
    and fading draw: the loop the batched placement objective replaces."""
    seed, m = config.master_seed, config.device_count
    draws = [
        rng_stream(seed, "placement-eval", t).exponential(1.0, m)
        for t in range(config.placement_trials)
    ]
    out = []
    for x, y, z in candidates:
        dx, dy = devices[:, 0] - x, devices[:, 1] - y
        dist = np.sqrt(dx * dx + dy * dy + z**2)
        totals = [link_round(config, ChannelRealization(gains, dist)).delay() for gains in draws]
        out.append(np.mean(totals))
    return np.array(out)


def lattice_and_centroid(config):
    xmin, xmax, ymin, ymax = config.area_bounds
    n, z = config.placement_grid_points, config.uav_altitude_m
    lattice = [
        (float(x), float(y), z)
        for x in np.linspace(xmin, xmax, n)
        for y in np.linspace(ymin, ymax, n)
    ]
    return lattice + [(0.5 * (xmin + xmax), 0.5 * (ymin + ymax), z)]


def test_place_uav_centroid_of_square():
    """The centroid is the only candidate, so its objective is not called."""
    calls = []

    def objective(candidates):
        calls.append(candidates)
        return np.ones(len(candidates))

    position = place_uav((0.0, 100.0, 0.0, 100.0), 20.0, "centroid", objective)
    assert position == (50.0, 50.0, 20.0)
    assert calls == []


def test_place_uav_rejects_bad_arguments():
    with pytest.raises(ValueError):
        place_uav((0.0, 1.0, 0.0, 1.0), 10.0, "hover", constant(1.0))
    with pytest.raises(ValueError):
        place_uav((0.0, 1.0, 0.0, 1.0), 10.0, "grid_search", constant(1.0), grid_points=1)


def test_place_uav_single_device_picks_nearest_lattice_point():
    """One device means no interference, so the delay shrinks as the UAV
    approaches it and the winning lattice point is the closest one.
    Cross-checked against exhaustive evaluation of every candidate."""
    config = ScenarioConfig(
        device_count=1,
        placement_trials=10,
        placement_grid_points=5,
        placement_mode="grid_search",
    )
    device = np.array([[83.0, 22.0]])
    calls = []

    def objective(candidates):
        calls.append(candidates.shape)
        return mean_round_delay(config, device, candidates)

    position = place_uav(
        config.area_bounds, config.uav_altitude_m, "grid_search", objective, grid_points=5
    )
    assert calls == [(26, 3)]

    candidates = lattice_and_centroid(config)
    nearest = min(candidates[:-1], key=lambda p: (p[0] - 83.0) ** 2 + (p[1] - 22.0) ** 2)
    assert position == nearest
    exhaustive = per_candidate_objective(config, device, candidates)
    assert objective(np.array([position]))[0] == exhaustive.min()


def test_place_uav_symmetric_devices_prefer_centroid():
    """Four devices at the corners of a square under a worst-distance
    objective: the center equalizes distances and must win, with the
    tie-break resolving any draws toward the centroid."""
    positions = np.array([[10.0, 10.0], [90.0, 10.0], [10.0, 90.0], [90.0, 90.0]])

    def worst_distance(pos):
        d2 = (
            (positions[:, 0] - pos[:, :1]) ** 2
            + (positions[:, 1] - pos[:, 1:2]) ** 2
            + pos[:, 2:] ** 2
        )
        return np.max(np.sqrt(d2), axis=1)

    area = (0.0, 100.0, 0.0, 100.0)
    position = place_uav(area, 20.0, "grid_search", worst_distance, grid_points=9)
    assert position == (50.0, 50.0, 20.0)


def test_grid_search_objective_never_worse_than_centroid():
    config = ScenarioConfig(device_count=3, placement_trials=8)
    rng = np.random.default_rng(43)
    devices = rng.uniform(0.0, 100.0, (3, 2))

    def objective(candidates):
        return mean_round_delay(config, devices, candidates)

    centroid = place_uav(config.area_bounds, config.uav_altitude_m, "centroid", objective)
    grid = place_uav(
        config.area_bounds, config.uav_altitude_m, "grid_search", objective, grid_points=5
    )
    assert objective(np.array([grid]))[0] <= objective(np.array([centroid]))[0]


def test_batched_placement_grid_scan_stays_small():
    """Optimized ratios under a dipping harvest curve send every device of
    every candidate and draw through the dense-grid scan; scanned over the
    whole batch at once, its temporaries would take hundreds of MB."""
    config = ScenarioConfig(
        device_count=10,
        placement_trials=8,
        placement_mode="grid_search",
        delta_mode="optimized",
        harvest=HarvestModel(a1=0.4, a2=-0.1, a3=0.1),
    )
    tracemalloc.start()
    try:
        scenario = build(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20

    candidates = lattice_and_centroid(config)
    reference = per_candidate_objective(config, scenario.device_positions, candidates)

    def tie_key(i):
        x, y, _ = candidates[i]
        return reference[i], (x - 50.0) ** 2 + (y - 50.0) ** 2, x, y

    best = min(range(len(candidates)), key=tie_key)
    assert scenario.uav_position == candidates[best]
    assert scenario.placement_objective_s == reference[best]
