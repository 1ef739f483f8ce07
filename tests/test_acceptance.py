"""Acceptance gate: every shipping criterion, one test and one verdict line each.

Each test prints exactly one ``[PASS]``/``[FAIL] criterion N`` line before
asserting, so a plain ``pytest -v tests/test_acceptance.py`` reads as a
checklist. Criteria with a stated runtime budget measure and enforce it.
The reference values come from ``oracles.py``, which reimplements every
formula from scratch without importing the package under test.
"""

import csv
import json
import time

import numpy as np

import oracles
from swiptfl.channel import (
    DELTA_MAX,
    DELTA_MIN,
    ChannelRealization,
    LinkParams,
    achievable_rate,
    received_power,
    sinr,
    downlink_budget,
    tx_time,
    uplink_budget,
)
from swiptfl.energy import ComputeProfile, HarvestModel, compute_energy, harvest_power, ledger
from swiptfl.fl_core import (
    LocalDataset,
    ModelVector,
    TrainerConfig,
    global_loss,
    local_loss,
    loss_gradient,
    run_round,
    select_rounds,
)
from swiptfl.optimizer import optimize_delta_all
from swiptfl.scenario import DataConfig, ScenarioConfig, build, rng_stream, run_trial, sweep
from swiptfl import cli


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def rel_err(actual, reference) -> float:
    actual = float(actual)
    reference = float(reference)
    if actual == reference:
        return 0.0
    return abs(actual - reference) / max(abs(reference), 1e-300)


def test_criterion_01_link_chain_matches_oracles():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0

    for _ in range(1000):
        ptx = 10.0 ** rng.uniform(-2, 1)
        d = rng.uniform(1, 100)
        alpha = rng.uniform(2, 4)
        g = rng.exponential(1.0)
        worst = max(
            worst,
            rel_err(received_power(ptx, d, alpha, g), oracles.rx_power(ptx, d, alpha, g)),
        )

    for _ in range(1000):
        s = 10.0 ** rng.uniform(-12, 0)
        i = 0.0 if rng.random() < 0.2 else 10.0 ** rng.uniform(-12, 0)
        n = 10.0 ** rng.uniform(-13, -6)
        worst = max(worst, rel_err(sinr(s, i, n), oracles.sinr_value(s, i, n)))

    for _ in range(1000):
        w = 10.0 ** rng.uniform(3, 7)
        gamma = 10.0 ** rng.uniform(-6, 9)
        worst = max(worst, rel_err(achievable_rate(w, gamma), oracles.shannon_rate(w, gamma)))

    for _ in range(1000):
        bits = 0.0 if rng.random() < 0.1 else rng.uniform(1, 1e7)
        rate = 0.0 if rng.random() < 0.1 else 10.0 ** rng.uniform(2, 8)
        worst = max(worst, rel_err(tx_time(bits, rate), oracles.transmit_time(bits, rate)))

    for _ in range(1000):
        profile = ComputeProfile(
            kappa=10.0 ** rng.uniform(-29, -26),
            cycles_per_bit=rng.uniform(100, 5000),
            data_bits=10.0 ** rng.uniform(2, 6),
            local_iters=int(rng.integers(0, 11)),
            cpu_hz=10.0 ** rng.uniform(8, 9.5),
        )
        worst = max(
            worst,
            rel_err(
                compute_energy(profile),
                oracles.e_compute(
                    profile.kappa,
                    profile.cycles_per_bit,
                    profile.data_bits,
                    profile.local_iters,
                    profile.cpu_hz,
                ),
            ),
        )

    for _ in range(1000):
        model = HarvestModel(rng.uniform(-0.5, 0.5), rng.uniform(-1, 1), rng.uniform(-0.1, 0.1))
        x = 0.0 if rng.random() < 0.1 else 10.0 ** rng.uniform(-6, 1)
        worst = max(
            worst,
            rel_err(
                harvest_power(model, x), oracles.p_harvest(model.a1, model.a2, model.a3, x)
            ),
        )

    from swiptfl.timing import local_train_time, round_total

    for _ in range(1000):
        profile = ComputeProfile(
            kappa=1e-28,
            cycles_per_bit=rng.uniform(100, 5000),
            data_bits=10.0 ** rng.uniform(2, 6),
            local_iters=int(rng.integers(0, 11)),
            cpu_hz=10.0 ** rng.uniform(8, 9.5),
        )
        worst = max(
            worst,
            rel_err(
                local_train_time(profile),
                oracles.t_local(
                    profile.cycles_per_bit,
                    profile.data_bits,
                    profile.local_iters,
                    profile.cpu_hz,
                ),
            ),
        )

    for _ in range(1000):
        m = int(rng.integers(1, 11))
        t_up = (10.0 ** rng.uniform(-5, 1, m)).tolist()
        t_loc = (10.0 ** rng.uniform(-5, 1, m)).tolist()
        t_down = (10.0 ** rng.uniform(-5, 1, m)).tolist()
        t_server = 10.0 ** rng.uniform(-5, 0)
        worst = max(
            worst,
            rel_err(
                round_total(t_up, t_loc, t_down, t_server).t_total_s,
                oracles.t_round(t_up, t_loc, t_down, t_server),
            ),
        )

    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 5.0
    _report(1, ok, f"8x1000 randomized link-chain evals, max rel err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_round_equals_centralized_step():
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    worst = 0.0
    for k in range(100):
        dim = int(rng.integers(1, 51))
        m = int(rng.integers(1, 9))
        n = int(rng.integers(2, 7))
        task = "linear" if k % 2 == 0 else "logistic"
        blocks = [rng.standard_normal((n, dim)) for _ in range(m)]
        if task == "linear":
            targets = [rng.standard_normal(n) for _ in range(m)]
        else:
            targets = [rng.integers(0, 2, n).astype(float) for _ in range(m)]
        datasets = [LocalDataset(x, y) for x, y in zip(blocks, targets)]
        w0 = rng.standard_normal(dim)
        lr = rng.uniform(0.01, 1.0)

        cfg = TrainerConfig(learning_rate=lr, local_iters=1, task=task, batch_size=None)
        new_global, _ = run_round(ModelVector(w0), datasets, cfg)
        reference = oracles.centralized_step(w0, blocks, targets, lr, task)

        scale = max(float(np.max(np.abs(reference))), 1e-30)
        worst = max(worst, float(np.max(np.abs(new_global.params - reference))) / scale)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 10.0
    _report(2, ok, f"100 pooled-step equivalences, max rel err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_03_gradients_match_finite_differences():
    rng = np.random.default_rng(303)
    worst = 0.0
    for k in range(200):
        dim = int(rng.integers(1, 9))
        task = "linear" if k < 100 else "logistic"
        x = rng.standard_normal((1, dim))
        w = rng.standard_normal(dim)
        if task == "linear":
            # Keep the residual away from zero so the relative error is
            # measured against a healthy gradient magnitude.
            y = np.array([float(x[0] @ w) - rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 2.0)])
        else:
            y = np.array([float(rng.integers(0, 2))])
        data = LocalDataset(x, y)

        analytic = loss_gradient(ModelVector(w), data, task)
        fd = oracles.fd_gradient(lambda v: local_loss(ModelVector(v), data, task), w, h=1e-6)
        worst = max(
            worst,
            float(np.max(np.abs(analytic - fd))) / max(float(np.max(np.abs(fd))), 1e-12),
        )
    ok = worst <= 1e-5
    _report(3, ok, f"200 (w, sample) finite-difference checks, max rel err {worst:.2e}")


def test_criterion_04_global_loss_is_weighted_mean():
    rng = np.random.default_rng(404)
    worst = 0.0
    for k in range(100):
        dim = int(rng.integers(1, 13))
        m = int(rng.integers(1, 9))
        task = "linear" if k % 2 == 0 else "logistic"
        blocks, targets, datasets = [], [], []
        for _ in range(m):
            n = int(rng.integers(1, 9))
            x = rng.standard_normal((n, dim))
            y = rng.standard_normal(n) if task == "linear" else rng.integers(0, 2, n).astype(float)
            blocks.append(x)
            targets.append(y)
            datasets.append(LocalDataset(x, y))
        w = ModelVector(rng.standard_normal(dim))
        worst = max(
            worst,
            rel_err(
                global_loss(w, datasets, task),
                oracles.pooled_loss(w.params, blocks, targets, task),
            ),
        )
    ok = worst <= 1e-12
    _report(4, ok, f"100 pooled-vs-weighted-mean identities, max rel err {worst:.2e}")


def test_criterion_05_downlink_power_sweep_cuts_delay():
    start = time.perf_counter()
    cfg = ScenarioConfig(
        master_seed=2,
        device_count=10,
        monte_carlo_trials=500,
        rounds=1,
        placement_trials=2,
        delta_fixed=0.5,
        link=LinkParams(
            pathloss_exponent=2.7,
            bandwidth_hz=1e6,
            noise_power_ul_w=1e-13,
            noise_power_dl_w=1e-7,
            ptx_ul_w=0.1,
            ptx_dl_w=1.0,
        ),
    )
    values = [float(v) for v in np.logspace(-1.0, 1.0, 8)]
    rows = sweep(cfg, "link.ptx_dl_w", values)
    means = [row["mean_t_total_s"] for row in rows]
    elapsed = time.perf_counter() - start

    finite = all(np.isfinite(means))
    strict = all(a > b for a, b in zip(means, means[1:]))
    ok = finite and strict and elapsed < 120.0
    _report(
        5,
        ok,
        f"8-point downlink power sweep x500 paired trials strictly decreasing "
        f"({means[0]:.6f} .. {means[-1]:.6f} s), {elapsed:.1f}s",
    )


def test_criterion_06_accuracy_curve_improves():
    start = time.perf_counter()
    cfg = ScenarioConfig(
        master_seed=0,
        device_count=5,
        monte_carlo_trials=200,
        rounds=30,
        placement_trials=4,
        trainer=TrainerConfig(learning_rate=0.03, local_iters=1, task="logistic", batch_size=8),
        compute=ComputeProfile(
            kappa=1e-28, cycles_per_bit=1e3, data_bits=1e4, local_iters=1, cpu_hz=1e9
        ),
        data=DataConfig(
            dim=16,
            samples_per_device=30,
            val_samples=200,
            test_samples=400,
            noise=0.05,
            weight_scale=1.0,
            init_scale=0.01,
        ),
    )
    from swiptfl.scenario import run_monte_carlo

    result = run_monte_carlo(cfg)
    curve = result.metric_mean
    gain = float(curve[-1] - curve[0])
    slope = float(np.polyfit(np.arange(1, 31), curve, 1)[0])
    elapsed = time.perf_counter() - start
    ok = result.n_failed == 0 and gain >= 0.10 and slope >= 0.0 and elapsed < 180.0
    _report(
        6,
        ok,
        f"logistic 200x30: accuracy {curve[0]:.4f} -> {curve[-1]:.4f} "
        f"(gain {gain:+.4f}, slope {slope:+.5f}), {elapsed:.1f}s",
    )


def _context_case(rng):
    """One randomized single-device realization and the solver inputs for it.

    Mostly nonnegative harvest curves (prefix-feasible, bisection route)
    with a minority of dipping curves that exercise the dense-grid fallback.
    """
    dist = float(rng.uniform(2.0, 30.0))
    quality = 10.0 ** rng.uniform(-2.0, 1.5)
    if rng.random() < 0.15:
        harvest = HarvestModel(
            float(rng.uniform(0.3, 0.5)),
            float(rng.uniform(-0.2, 0.0)),
            float(rng.uniform(0.05, 0.2)),
        )
    else:
        harvest = HarvestModel(float(rng.uniform(0.0, 0.5)), float(rng.uniform(0.0, 1.0)), 0.0)
    params = LinkParams(
        pathloss_exponent=2.0,
        bandwidth_hz=1e6,
        noise_power_ul_w=1e-9,
        noise_power_dl_w=1e-9,
        ptx_ul_w=0.1,
        ptx_dl_w=float(rng.uniform(0.5, 3.0)),
    )
    realization = ChannelRealization([quality * dist**2], [dist])
    profile = ComputeProfile(
        kappa=1e-28,
        cycles_per_bit=1e3,
        data_bits=1e4,
        local_iters=int(rng.integers(0, 3)),
        cpu_hz=1e9,
    )
    return dict(
        params=params,
        realization=realization,
        uplink=uplink_budget(params, realization, 2048.0),
        profile=profile,
        harvest=harvest,
        payload_dl_bits=float(rng.uniform(256.0, 8192.0)),
        device_pays_downlink=bool(rng.random() < 0.75),
    )


def test_criterion_07_ratio_solver_matches_grid_oracle():
    rng = np.random.default_rng(707)
    start = time.perf_counter()
    step = 1e-4
    grid = np.append(np.arange(DELTA_MIN, DELTA_MAX, step), DELTA_MAX)
    worst_gap = 0.0
    verdict_mismatches = 0
    revalidation_failures = 0
    n_feasible = 0

    for _ in range(500):
        case = _context_case(rng)
        sol = optimize_delta_all(**case)
        delta, feasible = float(sol.deltas[0]), bool(sol.feasible[0])

        params, realization, uplink = case["params"], case["realization"], case["uplink"]
        fixed = compute_energy(case["profile"]) + uplink.tx_time_s[0] * params.ptx_ul_w
        harvest = case["harvest"]
        mask = oracles.delta_feasibility_grid(
            params.ptx_dl_w,
            realization.distances_m[0],
            params.pathloss_exponent,
            realization.gains_sq[0],
            0.0,
            params.noise_power_dl_w,
            params.bandwidth_hz,
            case["payload_dl_bits"],
            fixed,
            case["device_pays_downlink"],
            harvest.a1,
            harvest.a2,
            harvest.a3,
            grid,
        )
        reference = oracles.largest_feasible_delta(mask, grid)

        if feasible != (reference is not None):
            verdict_mismatches += 1
            continue
        if not feasible:
            continue
        n_feasible += 1
        worst_gap = max(worst_gap, abs(delta - reference))

        down = downlink_budget(params, realization, delta, case["payload_dl_bits"])
        led = ledger(
            case["profile"],
            harvest,
            uplink,
            down,
            delta,
            params.ptx_ul_w,
            params.ptx_dl_w,
            device_pays_downlink=case["device_pays_downlink"],
        )
        if not led.feasible[0]:
            revalidation_failures += 1

    elapsed = time.perf_counter() - start
    ok = (
        verdict_mismatches == 0
        and revalidation_failures == 0
        and worst_gap <= 1e-3
        and elapsed < 30.0
    )
    _report(
        7,
        ok,
        f"500 contexts ({n_feasible} feasible): verdict mismatches {verdict_mismatches}, "
        f"max |delta gap| {worst_gap:.2e}, ledger re-validation failures "
        f"{revalidation_failures}, {elapsed:.1f}s",
    )


def test_criterion_08_battery_semantics_hold_for_100_rounds():
    cfg = ScenarioConfig(
        master_seed=8,
        device_count=4,
        monte_carlo_trials=3,
        rounds=100,
        placement_trials=2,
        battery_ledger=True,
        battery_initial_j=5e-3,
    )
    scenario = build(cfg)
    link = cfg.link
    negatives = 0
    flag_mismatches = 0
    checked = 0

    for t in range(cfg.monte_carlo_trials):
        trial = run_trial(scenario, t)
        assert not trial.failed
        for rm in trial.rounds:
            if np.any(rm.battery_j < 0.0):
                negatives += 1
            gains = rng_stream(cfg.master_seed, "trial", t, "fading", rm.round_index).exponential(
                1.0, cfg.device_count
            )
            for i in range(cfg.device_count):
                d = float(scenario.distances_m[i])
                up_int = oracles.interference(
                    link.ptx_ul_w, gains, scenario.distances_m, link.pathloss_exponent, i
                )
                prx_ul = oracles.rx_power(link.ptx_ul_w, d, link.pathloss_exponent, gains[i])
                t_up = oracles.transmit_time(
                    scenario.payload_ul_bits,
                    oracles.shannon_rate(
                        link.bandwidth_hz,
                        oracles.sinr_value(prx_ul, up_int, link.noise_power_ul_w),
                    ),
                )
                dl_int = oracles.interference(
                    link.ptx_dl_w, gains, scenario.distances_m, link.pathloss_exponent, i
                )
                prx_dl = oracles.rx_power(link.ptx_dl_w, d, link.pathloss_exponent, gains[i])
                t_down = oracles.transmit_time(
                    scenario.payload_dl_bits,
                    oracles.shannon_rate(
                        link.bandwidth_hz,
                        oracles.sinr_value(
                            cfg.delta_fixed * prx_dl, dl_int, link.noise_power_dl_w
                        ),
                    ),
                )
                e_total = (
                    oracles.e_compute(
                        cfg.compute.kappa,
                        cfg.compute.cycles_per_bit,
                        cfg.compute.data_bits,
                        cfg.compute.local_iters,
                        cfg.compute.cpu_hz,
                    )
                    + oracles.e_transmit(t_up, link.ptx_ul_w)
                    + oracles.e_transmit(t_down, link.ptx_dl_w)
                )
                ph = oracles.p_harvest(
                    cfg.harvest.a1,
                    cfg.harvest.a2,
                    cfg.harvest.a3,
                    (1.0 - cfg.delta_fixed) * prx_dl,
                )
                e_h = t_down * ph if ph > 0.0 else 0.0
                if bool(rm.feasible[i]) != (e_total <= e_h):
                    flag_mismatches += 1
                checked += 1

    ok = negatives == 0 and flag_mismatches == 0 and checked == 1200
    _report(
        8,
        ok,
        f"3 trials x 100 rounds x 4 devices: negative batteries {negatives}, "
        f"infeasibility-flag mismatches {flag_mismatches} of {checked}",
    )


def test_criterion_09_cli_runs_are_deterministic(tmp_path):
    config_path = tmp_path / "config.yaml"
    config_path.write_text(
        "master_seed: 3\ndevice_count: 3\nmonte_carlo_trials: 2\nrounds: 2\nplacement_trials: 4\n"
    )
    outs = [tmp_path / f"o{i}" for i in range(3)]
    args = ["run", "--config", str(config_path), "--workers", "1"]
    assert cli.main(args + ["--out", str(outs[0])]) == 0
    assert cli.main(args + ["--out", str(outs[1])]) == 0
    assert cli.main(args + ["--out", str(outs[2]), "--seed", "99"]) == 0

    same = (outs[0] / "rounds.csv").read_bytes() == (outs[1] / "rounds.csv").read_bytes()
    different = (outs[0] / "rounds.csv").read_bytes() != (outs[2] / "rounds.csv").read_bytes()
    ok = same and different
    _report(9, ok, f"byte-identical reruns {same}, seed change alters output {different}")


def test_criterion_10_round_selection_tie_breaks():
    dim = 6
    x = np.eye(dim)
    w_true = np.linspace(1.0, 2.0, dim)
    y = x @ w_true
    train = [LocalDataset(x, y)]
    val = LocalDataset(x, y)
    test = LocalDataset(x, y)
    w0 = ModelVector(np.zeros(dim))

    # Error contracts by 0.25 per round: every extra round strictly helps.
    cfg = TrainerConfig(learning_rate=0.75 * dim, local_iters=1, task="linear")
    strict = select_rounds([1, 2, 4, 8], train, val, test, cfg, np.random.default_rng(0), w0)
    metrics = [row["val_metric"] for row in strict.table]
    strictly_improving = all(a > b for a, b in zip(metrics, metrics[1:]))
    largest_wins = strict.best_rounds == 8

    # Error contracts by 2e-5 per round: at 12-decimal resolution the metric
    # plateaus from the second round on, so the smallest such budget wins.
    cfg = TrainerConfig(learning_rate=(1.0 - 2e-5) * dim, local_iters=1, task="linear")
    plateau = select_rounds([1, 2, 3, 4], train, val, test, cfg, np.random.default_rng(0), w0)
    rounded = [round(row["val_metric"], 12) for row in plateau.table]
    plateau_shape = rounded[0] > rounded[1] and rounded[1] == rounded[2] == rounded[3]
    smallest_wins = plateau.best_rounds == 2

    ok = strictly_improving and largest_wins and plateau_shape and smallest_wins
    _report(
        10,
        ok,
        f"strict improvement picks {strict.best_rounds} (want 8); "
        f"plateau picks {plateau.best_rounds} (want 2)",
    )