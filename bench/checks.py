"""Output checks that recompute a Monte Carlo result without swiptfl's formulas.

Link budgets, energy ledgers and round delays are recomputed here as numpy
arrays over devices from the closed-form model, with interference from
prefix and suffix sums (never ``total - own``, which loses all precision
when one device dominates). Fading comes from the documented stream tag
``("trial", t, "fading", r)``, derived here by the documented rule, so a
change to the stream tags or their derivation fails these checks until the
benchmark is changed with it.

Every check function takes a ``Checker`` and reports through it, so a caller
counts checks attempted and failed, and a corrupted result fails the check
that should catch it.
"""

from __future__ import annotations

import math
import zlib

import numpy as np

RTOL = 1e-9  # recomputation differs from the package only by summation order
DELTA_STEP = 1e-5  # a solved delta must be within this of the feasibility edge
DELTA_MIN = 1e-3  # documented clamp of the power-splitting ratio
DELTA_MAX = 1.0 - DELTA_MIN


class Checker:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok, message: str) -> bool:
        self.attempted += 1
        ok = bool(np.all(ok))
        if not ok:
            self.failures.append(message)
        return ok

    def close(self, actual, expected, message: str, rtol: float = RTOL) -> bool:
        actual, expected = np.asarray(actual, dtype=float), np.asarray(expected, dtype=float)
        ok = actual.shape == expected.shape and np.allclose(
            actual, expected, rtol=rtol, atol=0.0, equal_nan=True
        )
        return self.expect(ok, message)


def stream(master_seed: int, *path) -> np.random.Generator:
    """The documented stream derivation: seed, path length, then each part,
    strings folded with crc32, fed to numpy's SeedSequence."""
    entropy = [int(master_seed), len(path)]
    entropy += [zlib.crc32(p.encode("utf-8")) if isinstance(p, str) else int(p) for p in path]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def _exclusive_sums(x: np.ndarray) -> np.ndarray:
    """sum_{j != i} x_j for every i, from prefix and suffix sums."""
    prefix = np.concatenate(([0.0], np.cumsum(x)[:-1]))
    suffix = np.concatenate((np.cumsum(x[::-1])[::-1][1:], [0.0]))
    return prefix + suffix


def _tx_time(bits: float, bandwidth: float, signal, interference, noise) -> np.ndarray:
    rate = bandwidth * np.log2(1.0 + signal / (interference + noise))
    with np.errstate(divide="ignore"):
        return np.where(rate > 0, bits / rate, np.inf)


class Physics:
    """The closed-form link, energy and delay model of one built scenario."""

    def __init__(self, scenario):
        cfg = scenario.config
        self.cfg = cfg
        self.m = cfg.device_count
        self.bits = 32.0 * cfg.data.dim if cfg.payload_bits is None else float(cfg.payload_bits)
        uav_bits = self.bits * (self.m if cfg.uav_payload_scales_with_m else 1)
        self.t_uav = cfg.uav_cycles_per_bit * uav_bits / cfg.uav_cpu_hz
        c = cfg.compute
        self.t_local = c.cycles_per_bit * c.data_bits * c.local_iters / c.cpu_hz
        self.e_compute = c.kappa * c.cycles_per_bit * c.data_bits * c.local_iters * c.cpu_hz**2

    def distances(self, positions: np.ndarray, uav) -> np.ndarray:
        dx, dy = positions[:, 0] - uav[0], positions[:, 1] - uav[1]
        return np.sqrt(dx * dx + dy * dy + uav[2] * uav[2])

    def round(self, distances: np.ndarray, gains: np.ndarray, deltas: np.ndarray) -> dict:
        link = self.cfg.link
        path_gain = gains / distances**link.pathloss_exponent
        p_ul, p_dl = link.ptx_ul_w * path_gain, link.ptx_dl_w * path_gain
        b = link.bandwidth_hz
        t_ul = _tx_time(self.bits, b, p_ul, _exclusive_sums(p_ul), link.noise_power_ul_w)
        t_dl = _tx_time(self.bits, b, deltas * p_dl, _exclusive_sums(p_dl), link.noise_power_dl_w)
        e_total = self.e_compute + t_ul * link.ptx_ul_w
        if self.cfg.device_pays_downlink:
            e_total = e_total + t_dl * link.ptx_dl_w
        h = self.cfg.harvest
        x = (1.0 - deltas) * p_dl
        p_h = np.maximum(0.0, h.a1 * x * x + h.a2 * x + h.a3)
        with np.errstate(invalid="ignore"):
            e_h = np.where(p_h > 0, t_dl * p_h, 0.0)
        return {
            "t_ul": t_ul,
            "t_dl": t_dl,
            "e_total": e_total,
            "e_harvest": e_h,
            "feasible": np.isfinite(e_total) & (e_total <= e_h),
        }

    def delay(self, t_ul: np.ndarray, t_dl: np.ndarray, participate: np.ndarray) -> float:
        up = np.where(participate, t_ul + self.t_local, 0.0)
        return float(np.max(up) + np.max(t_dl) + self.t_uav)

    def placement_objective(self, distances: np.ndarray) -> float:
        """Mean fixed-delta round delay over the placement-eval fading draws."""
        cfg = self.cfg
        deltas = np.full(self.m, cfg.delta_fixed)
        everyone = np.ones(self.m, dtype=bool)
        totals = []
        for t in range(cfg.placement_trials):
            gains = stream(cfg.master_seed, "placement-eval", t).exponential(1.0, self.m)
            rd = self.round(distances, gains, deltas)
            totals.append(self.delay(rd["t_ul"], rd["t_dl"], everyone))
        return math.fsum(totals) / len(totals)


def check_geometry(ck: Checker, scenario) -> None:
    cfg = scenario.config
    xmin, xmax, ymin, ymax = cfg.area_bounds
    rng = stream(cfg.master_seed, "placement")
    xs = rng.uniform(xmin, xmax, cfg.device_count)
    ys = rng.uniform(ymin, ymax, cfg.device_count)
    ck.close(
        scenario.device_positions, np.column_stack([xs, ys]), "positions != placement stream"
    )
    phys = Physics(scenario)
    ck.close(
        scenario.distances_m,
        phys.distances(scenario.device_positions, scenario.uav_position),
        "distances do not match positions and UAV position",
    )


def check_placement(ck: Checker, scenario) -> None:
    """Fixed-delta placement: recorded objective recomputes, and grid search
    is no worse than the centroid under the same fading draws."""
    cfg = scenario.config
    phys = Physics(scenario)
    objective = phys.placement_objective(
        phys.distances(scenario.device_positions, scenario.uav_position)
    )
    ck.close(scenario.placement_objective_s, objective, "placement objective does not recompute")
    if cfg.placement_mode == "grid_search":
        xmin, xmax, ymin, ymax = cfg.area_bounds
        centroid = (0.5 * (xmin + xmax), 0.5 * (ymin + ymax), cfg.uav_altitude_m)
        at_centroid = phys.placement_objective(phys.distances(scenario.device_positions, centroid))
        chosen = scenario.placement_objective_s
        ck.expect(
            chosen <= at_centroid * (1.0 + RTOL),
            f"grid-search objective {chosen} worse than centroid {at_centroid}",
        )


def _fading(cfg, trial: int, rnd: int) -> np.ndarray:
    """Squared Rayleigh gains of one round, from its documented stream tag."""
    return stream(cfg.master_seed, "trial", trial, "fading", rnd).exponential(1.0, cfg.device_count)


def check_rounds(ck: Checker, result) -> None:
    """Recompute every recorded round of every trial from its fading stream."""
    sc = result.scenario
    cfg = sc.config
    phys = Physics(sc)
    for trial in result.trials:
        outages = 0
        for rm in trial.rounds:
            where = f"trial {trial.trial_index} round {rm.round_index}"
            gains = _fading(cfg, trial.trial_index, rm.round_index)
            if cfg.delta_mode == "fixed":
                ck.expect(rm.deltas == cfg.delta_fixed, f"{where}: fixed deltas changed")
            rd = phys.round(sc.distances_m, gains, np.asarray(rm.deltas, dtype=float))
            ck.close(rm.e_total_j, rd["e_total"], f"{where}: e_total_j")
            ck.close(rm.e_harvest_j, rd["e_harvest"], f"{where}: e_harvest_j")
            part = rm.participate
            if not cfg.battery_ledger:
                ck.expect(part, f"{where}: a device sat out without a battery ledger")
            t_ul = np.max(np.where(part, rd["t_ul"], 0.0))
            ck.close(rm.t_uplink_max_s, t_ul, f"{where}: uplink time")
            t_local = np.max(np.where(part, phys.t_local, 0.0))
            ck.close(rm.t_local_max_s, t_local, f"{where}: local time")
            ck.close(rm.t_downlink_max_s, np.max(rd["t_dl"]), f"{where}: downlink time")
            ck.close(rm.t_uav_s, phys.t_uav, f"{where}: aggregation time")
            delay = phys.delay(rd["t_ul"], rd["t_dl"], part)
            ck.close(rm.t_total_s, delay, f"{where}: round delay")
            # Feasibility flags are compared away from the edge, where the
            # summation order cannot flip them.
            with np.errstate(invalid="ignore"):
                clear = np.isinf(rd["e_total"]) | (
                    np.abs(rd["e_harvest"] - rd["e_total"]) > RTOL * rd["e_total"]
                )
            ck.expect((rm.feasible == rd["feasible"]) | ~clear, f"{where}: feasible flags")
            outages += not math.isfinite(rm.t_total_s) or not bool(np.all(rm.feasible))
        ck.expect(trial.outage_count == outages, f"trial {trial.trial_index}: outage count")


def _feasible(phys: Physics, distances, gains, deltas, tol: float) -> np.ndarray:
    rd = phys.round(distances, gains, deltas)
    return np.isfinite(rd["e_total"]) & (rd["e_total"] <= rd["e_harvest"] * (1.0 + tol))


def check_deltas(ck: Checker, result) -> None:
    """Optimized delta is the feasibility edge: feasible at delta, infeasible
    DELTA_STEP above it (unless at delta_max); infeasible devices at delta_min."""
    sc = result.scenario
    cfg = sc.config
    phys = Physics(sc)
    for trial in result.trials:
        for rm in trial.rounds:
            where = f"trial {trial.trial_index} round {rm.round_index}"
            gains = _fading(cfg, trial.trial_index, rm.round_index)
            d = np.asarray(rm.deltas, dtype=float)
            ok_at = _feasible(phys, sc.distances_m, gains, d, RTOL)
            ok_at_strict = _feasible(phys, sc.distances_m, gains, d, -RTOL)
            up = np.minimum(d + DELTA_STEP, DELTA_MAX)
            ok_above = _feasible(phys, sc.distances_m, gains, up, 0.0)
            feas = rm.feasible
            ck.expect((d >= DELTA_MIN) & (d <= DELTA_MAX), f"{where}: delta out of range")
            ck.expect(ok_at[feas], f"{where}: a feasible device's delta is not feasible")
            ck.expect(
                ~ok_above[feas] | (d[feas] == DELTA_MAX),
                f"{where}: delta + {DELTA_STEP} is still feasible",
            )
            ck.expect(d[~feas] == DELTA_MIN, f"{where}: an infeasible device is not at delta_min")
            ck.expect(~ok_at_strict[~feas], f"{where}: a device flagged infeasible is feasible")


def check_battery(ck: Checker, result) -> None:
    """b_r = b_{r-1} + e_harvest - participate * e_total >= 0, and a device
    sits out exactly when it cannot pay."""
    cfg = result.scenario.config
    for trial in result.trials:
        battery = np.full(cfg.device_count, cfg.battery_initial_j)
        for rm in trial.rounds:
            where = f"trial {trial.trial_index} round {rm.round_index}"
            e_total, e_h, part = rm.e_total_j, rm.e_harvest_j, rm.participate
            after = battery + e_h - e_total
            scale = np.maximum(np.abs(battery) + np.abs(e_h), 1e-300)
            expected = battery + e_h - np.where(part, e_total, 0.0)
            b = np.asarray(rm.battery_j, dtype=float)
            ck.expect(np.abs(b - expected) <= RTOL * scale, f"{where}: battery update")
            ck.expect(b >= 0.0, f"{where}: negative battery")
            ck.expect(
                ~part | (np.isfinite(e_total) & (after >= -RTOL * scale)),
                f"{where}: a device trained without the energy to pay",
            )
            ck.expect(
                part | ~np.isfinite(e_total) | (after < RTOL * scale),
                f"{where}: a device that could pay sat out",
            )
            battery = b


def check_learning(ck: Checker, result) -> None:
    """Test accuracy is a share in [0, 1] and climbs from round 1 to the last."""
    for trial in result.trials:
        acc = np.array([rm.test_metric for rm in trial.rounds])
        where = f"trial {trial.trial_index}"
        ck.expect((acc >= 0.0) & (acc <= 1.0), f"{where}: accuracy outside [0, 1]")
    mean = np.asarray(result.metric_mean, dtype=float)
    ck.expect((mean >= 0.0) & (mean <= 1.0), "mean accuracy outside [0, 1]")
    ck.expect(mean[-1] > mean[0], f"mean accuracy did not climb: {mean[0]} -> {mean[-1]}")


def check_aggregates(ck: Checker, result) -> None:
    """delay_mean_s, outage_rate and metric_mean recompute from the records."""
    ok_trials = [tr for tr in result.trials if not tr.failed]
    finite = [rm.t_total_s for tr in ok_trials for rm in tr.rounds if math.isfinite(rm.t_total_s)]
    delay_mean = math.fsum(finite) / len(finite) if finite else math.nan
    ck.close(result.delay_mean_s, delay_mean, "delay_mean_s does not recompute", rtol=1e-12)
    executed = sum(len(tr.rounds) for tr in result.trials)
    outages = sum(
        not math.isfinite(rm.t_total_s) or not bool(np.all(rm.feasible))
        for tr in result.trials
        for rm in tr.rounds
    )
    ck.close(result.outage_rate, outages / executed, "outage_rate does not recompute", rtol=1e-12)
    rounds = result.scenario.config.rounds
    metric = []
    for r in range(rounds):
        values = [tr.rounds[r].test_metric for tr in ok_trials if len(tr.rounds) > r]
        metric.append(math.fsum(values) / len(values) if values else math.nan)
    ck.close(result.metric_mean, metric, "metric_mean does not recompute", rtol=1e-12)
    ck.expect(
        result.n_failed == sum(tr.failed for tr in result.trials), "n_failed does not match trials"
    )


def check_result(ck: Checker, result) -> None:
    """Every check that applies to the result's configuration."""
    cfg = result.scenario.config
    check_geometry(ck, result.scenario)
    if cfg.delta_mode == "fixed":
        check_placement(ck, result.scenario)
    check_rounds(ck, result)
    if cfg.delta_mode == "optimized":
        check_deltas(ck, result)
    if cfg.battery_ledger:
        check_battery(ck, result)
    if cfg.trainer.task == "logistic":
        check_learning(ck, result)
    check_aggregates(ck, result)


def same_outputs(a, b) -> bool:
    """Two results of one config agree bit for bit in every recorded round."""
    scalars = ("t_total_s", "train_loss", "test_metric")
    arrays = ("deltas", "e_total_j", "e_harvest_j", "participate")
    if len(a.trials) != len(b.trials):
        return False
    for ta, tb in zip(a.trials, b.trials):
        if ta.failed != tb.failed or ta.outage_count != tb.outage_count:
            return False
        if len(ta.rounds) != len(tb.rounds):
            return False
        for ra, rb in zip(ta.rounds, tb.rounds):
            if any(getattr(ra, f) != getattr(rb, f) for f in scalars):
                return False
            if not all(np.array_equal(getattr(ra, f), getattr(rb, f)) for f in arrays):
                return False
    return np.array_equal(a.metric_mean, b.metric_mean, equal_nan=True)
