"""Scenario assembly, seeded Monte Carlo trials, and parameter sweeps.

Randomness discipline: every random draw comes from a named stream derived
from the master seed via :func:`rng_stream`, so any trial, round, or device
can be reproduced in isolation and sweeps over a physical parameter reuse
identical fading (common random numbers). Stream tags used here:

* ``("placement",)`` device positions
* ``("placement-eval", t)`` fading for placement-candidate evaluation
* ``("data",)`` synthetic federated datasets
* ``("init",)`` initial global model
* ``("trial", t, "fading", r)`` per-round channel gains
* ``("trial", t, "train", r, i)`` per-device minibatch sampling
"""

from __future__ import annotations

import math
import time
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace
from itertools import repeat

import numpy as np

from .channel import (
    DELTA_MAX,
    DELTA_MIN,
    ChannelRealization,
    LinkBudget,
    LinkParams,
    downlink_budget,
    uplink_budget,
)
from .energy import ComputeProfile, EnergyLedger, HarvestModel, ledger
from .fl_core import (
    DivergenceError,
    LocalDataset,
    ModelVector,
    TrainerConfig,
    evaluate_metric,
    global_loss,
    make_federated_problem,
    run_round,
)
from .optimizer import MODE_CENTROID, MODE_GRID_SEARCH, optimize_delta_all, place_uav
from .timing import RoundDelay, local_train_time, round_total, uav_aggregation_time

DELTA_MODE_FIXED = "fixed"
DELTA_MODE_OPTIMIZED = "optimized"


def rng_stream(master_seed: int, *path) -> np.random.Generator:
    """Independent generator for the stream named by ``path``.

    Path components may be ints or short strings; strings are folded to
    ints with crc32 so the whole path feeds numpy's SeedSequence. Distinct
    paths give statistically independent streams, and the same path always
    reproduces the same draws. The path length is folded in ahead of the
    components because SeedSequence treats a trailing zero entropy word as
    a no-op, which would alias ``(.., r)`` with ``(.., r, 0)``.
    """
    entropy = [int(master_seed), len(path)]
    for part in path:
        if isinstance(part, str):
            entropy.append(zlib.crc32(part.encode("utf-8")))
        elif isinstance(part, (int, np.integer)):
            entropy.append(int(part))
        else:
            raise TypeError(f"stream path parts must be int or str, got {type(part).__name__}")
    return np.random.default_rng(np.random.SeedSequence(entropy))


@dataclass(frozen=True)
class DataConfig:
    """Synthetic dataset shape and noise.

    ``noise`` is the target noise std for the linear task and the label
    flip probability for the logistic task.
    """

    dim: int = 4
    samples_per_device: int = 20
    val_samples: int = 200
    test_samples: int = 400
    noise: float = 0.1
    weight_scale: float = 1.0
    init_scale: float = 0.01

    def __post_init__(self):
        for name in ("dim", "samples_per_device", "val_samples", "test_samples"):
            if getattr(self, name) < 1:
                raise ValueError(f"DataConfig.{name} must be >= 1")
        if self.noise < 0:
            raise ValueError("DataConfig.noise must be >= 0")


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything that defines one experiment, defaults included.

    The payload defaults to 32 bits per model coordinate when
    ``payload_bits`` is None; the UAV aggregation processes the payloads of
    all devices.
    """

    master_seed: int = 0
    device_count: int = 5
    monte_carlo_trials: int = 10
    rounds: int = 10
    area_bounds: tuple[float, float, float, float] = (0.0, 100.0, 0.0, 100.0)
    uav_altitude_m: float = 20.0
    placement_mode: str = MODE_CENTROID
    placement_grid_points: int = 9
    placement_trials: int = 25
    delta_mode: str = DELTA_MODE_FIXED
    delta_fixed: float = 0.5
    device_pays_downlink: bool = True
    uav_payload_scales_with_m: bool = True
    battery_ledger: bool = False
    battery_initial_j: float = 0.0
    payload_bits: float | None = None
    uav_cycles_per_bit: float = 100.0
    uav_cpu_hz: float = 1e9
    workers: int = 1
    link: LinkParams = field(
        default_factory=lambda: LinkParams(
            pathloss_exponent=2.7,
            bandwidth_hz=1e6,
            noise_power_ul_w=1e-13,
            noise_power_dl_w=1e-13,
            ptx_ul_w=0.1,
            ptx_dl_w=1.0,
        )
    )
    compute: ComputeProfile = field(
        default_factory=lambda: ComputeProfile(
            kappa=1e-28, cycles_per_bit=1e3, data_bits=1e4, local_iters=2, cpu_hz=1e9
        )
    )
    harvest: HarvestModel = field(default_factory=lambda: HarvestModel(a1=0.1, a2=0.5, a3=0.0))
    trainer: TrainerConfig = field(
        default_factory=lambda: TrainerConfig(learning_rate=0.1, local_iters=2)
    )
    data: DataConfig = field(default_factory=DataConfig)

    def __post_init__(self):
        object.__setattr__(self, "area_bounds", tuple(float(v) for v in self.area_bounds))
        if len(self.area_bounds) != 4:
            raise ValueError("area_bounds must be (xmin, xmax, ymin, ymax)")
        xmin, xmax, ymin, ymax = self.area_bounds
        if not (xmax > xmin and ymax > ymin):
            raise ValueError("area_bounds must satisfy xmax > xmin and ymax > ymin")
        for name in ("device_count", "monte_carlo_trials", "rounds", "workers"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not self.uav_altitude_m > 0:
            raise ValueError("uav_altitude_m must be > 0")
        if self.placement_mode not in (MODE_CENTROID, MODE_GRID_SEARCH):
            raise ValueError(f"unknown placement_mode {self.placement_mode!r}")
        if self.placement_grid_points < 2 or self.placement_trials < 1:
            raise ValueError("placement_grid_points must be >= 2 and placement_trials >= 1")
        if self.delta_mode not in (DELTA_MODE_FIXED, DELTA_MODE_OPTIMIZED):
            raise ValueError(f"unknown delta_mode {self.delta_mode!r}")
        if not DELTA_MIN <= self.delta_fixed <= DELTA_MAX:
            raise ValueError(f"delta_fixed must be in [{DELTA_MIN}, {DELTA_MAX}]")
        if self.battery_initial_j < 0:
            raise ValueError("battery_initial_j must be >= 0")
        if self.payload_bits is not None and not self.payload_bits > 0:
            raise ValueError("payload_bits must be > 0 when set")
        if self.master_seed < 0:
            raise ValueError("master_seed must be >= 0")


@dataclass(frozen=True)
class Scenario:
    """A fully materialized experiment: geometry, data, and initial model."""

    config: ScenarioConfig
    device_positions: np.ndarray
    uav_position: tuple[float, float, float]
    placement_objective_s: float
    distances_m: np.ndarray
    train_sets: list[LocalDataset]
    val_set: LocalDataset
    test_set: LocalDataset
    w_true: np.ndarray
    w0: ModelVector
    payload_ul_bits: float
    payload_dl_bits: float
    uav_payload_bits: float


@dataclass(frozen=True)
class RoundMetrics:
    """Everything recorded about one communication round of one trial."""

    round_index: int
    t_total_s: float
    t_uplink_max_s: float
    t_local_max_s: float
    t_downlink_max_s: float
    t_uav_s: float
    deltas: np.ndarray
    delta_method: str
    e_total_j: np.ndarray
    e_harvest_j: np.ndarray
    feasible: np.ndarray
    participate: np.ndarray
    battery_j: np.ndarray | None
    train_loss: float
    val_metric: float
    test_metric: float


@dataclass(frozen=True)
class TrialResult:
    """One Monte Carlo trial: per-round records plus outcome flags."""

    trial_index: int
    rounds: list[RoundMetrics]
    outage_count: int
    runtime_s: float
    failed: bool
    error: str | None


@dataclass(frozen=True)
class MonteCarloResult:
    """Aggregates across trials; delay stats cover finite rounds only."""

    scenario: Scenario
    trials: list[TrialResult]
    delay_mean_s: float
    delay_std_s: float
    delay_p5_s: float
    delay_p95_s: float
    outage_rate: float
    metric_mean: np.ndarray
    metric_std: np.ndarray
    n_failed: int


@dataclass(frozen=True)
class LinkRound:
    """The physical layer of one round at one fading state, over all devices."""

    deltas: np.ndarray
    method: str
    uplink: LinkBudget
    downlink: LinkBudget
    energy: EnergyLedger
    t_local_s: np.ndarray
    t_uav_s: float

    def delay(self, participate: np.ndarray | None = None) -> RoundDelay:
        """Round delay when only the ``participate`` devices train and upload.

        All devices take part by default. Every device still receives the
        downlink, so its download gates the round either way.
        """
        t_up, t_local = self.uplink.tx_time_s, self.t_local_s
        if participate is not None:
            t_up, t_local = np.where(participate, t_up, 0.0), np.where(participate, t_local, 0.0)
        return round_total(t_up, t_local, self.downlink.tx_time_s, self.t_uav_s)


def link_round(
    config: ScenarioConfig,
    realization: ChannelRealization,
    payload_ul_bits: float,
    payload_dl_bits: float,
    uav_payload_bits: float,
) -> LinkRound:
    """Physical-layer bookkeeping for one round at one fading state.

    Computes the uplink once, resolves the power-splitting ratios per the
    configured mode, then computes the downlink and the energy ledger once
    at those ratios.
    """
    link = config.link
    uplink = uplink_budget(link, realization, payload_ul_bits)
    if config.delta_mode == DELTA_MODE_OPTIMIZED:
        sol = optimize_delta_all(
            link,
            realization,
            uplink,
            config.compute,
            config.harvest,
            payload_dl_bits,
            device_pays_downlink=config.device_pays_downlink,
        )
        deltas, method = sol.deltas, sol.method
    else:
        deltas, method = np.full(realization.n_devices, config.delta_fixed), DELTA_MODE_FIXED
    downlink = downlink_budget(link, realization, deltas, payload_dl_bits)
    energy = ledger(
        config.compute,
        config.harvest,
        uplink,
        downlink,
        deltas,
        link.ptx_ul_w,
        link.ptx_dl_w,
        device_pays_downlink=config.device_pays_downlink,
    )
    return LinkRound(
        deltas=deltas,
        method=method,
        uplink=uplink,
        downlink=downlink,
        energy=energy,
        t_local_s=np.full(realization.n_devices, local_train_time(config.compute)),
        t_uav_s=uav_aggregation_time(config.uav_cycles_per_bit, uav_payload_bits, config.uav_cpu_hz),
    )


def _delay_evaluator(
    config: ScenarioConfig,
    device_positions: np.ndarray,
    payload_ul_bits: float,
    payload_dl_bits: float,
    uav_payload_bits: float,
):
    """Expected-round-delay objective for placement candidates.

    Uses the same fading draws for every candidate position so comparisons
    are paired, and the dedicated stream keeps placement independent of the
    trial streams.
    """

    fading = [
        rng_stream(config.master_seed, "placement-eval", t).exponential(1.0, config.device_count)
        for t in range(config.placement_trials)
    ]

    def evaluate(position: tuple[float, float, float]) -> float:
        dx = device_positions[:, 0] - position[0]
        dy = device_positions[:, 1] - position[1]
        dist = np.sqrt(dx * dx + dy * dy + position[2] ** 2)
        totals = [
            link_round(
                config,
                ChannelRealization(gains, dist),
                payload_ul_bits,
                payload_dl_bits,
                uav_payload_bits,
            )
            .delay()
            .t_total_s
            for gains in fading
        ]
        return float(np.mean(totals))

    return evaluate


def build(config: ScenarioConfig) -> Scenario:
    """Materialize geometry, placement, datasets, and the initial model."""
    if config.trainer.local_iters != config.compute.local_iters:
        raise ValueError(
            "trainer.local_iters and compute.local_iters must agree "
            f"({config.trainer.local_iters} vs {config.compute.local_iters}); "
            "the energy model bills exactly the iterations the trainer runs"
        )
    xmin, xmax, ymin, ymax = config.area_bounds
    place_rng = rng_stream(config.master_seed, "placement")
    xs = place_rng.uniform(xmin, xmax, config.device_count)
    ys = place_rng.uniform(ymin, ymax, config.device_count)
    positions = np.column_stack([xs, ys])

    payload = float(config.payload_bits) if config.payload_bits else 32.0 * config.data.dim
    uav_payload = payload * (config.device_count if config.uav_payload_scales_with_m else 1)
    evaluator = _delay_evaluator(config, positions, payload, payload, uav_payload)
    placement = place_uav(
        config.area_bounds,
        config.uav_altitude_m,
        config.placement_mode,
        evaluator,
        config.placement_grid_points,
    )
    ux, uy, uz = placement.position
    distances = np.sqrt((xs - ux) ** 2 + (ys - uy) ** 2 + uz**2)

    data_rng = rng_stream(config.master_seed, "data")
    train_sets, val_set, test_set, w_true = make_federated_problem(
        data_rng,
        config.trainer.task,
        config.device_count,
        config.data.samples_per_device,
        config.data.dim,
        config.data.noise,
        config.data.val_samples,
        config.data.test_samples,
        config.data.weight_scale,
    )
    init_rng = rng_stream(config.master_seed, "init")
    w0 = ModelVector(config.data.init_scale * init_rng.standard_normal(config.data.dim))

    return Scenario(
        config=config,
        device_positions=positions,
        uav_position=placement.position,
        placement_objective_s=placement.objective_s,
        distances_m=distances,
        train_sets=train_sets,
        val_set=val_set,
        test_set=test_set,
        w_true=w_true,
        w0=w0,
        payload_ul_bits=payload,
        payload_dl_bits=payload,
        uav_payload_bits=uav_payload,
    )


def run_trial(scenario: Scenario, trial_index: int) -> TrialResult:
    """One seeded trial: fresh fading each round, training, bookkeeping.

    Without battery tracking every device runs every round and energy
    shortfalls only show up as infeasible flags (and outage counts). With
    ``battery_ledger`` a device skips rounds it cannot afford from stored
    plus harvested energy; a skipping device still receives the downlink
    and harvests from it, but trains and uploads nothing, and its uplink
    and compute times stop gating the round. Batteries are not capped.
    """
    cfg = scenario.config
    start = time.perf_counter()
    m = cfg.device_count
    w = scenario.w0
    battery = np.full(m, cfg.battery_initial_j, dtype=float) if cfg.battery_ledger else None
    rounds: list[RoundMetrics] = []
    outage = 0
    failed = False
    error = None
    try:
        for r in range(cfg.rounds):
            gains = rng_stream(cfg.master_seed, "trial", trial_index, "fading", r).exponential(
                1.0, m
            )
            rnd = link_round(
                cfg,
                ChannelRealization(gains, scenario.distances_m),
                scenario.payload_ul_bits,
                scenario.payload_dl_bits,
                scenario.uav_payload_bits,
            )
            e_total, e_harvest = rnd.energy.e_total_j, rnd.energy.e_harvest_j
            feasible = rnd.energy.feasible

            if battery is None:
                participate = np.ones(m, dtype=bool)
            else:
                # Skip a round the device cannot pay for; it keeps whatever
                # it harvests, so the balance never goes negative.
                participate = np.isfinite(e_total) & (battery + e_harvest - e_total >= 0.0)
                battery = battery + e_harvest - np.where(participate, e_total, 0.0)
            delay = rnd.delay(participate)

            if not math.isfinite(delay.t_total_s) or not bool(feasible.all()):
                outage += 1

            device_rngs = [
                rng_stream(cfg.master_seed, "trial", trial_index, "train", r, i) for i in range(m)
            ]
            w, _ = run_round(
                w, scenario.train_sets, cfg.trainer, device_rngs=device_rngs, participate=participate
            )
            rounds.append(
                RoundMetrics(
                    round_index=r,
                    t_total_s=delay.t_total_s,
                    t_uplink_max_s=float(np.max(delay.t_uplink_s)),
                    t_local_max_s=float(np.max(delay.t_local_s)),
                    t_downlink_max_s=float(np.max(delay.t_downlink_s)),
                    t_uav_s=delay.t_uav_s,
                    deltas=rnd.deltas,
                    delta_method=rnd.method,
                    e_total_j=e_total,
                    e_harvest_j=e_harvest,
                    feasible=feasible,
                    participate=participate,
                    battery_j=None if battery is None else battery.copy(),
                    train_loss=global_loss(w, scenario.train_sets, cfg.trainer.task),
                    val_metric=evaluate_metric(w, scenario.val_set, cfg.trainer.task),
                    test_metric=evaluate_metric(w, scenario.test_set, cfg.trainer.task),
                )
            )
    except DivergenceError as exc:
        failed = True
        error = str(exc)
    return TrialResult(
        trial_index=trial_index,
        rounds=rounds,
        outage_count=outage,
        runtime_s=time.perf_counter() - start,
        failed=failed,
        error=error,
    )


def run_monte_carlo(config: ScenarioConfig, scenario: Scenario | None = None) -> MonteCarloResult:
    """Run all trials (optionally in worker processes) and aggregate.

    Results are ordered by trial index regardless of worker scheduling, so
    the output is identical for any worker count.
    """
    if scenario is None:
        scenario = build(config)
    indices = list(range(config.monte_carlo_trials))
    if config.workers > 1:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            trials = list(pool.map(run_trial, repeat(scenario), indices))
    else:
        trials = [run_trial(scenario, t) for t in indices]

    finite = [
        rm.t_total_s
        for tr in trials
        if not tr.failed
        for rm in tr.rounds
        if math.isfinite(rm.t_total_s)
    ]
    executed = sum(len(tr.rounds) for tr in trials)
    outages = sum(tr.outage_count for tr in trials)
    if finite:
        delay_mean = float(np.mean(finite))
        delay_std = float(np.std(finite))
        delay_p5 = float(np.percentile(finite, 5))
        delay_p95 = float(np.percentile(finite, 95))
    else:
        delay_mean = delay_std = delay_p5 = delay_p95 = float("nan")

    metric_mean = np.full(config.rounds, np.nan)
    metric_std = np.full(config.rounds, np.nan)
    for r in range(config.rounds):
        vals = [tr.rounds[r].test_metric for tr in trials if not tr.failed and len(tr.rounds) > r]
        if vals:
            metric_mean[r] = float(np.mean(vals))
            metric_std[r] = float(np.std(vals))

    return MonteCarloResult(
        scenario=scenario,
        trials=trials,
        delay_mean_s=delay_mean,
        delay_std_s=delay_std,
        delay_p5_s=delay_p5,
        delay_p95_s=delay_p95,
        outage_rate=outages / executed if executed else float("nan"),
        metric_mean=metric_mean,
        metric_std=metric_std,
        n_failed=sum(1 for tr in trials if tr.failed),
    )


def _coerce_like(current, value, path: str):
    if isinstance(current, bool):
        if not isinstance(value, bool):
            raise ValueError(f"override {path} expects a bool, got {value!r}")
        return value
    if isinstance(current, int) and not isinstance(current, bool):
        if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
            raise ValueError(f"override {path} expects an int, got {value!r}")
        if not isinstance(value, (int, float)):
            raise ValueError(f"override {path} expects an int, got {value!r}")
        return int(value)
    if isinstance(current, float):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"override {path} expects a number, got {value!r}")
        return float(value)
    if isinstance(current, tuple):
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"override {path} expects a list, got {value!r}")
        return tuple(value)
    if isinstance(current, str):
        if not isinstance(value, str):
            raise ValueError(f"override {path} expects a string, got {value!r}")
        return value
    # Optional fields (current is None) pass through untouched.
    return value


def with_override(config, path: str, value):
    """New config with the dotted-path field replaced, types respected.

    Numbers are coerced to the field's current type, so ``rounds=30.0``
    becomes the int 30 but ``rounds=1.5`` is rejected. Unknown field names
    raise ValueError naming the path.
    """
    parts = path.split(".")
    if not all(parts):
        raise ValueError(f"bad override path {path!r}")

    def apply(obj, remaining):
        names = {f.name for f in fields(obj)}
        name = remaining[0]
        if name not in names:
            raise ValueError(f"unknown config field {path!r} (no {name!r} on {type(obj).__name__})")
        current = getattr(obj, name)
        if len(remaining) == 1:
            return replace(obj, **{name: _coerce_like(current, value, path)})
        if not hasattr(type(current), "__dataclass_fields__"):
            raise ValueError(f"override path {path!r} descends into non-config field {name!r}")
        return replace(obj, **{name: apply(current, remaining[1:])})

    return apply(config, parts)


def sweep(config: ScenarioConfig, param_path: str, values) -> list[dict]:
    """Monte Carlo at each value of one config field, same seed throughout.

    Reusing the master seed pairs the fading draws across sweep points, so
    observed trends are not noise from re-rolled channels.
    """
    rows = []
    for v in values:
        res = run_monte_carlo(with_override(config, param_path, v))
        rows.append(
            {
                "param_value": v,
                "mean_t_total_s": res.delay_mean_s,
                "std_t_total_s": res.delay_std_s,
                "p5": res.delay_p5_s,
                "p95": res.delay_p95_s,
                "outage_rate": res.outage_rate,
            }
        )
    return rows
