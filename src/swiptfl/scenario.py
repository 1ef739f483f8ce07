"""Scenario assembly, seeded Monte Carlo trials, and parameter sweeps.

Everything here runs on a :class:`~swiptfl.config.ScenarioConfig`; the config
classes and the merge that builds a config live in :mod:`swiptfl.config`.
The round kernel :func:`link_round` takes only the config and a fading
realization; the payloads follow from the config. Grid-search placement
scores every candidate UAV position against every placement fading draw in
one batched :func:`link_round`; centroid placement scores its one position
only when the scenario's ``placement_objective_s`` is first read. Monte
Carlo trials run in contiguous blocks, one block per worker; :func:`run_trial`
runs a block chunk by chunk into one columnar :class:`BlockRecord`, and
:func:`run_monte_carlo` reduces its columns.
Models are plain arrays: the scenario's initial model ``w0`` is a (d,) vector.

Randomness discipline: every random draw comes from a named stream derived
from the master seed via :func:`rng_stream`, so any trial, round, or device
can be reproduced in isolation and sweeps over a physical parameter reuse
identical fading (common random numbers). Stream tags used here:

* ``("placement",)`` device positions
* ``("placement-eval", t)`` fading draw t, shared by every placement
  candidate in the one batched round of :func:`mean_round_delay`
* ``("data",)`` synthetic datasets, in draw order ``w_true``, devices 0..M-1, val, test
* ``("init",)`` initial global model
* ``("trial", t, "fading", r)`` per-round channel gains, drawn by :func:`trial_fading`
* ``("trial", t, "train", r)`` minibatch sampling for all M devices of
  trial t in round r; derived only when training draws minibatches, never
  for full batch

:func:`rng_stream` defines each stream. A block names its fading or training
streams, and placement its draws, by one path whose trial and round parts
are broadcast integer arrays; :func:`_stream_seeds` derives all their seed
words from one entropy array in one vectorized pass of numpy's SeedSequence
algorithm, bit-identical to the per-stream rule. Only training keeps a
block's seed words, (R, T, 4) uint64, and each round builds only its own generators.
"""

from __future__ import annotations

import functools
import zlib
from collections.abc import Sequence
from dataclasses import dataclass, fields
from itertools import repeat

import numpy as np

from .channel import ChannelRealization, LinkBudget, device_max, downlink_budget, uplink_budget
from .config import DELTA_MODE_FIXED, DELTA_MODE_OPTIMIZED, ScenarioConfig, with_override
from .energy import EnergyLedger, ledger
from .fl_core import FederatedData, evaluate_metric, global_loss, make_federated_problem, run_round
from .optimizer import METHOD_BISECTION, METHOD_GRID, optimize_delta_all, place_uav
from .timing import local_train_time, round_total, uav_aggregation_time

ROUND_BLOCK = 1 << 16  # (round, trial, device) fading states per link round of run_trial
EVAL_BLOCK = 1 << 13  # (model, sample) pairs per scoring pass of run_trial
_SCORES = ("train loss", "val metric", "test metric")  # what run_trial records each round


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


# numpy's SeedSequence (numpy/random/bit_generator.pyx) with its default pool
# of four uint32 words, run as array arithmetic by _seed_words.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_OTHERS = [np.array([d for d in range(4) if d != s]) for s in range(4)]


@functools.lru_cache(maxsize=16)
def _hash_constants(init: int, mult: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The (n, 1) xor and multiplier constants of n successive hashmix steps."""
    consts = [init]
    for _ in range(n):
        consts.append(consts[-1] * mult & _MASK32)
    consts = np.array(consts, dtype=np.uint32)[:, None]
    return consts[:-1], consts[1:]


def _hashmix(value: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    value = (value ^ xor) * mul
    return value ^ (value >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = _MIX_L * x - _MIX_R * y
    return out ^ (out >> 16)


def _seed_words(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(row).generate_state(4, np.uint64)`` for every row of a
    (K, L) uint32 entropy array, as a (K, 4) uint64 array.

    The hash constants follow a fixed sequence, the same for every row, so
    each step of numpy's word-by-word algorithm is one array operation over
    all K rows.
    """
    k, n = entropy.shape
    xor, mul = _hash_constants(_INIT_A, _MULT_A, 16 + 4 * max(n - 4, 0))
    pool = np.zeros((4, k), dtype=np.uint32)
    pool[: min(n, 4)] = entropy[:, :4].T
    pool = _hashmix(pool, xor[:4], mul[:4])
    for src in range(4):  # mix every pool word into every other one
        dst, h = _OTHERS[src], 4 + 3 * src
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], xor[h : h + 3], mul[h : h + 3]))
    for j in range(4, n):  # then each entropy word past the pool into every pool word
        h = 16 + 4 * (j - 4)
        pool = _mix(pool, _hashmix(entropy[:, j], xor[h : h + 4], mul[h : h + 4]))
    xor, mul = _hash_constants(_INIT_B, _MULT_B, 8)
    state = _hashmix(np.tile(pool, (2, 1)), xor, mul)
    return state.T.astype("<u4", order="C").view("<u8").astype(np.uint64)


class _SeedState(np.random.bit_generator.ISeedSequence):
    """A seed sequence whose PCG64 seed words are already computed: PCG64
    seeds itself from ``generate_state(4, np.uint64)``, which is ``words``."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _generator(words: np.ndarray) -> np.random.Generator:
    """The generator ``np.random.default_rng`` makes from a SeedSequence whose
    PCG64 seed words are ``words``, one (4,) uint64 row of :func:`_stream_seeds`."""
    return np.random.Generator(np.random.PCG64(_SeedState(words)))


def _uint32_words(n: int) -> list[int]:
    """``n`` as numpy's SeedSequence splits an int: little-endian uint32 words."""
    if n < 0:
        raise ValueError(f"stream seeds and path parts must be >= 0, got {n}")
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


@functools.lru_cache(maxsize=256)
def _tag(text: str) -> int:
    return zlib.crc32(text.encode("utf-8"))


def _stream_seeds(master_seed: int, path) -> np.ndarray:
    """The PCG64 seed words of the streams that ``path`` names, shape (*S, 4) uint64.

    A part is a str, an int or an integer array; the array parts broadcast
    to shape S, and each element names the path with every array part
    replaced by its element there, so ``("trial", t[None, :], "fading",
    r[:, None])`` names the (r, t) fading streams. Their entropy, by the
    rule of :func:`rng_stream` with one word per array element (so in
    [0, 2**32)), is one (K, L) uint32 array seeded in one :func:`_seed_words` pass.
    """
    columns = [*_uint32_words(int(master_seed)), len(path)]
    for part in path:
        if isinstance(part, str):
            columns.append(_tag(part))
        elif isinstance(part, (int, np.integer)):
            columns += _uint32_words(int(part))
        elif isinstance(part, np.ndarray) and part.dtype.kind in "iu":
            if part.size and not (0 <= part.min() and part.max() <= _MASK32):
                raise ValueError("array path parts must lie in [0, 2**32)")
            columns.append(part.astype(np.uint32))
        else:
            raise TypeError(f"stream path parts must be int or str, got {type(part).__name__}")
    entropy = np.stack(np.broadcast_arrays(*columns), axis=-1).astype(np.uint32)
    return _seed_words(entropy.reshape(-1, len(columns))).reshape(*entropy.shape[:-1], 4)


def fading_draws(master_seed: int, path, device_count: int) -> np.ndarray:
    """Squared Rayleigh gains of the streams of ``path``, shape (*S, M): the
    row of each stream is ``rng_stream(master_seed, *p).exponential(1.0,
    device_count)`` for its scalar path p, bit for bit, with the seed words
    of all streams from one :func:`_stream_seeds` pass."""
    seeds = _stream_seeds(master_seed, path)
    gains = np.empty((*seeds.shape[:-1], device_count))
    for words, row in zip(seeds.reshape(-1, 4), gains.reshape(-1, device_count)):
        _generator(words).standard_exponential(out=row)  # exponential(1.0)'s bits
    return gains


def trial_fading(master_seed: int, trials, rounds, device_count: int) -> np.ndarray:
    """Squared gains of the ``("trial", t, "fading", r)`` streams, shape (R, T, M)."""
    path = ("trial", np.asarray(trials)[None, :], "fading", np.asarray(rounds)[:, None])
    return fading_draws(master_seed, path, device_count)


class _ExpectedDelay:
    """A :class:`Scenario` field holding the expected round delay at the UAV.

    Set to None, it is computed on first read, by the call grid search
    makes, ``mean_round_delay(config, device_positions, [uav_position])``,
    and kept on the instance. Pickling copies what is stored, so a copy sent
    to a worker computes nothing. Read on the class it raises AttributeError,
    so the dataclass field has no default.
    """

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None) -> float:
        if obj is None:
            raise AttributeError(self.name)
        value = obj.__dict__[self.name]
        if value is None:
            uav = np.array([obj.uav_position])
            value = float(mean_round_delay(obj.config, obj.device_positions, uav)[0])
            obj.__dict__[self.name] = value
        return value

    def __set__(self, obj, value: float | None) -> None:
        obj.__dict__[self.name] = value


@dataclass(frozen=True)
class Scenario:
    """A fully materialized experiment: geometry, data, and initial model.

    ``val_set`` and ``test_set`` are stacks of one, drawn as the devices' sets are.
    ``placement_objective_s`` is the expected round delay at ``uav_position``:
    grid search scored it while placing the UAV; centroid placement leaves
    it None, and the first read computes it."""

    config: ScenarioConfig
    device_positions: np.ndarray
    uav_position: tuple[float, float, float]
    placement_objective_s: _ExpectedDelay = _ExpectedDelay()
    distances_m: np.ndarray
    train_sets: FederatedData
    val_set: FederatedData
    test_set: FederatedData
    w0: np.ndarray


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


_COLUMNS = [f.name for f in fields(RoundMetrics)][1:]  # a block record's round columns


class BlockRecord(dict):
    """Every round of a block of T trials as columns, the trials in block order.

    Each :class:`RoundMetrics` field after ``round_index`` names its (T, R)
    column, or (T, R, M) for a per-device field; ``battery_j`` is None
    without a battery ledger. ``trial_index``, ``rounds_done``, ``outage_count``,
    ``outage_unreachable`` and ``error`` are (T,) columns. Trial k's records
    are its first ``rounds_done[k]`` rounds, and the rest of its row is filler.
    """

    def recorded(self) -> np.ndarray:
        """(T, R) mask of the recorded rounds."""
        return np.arange(self["t_total_s"].shape[1]) < self["rounds_done"][:, None]


class TrialRounds(Sequence):
    """One trial's rounds in a :class:`BlockRecord`, read-only: indexing,
    slicing and iteration build each :class:`RoundMetrics` as it is read."""

    def __init__(self, record: BlockRecord, k: int):
        self.record, self.k = record, k

    def __len__(self) -> int:
        return int(self.record["rounds_done"][self.k])

    def __getitem__(self, index):
        r = range(len(self))[index]  # IndexError past the records
        if isinstance(r, range):
            return [self[i] for i in r]
        cells = [c if c is None else c[self.k, r] for c in map(self.record.get, _COLUMNS)]
        return RoundMetrics(r, *(c.item() if isinstance(c, np.generic) else c for c in cells))


@dataclass(frozen=True)
class TrialResult:
    """One Monte Carlo trial: its round records (a :class:`TrialRounds` view,
    or a list), how many are in outage, and outcome flags."""

    trial_index: int
    rounds: Sequence[RoundMetrics]
    outage_count: int
    failed: bool
    error: str | None


@dataclass(frozen=True)
class MonteCarloResult:
    """Aggregates over recorded rounds. ``outage_rate`` covers every trial's,
    failed trials included; the delay statistics cover the finite delays of
    the trials that did not fail, and ``metric_mean`` and ``metric_std`` at
    round r their round r. ``record`` holds every trial's rounds as columns:
    the blocks' records, whose rows ``trials`` read, joined in trial order."""

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
    outage_unreachable: int
    outage_energy_short: int
    record: BlockRecord


@dataclass(frozen=True)
class LinkRound:
    """One round's physics, stage times included, for all devices at one or a batch of states.

    ``energy`` is built from ``config`` on its first read and kept, so a
    reader of the delay alone, such as placement, never builds a ledger."""

    config: ScenarioConfig
    deltas: np.ndarray
    grid: np.ndarray
    uplink: LinkBudget
    downlink: LinkBudget
    t_local_s: np.ndarray
    t_uav_s: float

    @functools.cached_property
    def energy(self) -> EnergyLedger:
        """Every device's energy ledger at these links and ratios."""
        cfg, up, down = self.config, self.uplink, self.downlink
        args = cfg.compute, cfg.harvest, up, down, self.deltas, cfg.link.ptx_ul_w, cfg.link.ptx_dl_w
        return ledger(*args, device_pays_downlink=cfg.device_pays_downlink)

    def methods(self) -> np.ndarray:
        """How the ratios of each fading state were set, one label per state:
        "grid" if one of its own devices needed the dense scan, else "fixed"
        or "bisection" as ``config.delta_mode`` says."""
        solved = self.config.delta_mode == DELTA_MODE_OPTIMIZED
        label = METHOD_BISECTION if solved else DELTA_MODE_FIXED
        return np.where(self.grid.any(axis=-1), METHOD_GRID, label)

    def delay(self) -> float | np.ndarray:
        """Round delay with every device taking part: a float, or shape (...) for a batch."""
        t_up, t_down = self.uplink.tx_time_s, self.downlink.tx_time_s
        return round_total(t_up, self.t_local_s, t_down, self.t_uav_s)


def link_round(config: ScenarioConfig, realization: ChannelRealization) -> LinkRound:
    """Physical-layer bookkeeping for one round at one fading state.

    Computes the uplink once and resolves the power-splitting ratios per
    the configured mode. In optimized mode the solver hands over the
    downlink at its ratios; a fixed ratio runs :func:`downlink_budget`
    once. The energy ledger is built only when :attr:`LinkRound.energy` is
    read. A realization of shape (..., M) runs a whole batch of fading
    states in this one call; every per-device field, the stage times that
    :meth:`LinkRound.delay` composes included, has its shape. The payloads
    follow from the config, as :class:`ScenarioConfig` says.
    """
    link = config.link
    payload = float(config.payload_bits) if config.payload_bits else 32.0 * config.data.dim
    uav_payload = payload * (config.device_count if config.uav_payload_scales_with_m else 1)
    uplink = uplink_budget(link, realization, payload)
    if config.delta_mode == DELTA_MODE_OPTIMIZED:
        sol = optimize_delta_all(
            link,
            realization,
            uplink,
            config.compute,
            config.harvest,
            payload,
            device_pays_downlink=config.device_pays_downlink,
        )
        deltas, grid, downlink = sol.deltas, sol.grid, sol.downlink
    else:
        deltas = np.full(realization.gains_sq.shape, config.delta_fixed)
        grid = np.zeros(deltas.shape, dtype=bool)
        downlink = downlink_budget(link, realization, deltas, payload)
    return LinkRound(
        config=config,
        deltas=deltas,
        grid=grid,
        uplink=uplink,
        downlink=downlink,
        t_local_s=np.full(realization.gains_sq.shape, local_train_time(config.compute)),
        t_uav_s=uav_aggregation_time(config.uav_cycles_per_bit, uav_payload, config.uav_cpu_hz),
    )


def _distances(device_positions: np.ndarray, uav_positions: np.ndarray) -> np.ndarray:
    """3-D distances from (M, 2) ground devices to (C, 3) UAV positions, shape (C, M)."""
    dx = device_positions[:, 0] - uav_positions[:, :1]
    dy = device_positions[:, 1] - uav_positions[:, 1:2]
    return np.sqrt(dx * dx + dy * dy + uav_positions[:, 2:] ** 2)


def mean_round_delay(
    config: ScenarioConfig, device_positions: np.ndarray, candidates: np.ndarray
) -> np.ndarray:
    """Expected round delay with the UAV at each (C, 3) candidate, shape (C,).

    Every candidate sees the same ``placement_trials`` fading draws, so
    comparisons are paired, and the dedicated stream keeps placement
    independent of the trial streams. All candidates and draws go through
    one link round over a (C, trials, M) realization.
    """
    path = ("placement-eval", np.arange(config.placement_trials))
    fading = fading_draws(config.master_seed, path, config.device_count)
    realization = ChannelRealization(fading, _distances(device_positions, candidates)[:, None, :])
    return link_round(config, realization).delay().mean(axis=-1)


def build(config: ScenarioConfig) -> Scenario:
    """Materialize geometry, placement, datasets, and the initial model.

    Grid-search placement scores every candidate in one batched link round;
    centroid placement scores nothing here, and the scenario's
    ``placement_objective_s`` is computed when it is first read."""
    xmin, xmax, ymin, ymax = config.area_bounds
    place_rng = rng_stream(config.master_seed, "placement")
    xs = place_rng.uniform(xmin, xmax, config.device_count)
    ys = place_rng.uniform(ymin, ymax, config.device_count)
    positions = np.column_stack([xs, ys])
    placement = place_uav(
        config.area_bounds,
        config.uav_altitude_m,
        config.placement_mode,
        lambda xyz: mean_round_delay(config, positions, xyz),
        config.placement_grid_points,
    )
    distances = _distances(positions, np.array([placement.position]))[0]

    train_sets, val_set, test_set, _ = make_federated_problem(
        rng_stream(config.master_seed, "data"),
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
    w0 = config.data.init_scale * init_rng.standard_normal(config.data.dim)

    return Scenario(
        config=config,
        device_positions=positions,
        uav_position=placement.position,
        placement_objective_s=placement.objective_s,
        distances_m=distances,
        train_sets=train_sets,
        val_set=val_set,
        test_set=test_set,
        w0=w0,
    )


def run_trial(scenario: Scenario, trial_indices) -> list[TrialResult]:
    """A block of seeded trials: fresh fading each round, training, bookkeeping.

    The physics of a chunk of rounds of the whole block runs in one link
    round over an (R_c, T, M) realization of the trials' own fading
    streams. That is exact: no term of a round's physics reads an earlier
    round, and the battery recurrence, the one state carried across
    rounds, runs round by round after the chunk's ledger. A chunk holds up
    to ``max(1, ROUND_BLOCK // (T * M))`` rounds, so a link round covers at
    most ``max(ROUND_BLOCK, T * M)`` fading states. A round runs only what
    carries state to the next: one :func:`run_round` of all T models. The
    chunk's end scores all its (R_c, T) models on the training sets, then
    the val and test sets, in passes of at most ``EVAL_BLOCK`` (model,
    sample) pairs, samples counted over all of a dataset's sets. No model's
    score depends on its batch, so neither does a trial's record.

    A trial stops at its training's first error, in that round, or at its
    first round with a non-finite score, whichever is earlier; the message
    names the train loss, val metric or test metric, the first of them not
    finite. It keeps the rounds before. ``rounds_done`` starts at the round
    count and only falls. A stopped trial stays in the block: later rounds
    hand it no participant, so :func:`run_round` keeps its model, and what
    it reports or scores for the trial changes nothing. A recorded round is
    in outage when a device is unreachable (an infinite delay) or short of
    energy; the record counts them, and the unreachable ones among them.
    Each chunk writes every column of one :class:`BlockRecord` in one loop
    and builds no per-round object; every result's ``rounds`` is a
    :class:`TrialRounds` view of its row, so a pickled block carries the
    record's arrays once.

    Without battery tracking every device runs every round and energy
    shortfalls only show up as infeasible flags (and outage counts). With
    ``battery_ledger`` a device skips rounds it cannot afford from stored
    plus harvested energy; a skipping device still receives the downlink
    and harvests from it, but trains and uploads nothing. One mask per chunk
    zeroes its uplink and compute times, and the round total and the three
    stage maxima come from those masked stages, so its download still gates
    the round. Batteries are not capped.
    """
    cfg = scenario.config
    seed, trials, task = cfg.master_seed, list(trial_indices), cfg.trainer.task
    if not trials:
        raise ValueError("a block of trials must not be empty")
    shape = (len(trials), cfg.device_count)
    chunk = min(cfg.rounds, max(1, ROUND_BLOCK // (shape[0] * shape[1])))
    minibatch = cfg.trainer.minibatch(scenario.train_sets.count)
    iters = cfg.compute.local_iters
    models = np.tile(scenario.w0, (len(trials), 1))  # one row per trial, stopped or not
    battery = np.full(shape, cfg.battery_initial_j, dtype=float) if cfg.battery_ledger else None
    # The block record's columns, trial-major: (T, R), or (T, R, M) per device,
    # typed as the first chunk's values are; battery_j stays None without a battery.
    grid, columns = (len(trials), cfg.rounds), dict.fromkeys(_COLUMNS)
    rounds_done = np.full(len(trials), cfg.rounds)
    error = np.full(len(trials), None, dtype=object)
    if minibatch:  # every training stream's seed words, (R, T, 4), in one pass
        path = ("trial", np.array(trials)[None, :], "train", np.arange(cfg.rounds)[:, None])
        train = _stream_seeds(seed, path)
    sets = (scenario.train_sets, scenario.val_set, scenario.test_set)
    metrics = (global_loss, evaluate_metric, evaluate_metric)
    for start in range(0, cfg.rounds, chunk):
        # The chunk's physics, then its battery recurrence round by round.
        n = min(chunk, cfg.rounds - start)
        rounds = np.arange(start, start + n)
        gains = trial_fading(seed, trials, rounds, shape[1])
        phys = link_round(cfg, ChannelRealization(gains, scenario.distances_m))
        e_total, e_harvest = phys.energy.e_total_j, phys.energy.e_harvest_j
        participate = np.ones(e_total.shape, dtype=bool)
        levels = None if battery is None else np.empty(e_total.shape)
        if battery is not None:
            # Skip a round the device cannot pay for; it keeps whatever
            # it harvests, so the balance never goes negative.
            for part, bill, gain, level in zip(participate, e_total, e_harvest, levels):
                part[...] = np.isfinite(bill) & (battery + gain - bill >= 0.0)
                battery = level[...] = battery + gain - np.where(part, bill, 0.0)

        # Train round by round; a training error stops a trial at once.
        trained = np.empty((n, *models.shape))
        for i, r in enumerate(rounds.tolist()):
            rngs = [_generator(words) for words in train[r]] if minibatch else None
            running = participate[i] & (rounds_done > r)[:, None]
            step = run_round(models, scenario.train_sets, cfg.trainer, iters, rngs, running)
            for k, message in step.errors.items():
                if rounds_done[k] > r:  # a report for a stopped trial changes nothing
                    rounds_done[k], error[k] = r, message
            models = trained[i] = step.models

        # Score every model of the chunk on the training, val and test sets in
        # passes of at most EVAL_BLOCK (model, sample) pairs. A trial stops at its
        # first recorded round with a non-finite score.
        flat = trained.reshape(-1, models.shape[1])  # round-major
        scores = np.empty((len(_SCORES), n, len(trials)))
        for score, dataset, metric in zip(scores.reshape(len(_SCORES), -1), sets, metrics):
            size = max(1, EVAL_BLOCK // dataset.targets.size)
            for a in range(0, len(flat), size):
                score[a : a + size] = metric(flat[a : a + size], dataset, task)
        bad = ~np.isfinite(scores) & (rounds[:, None] < rounds_done)
        for k in np.flatnonzero(bad.any(axis=(0, 1))).tolist():
            i = int(bad[:, :, k].any(axis=0).argmax())  # the trial's first such round
            rounds_done[k] = start + i
            error[k] = f"non-finite {_SCORES[bad[:, i, k].argmax()]} in round {start + i}"

        masked = (np.where(participate, t, 0.0) for t in (phys.uplink.tx_time_s, phys.t_local_s))
        stages = (*masked, phys.downlink.tx_time_s)  # a device that sits out still downloads
        total = round_total(*stages, phys.t_uav_s)
        maxima = map(device_max, stages)
        t_uav = np.broadcast_to(phys.t_uav_s, total.shape)
        energy = (e_total, e_harvest, phys.energy.feasible, participate, levels)
        values = (total, *maxima, t_uav, phys.deltas, phys.methods(), *energy, *scores)
        for name, value in zip(_COLUMNS, values):  # the fields t_total_s to test_metric
            if value is not None:
                if columns[name] is None:
                    columns[name] = np.zeros((*grid, *value.shape[2:]), value.dtype)
                columns[name][:, start : start + n] = value.swapaxes(0, 1)

    record = BlockRecord(columns, trial_index=np.array(trials), rounds_done=rounds_done)
    unreachable = ~np.isfinite(columns["t_total_s"]) & record.recorded()
    short = ~columns["feasible"].all(axis=-1) & record.recorded()
    outages = np.count_nonzero(unreachable | short, axis=1)
    record["outage_count"] = outages
    record["outage_unreachable"] = np.count_nonzero(unreachable, axis=1)
    record["error"] = error
    return [
        TrialResult(t, TrialRounds(record, k), n, e is not None, e)
        for k, (t, n, e) in enumerate(zip(trials, outages.tolist(), error))
    ]


def run_monte_carlo(config: ScenarioConfig, scenario: Scenario | None = None) -> MonteCarloResult:
    """Run all trials in contiguous blocks, one per worker, and aggregate.

    Results are ordered by trial index, and a trial's records do not depend
    on its block, so the output is identical for any worker count. The
    blocks' records join into one :class:`BlockRecord`, and every statistic
    is a masked reduction over its columns, summed in trial order, then
    round order, as over a list of the records. ``outage_unreachable`` sums
    the trials' counts of recorded rounds with an unreachable device, and
    ``outage_energy_short`` is the rest of their outage rounds.
    """
    if scenario is None:
        scenario = build(config)
    n, workers = config.monte_carlo_trials, min(config.workers, config.monte_carlo_trials)
    blocks = [range(n * i // workers, n * (i + 1) // workers) for i in range(workers)]
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_trial, repeat(scenario), blocks))
    else:
        results = [run_trial(scenario, blocks[0])]
    trials = [tr for block in results for tr in block]
    rec, *others = [block[0].rounds.record for block in results]
    if others:  # join the blocks' columns in trial order
        cols = {name: [r[name] for r in (rec, *others)] for name in rec}
        rec = BlockRecord({k: c[0] if c[0] is None else np.concatenate(c) for k, c in cols.items()})

    ok = np.array([error is None for error in rec["error"]])  # these record every round
    kept = rec["t_total_s"][ok]
    finite = kept[np.isfinite(kept)]  # trial-major, as the records list them
    if finite.size:
        delay_mean = float(np.mean(finite))
        delay_std = float(_std(finite))
        delay_p5, delay_p95 = np.percentile(finite, [5, 95]).tolist()
    else:
        delay_mean = delay_std = delay_p5 = delay_p95 = float("nan")

    if ok.any():  # row r reduces as np.mean and np.std of round r's list: a pairwise sum
        test = rec["test_metric"][ok].T.copy()
        metric_mean, metric_std = test.mean(axis=1), _std(test, axis=1)
    else:
        metric_mean, metric_std = np.full(config.rounds, np.nan), np.full(config.rounds, np.nan)

    executed, outages = int(rec["rounds_done"].sum()), int(rec["outage_count"].sum())
    unreachable = int(rec["outage_unreachable"].sum())
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
        n_failed=int(np.count_nonzero(~ok)),
        outage_unreachable=unreachable,
        outage_energy_short=outages - unreachable,
        record=rec,
    )


def _std(x: np.ndarray, axis=None) -> np.ndarray:
    """``np.std`` that stays finite on finite values: where their squared
    deviations overflow, the values are divided by their largest magnitude
    first and the std scaled back, which cannot overflow, since a std is at
    most that magnitude. Everywhere else the result is ``np.std``'s, bit for bit."""
    with np.errstate(over="ignore"):
        std = np.std(x, axis=axis)
    if np.isfinite(std).all():
        return std
    redo = ~np.isfinite(std) & np.isfinite(x).all(axis=axis)
    scale = np.abs(x).max(axis=axis, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):  # all-zero rows are not redone
        rescaled = np.std(x / scale, axis=axis) * np.squeeze(scale, axis)
    return np.where(redo, rescaled, std)


def sweep(config: ScenarioConfig, param_path: str, values) -> list[dict]:
    """Monte Carlo at each value of one config field, same seed throughout.

    ``param_path`` is one dotted path, which each point sets to its value
    by :func:`with_override`. Reusing the master seed pairs the fading draws
    across sweep points, so observed trends are not noise from re-rolled
    channels. Each row also counts the point's ``failed_trials``.
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
                "failed_trials": res.n_failed,
            }
        )
    return rows
