"""Scenario assembly, seeded Monte Carlo trials, and parameter sweeps.

Everything here runs on a :class:`~swiptfl.config.ScenarioConfig`; the config
classes and the merge that builds a config live in :mod:`swiptfl.config`.
The round kernel :func:`link_round` takes only the config and a fading
realization; the payloads follow from the config. Grid-search placement
scores every candidate UAV position against every placement fading draw in
one batched :func:`link_round`; centroid placement scores its one position
only when the scenario's ``placement_objective_s`` is first read. Monte
Carlo trials run in contiguous blocks, one block per worker. :func:`run_trial`
runs a block's physics chunk by chunk, then its learning on the participation
mask the physics leaves, into one columnar :class:`BlockRecord`; every
reported statistic is one named reduction in the :func:`statistics` table of
the joined record, which :func:`run_monte_carlo` and :func:`sweep` report.
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
* ``("trial", t, "train")`` minibatch sampling for all M devices of trial
  t, one generator consumed round after round; derived only when training
  draws minibatches, never for full batch

:func:`rng_stream` defines each stream. A block names its fading or training
streams, and placement its draws, by one path whose trial and round parts
are broadcast integer arrays; :func:`_stream_seeds` derives all their seed
words from one entropy array in one vectorized pass of numpy's SeedSequence
algorithm, bit-identical to the per-stream rule. A minibatch block builds
its T training generators once, before its first round.
"""

from __future__ import annotations

import functools
import zlib
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import repeat
from operator import attrgetter

import numpy as np

from .channel import ChannelRealization, LinkBudget, device_max, downlink_budget, uplink_budget
# with_override is re-exported: the benchmark applies its overrides as scenario.with_override.
from .config import DELTA_MODE_OPTIMIZED, ScenarioConfig, merge, with_override
from .energy import EnergyLedger, ledger
from .fl_core import FederatedData, evaluate_metric, global_loss, make_federated_problem, run_round
from .optimizer import optimize_delta_all, place_uav
from .timing import local_train_time, round_total, uav_aggregation_time

ROUND_BLOCK = 1 << 16  # (round, trial, device) fading states per link round of the physics pass
EVAL_BLOCK = 1 << 13  # (model, sample) pairs per scoring pass of the learning pass
STAGE_TIMES = ("t_total_s", "t_uplink_max_s", "t_local_max_s", "t_downlink_max_s", "t_uav_s")
PER_DEVICE = ("deltas", "grid", "e_total_j", "e_harvest_j", "feasible", "participate", "battery_j")
SCORES = ("train_loss", "val_metric", "test_metric")
_COLUMNS = (*STAGE_TIMES, *PER_DEVICE, *SCORES)  # a block record's round columns, in order


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
    grid: np.ndarray
    e_total_j: np.ndarray
    e_harvest_j: np.ndarray
    feasible: np.ndarray
    participate: np.ndarray
    battery_j: np.ndarray | None
    train_loss: float
    val_metric: float
    test_metric: float


class BlockRecord(dict):
    """Every round of a block of T trials as columns, the trials in block order.

    ``STAGE_TIMES`` and ``SCORES`` name its (T, R) round columns and
    ``PER_DEVICE`` its (T, R, M) ones, :attr:`LinkRound.grid` among them;
    ``battery_j`` is None without a battery ledger. ``trial_index``,
    ``rounds_done``, ``error``, ``outage_count`` and ``outage_unreachable``
    are (T,) columns. Trial k's records are its first ``rounds_done[k]``
    rounds, and the rest of its row is filler. ``outage_count`` counts each
    trial's recorded rounds with a device unreachable (an infinite delay) or
    short of energy, and ``outage_unreachable`` those with an unreachable device.
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
        cells = (c.item() if isinstance(c, np.generic) else c for c in cells)
        return RoundMetrics(round_index=r, **dict(zip(_COLUMNS, cells)))


@dataclass(frozen=True)
class TrialResult:
    """One Monte Carlo trial: its round records (a :class:`TrialRounds` view
    of its row of the record, or a list), how many are in outage, and
    outcome flags. Only :attr:`MonteCarloResult.trials` builds it."""

    trial_index: int
    rounds: Sequence[RoundMetrics]
    outage_count: int
    failed: bool
    error: str | None


@dataclass(frozen=True)
class MonteCarloResult:
    """A Monte Carlo run: ``record`` holds every trial's rounds and outage
    counts as columns, the blocks' records joined in trial order, and
    ``trials`` views its rows. Every field after ``record`` is the entry of
    that name in the :func:`statistics` table of ``record``, in its order."""

    scenario: Scenario
    trials: list[TrialResult]
    record: BlockRecord
    delay_mean_s: float
    delay_std_s: float
    delay_p5_s: float
    delay_p95_s: float
    outage_rate: float
    outage_unreachable: int
    outage_energy_short: int
    n_failed: int
    metric_mean: np.ndarray
    metric_std: np.ndarray
    val_metric_mean: np.ndarray

    def scalars(self) -> dict:
        """The table's scalar entries, in its order: every field that is a number."""
        return {k: v for k, v in vars(self).items() if isinstance(v, (int, float))}


@dataclass(frozen=True)
class LinkRound:
    """One round's physics, stage times included, for all devices at one or a batch of states.

    ``grid`` marks the devices the solver scanned on the dense grid, all
    False at a fixed ratio. ``energy`` is built from ``config`` on its first
    read and kept, so a reader of the delay alone, such as placement, never builds a ledger."""

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


def _physics(scenario: Scenario, trials: list[int]) -> dict:
    """A block's columns ``t_total_s`` to ``battery_j``, (T, R) or (T, R, M).

    Up to ``max(1, ROUND_BLOCK // (T * M))`` rounds of the block run in one
    link round over an (R_c, T, M) realization of the trials' own fading
    streams. That is exact: no term of a round's physics reads an earlier
    round, and the battery recurrence, the one state carried across
    rounds, runs round by round after the chunk's ledger.

    Without ``battery_ledger`` every device takes part in every round, and
    energy shortfalls only show up as infeasible flags. With it a device
    skips a round it cannot afford from stored plus harvested energy: it
    still receives the downlink and harvests from it, so its download
    still gates the round, but its uplink and compute times are zeroed
    before the round total and stage maxima. Batteries are not capped.
    """
    cfg = scenario.config
    shape = (len(trials), cfg.device_count)
    chunk = min(cfg.rounds, max(1, ROUND_BLOCK // (shape[0] * shape[1])))
    battery = np.full(shape, cfg.battery_initial_j, dtype=float) if cfg.battery_ledger else None
    parts = []  # each chunk's values of the columns, (n, T) or (n, T, M); battery_j's may be None
    for start in range(0, cfg.rounds, chunk):
        rounds = np.arange(start, min(start + chunk, cfg.rounds))
        gains = trial_fading(cfg.master_seed, trials, rounds, shape[1])
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

        masked = (np.where(participate, t, 0.0) for t in (phys.uplink.tx_time_s, phys.t_local_s))
        stages = (*masked, phys.downlink.tx_time_s)  # a device that sits out still downloads
        total = round_total(*stages, phys.t_uav_s)
        t_uav = np.broadcast_to(phys.t_uav_s, total.shape)
        energy = (e_total, e_harvest, phys.energy.feasible, participate, levels)
        parts.append((total, *map(device_max, stages), t_uav, phys.deltas, phys.grid, *energy))

    # Each column once, trial-major: (T, R), or (T, R, M) per device.
    columns = (None if c[0] is None else np.concatenate(c).swapaxes(0, 1) for c in zip(*parts))
    return dict(zip((*STAGE_TIMES, *PER_DEVICE), columns))


def _learning(scenario: Scenario, trials: list[int], participate: np.ndarray) -> tuple:
    """A block's (3, R, T) scores, in ``SCORES`` order, ``rounds_done`` and ``error``.

    Round r runs one :func:`run_round` of all T models over the devices
    that ``participate`` (T, R, M) marks in it. Then all (R, T) models are
    scored on the training, val and test sets in passes of at most
    ``EVAL_BLOCK`` (model, sample) pairs, samples counted over all of a
    dataset's sets. Minibatch training draws from one generator per trial,
    built before round 0, so a trial's draws depend on neither its
    participation, its stopping nor its block.

    A trial stops at its training's first error, in that round, or at its
    first round with a non-finite score, whichever is earlier; the message
    names the first of train loss, val metric and test metric not finite.
    A trial stopped by an error keeps its row and its model: later rounds
    hand it no participant, and what :func:`run_round` reports for it is ignored.
    """
    cfg, iters = scenario.config, scenario.config.compute.local_iters
    models = np.tile(scenario.w0, (len(trials), 1))  # one row per trial, stopped or not
    rounds_done = np.full(len(trials), cfg.rounds)
    error = np.full(len(trials), None, dtype=object)
    path = ("trial", np.array(trials), "train")  # one training stream per trial
    minibatch = cfg.trainer.minibatch(scenario.train_sets.count)
    rngs = [_generator(w) for w in _stream_seeds(cfg.master_seed, path)] if minibatch else None
    trained = np.empty((cfg.rounds, *models.shape))
    for r in range(cfg.rounds):  # a training error stops a trial at once
        running = participate[:, r] & (rounds_done > r)[:, None]
        step = run_round(models, scenario.train_sets, cfg.trainer, iters, rngs, running)
        for k, message in step.errors.items():
            if rounds_done[k] > r:  # a report for a stopped trial changes nothing
                rounds_done[k], error[k] = r, message
        models = trained[r] = step.models

    flat = trained.reshape(-1, models.shape[1])  # round-major
    scores = np.empty((len(SCORES), cfg.rounds, len(trials)))
    sets = (scenario.train_sets, scenario.val_set, scenario.test_set)
    metrics = (global_loss, evaluate_metric, evaluate_metric)
    for score, dataset, metric in zip(scores.reshape(len(SCORES), -1), sets, metrics):
        size = max(1, EVAL_BLOCK // dataset.targets.size)
        for a in range(0, len(flat), size):
            score[a : a + size] = metric(flat[a : a + size], dataset, cfg.trainer.task)
    bad = ~np.isfinite(scores) & (np.arange(cfg.rounds)[:, None] < rounds_done)
    for k in np.flatnonzero(bad.any(axis=(0, 1))).tolist():
        r, i = np.argwhere(bad[:, :, k].T)[0].tolist()  # the first such round, then score in it
        rounds_done[k], error[k] = r, f"non-finite {SCORES[i].replace('_', ' ')} in round {r}"
    return scores, rounds_done, error


def run_trial(scenario: Scenario, trial_indices) -> BlockRecord:
    """A block of seeded trials as one :class:`BlockRecord`: the physics pass
    :func:`_physics`, then the learning pass :func:`_learning` on the one
    thing the physics hands it, the participation mask. The record holds
    the round columns, ``trial_index``, ``rounds_done``, ``error`` (each
    stopped trial's message, else None) and the outage counts of the
    recorded rounds, so :func:`statistics` reduces it as it stands.
    """
    trials = list(trial_indices)
    if not trials:
        raise ValueError("a block of trials must not be empty")
    columns = _physics(scenario, trials)
    scores, rounds_done, error = _learning(scenario, trials, columns["participate"])
    columns.update(zip(SCORES, scores.swapaxes(1, 2)))
    rec = BlockRecord(columns, trial_index=np.array(trials), rounds_done=rounds_done, error=error)
    recorded = rec.recorded()
    unreachable = ~np.isfinite(rec["t_total_s"]) & recorded
    short = ~rec["feasible"].all(axis=-1) & recorded
    rec["outage_count"] = np.count_nonzero(unreachable | short, axis=1)
    rec["outage_unreachable"] = np.count_nonzero(unreachable, axis=1)
    return rec


def run_monte_carlo(config: ScenarioConfig, scenario: Scenario | None = None) -> MonteCarloResult:
    """Run all trials in contiguous blocks, one per worker, and aggregate.

    A given ``scenario`` must be the one built from ``config``, or ValueError
    is raised. Results are ordered by trial index, and a trial's records do
    not depend on its block, so the output is identical for any worker
    count. The blocks' records join column by column into one
    :class:`BlockRecord`, and the result's statistics are the
    :func:`statistics` table of that record.
    """
    if scenario is None:
        scenario = build(config)
    elif scenario.config != config:
        raise ValueError("run_monte_carlo: the scenario was built from another config")
    n, workers = config.monte_carlo_trials, min(config.workers, config.monte_carlo_trials)
    blocks = [range(n * i // workers, n * (i + 1) // workers) for i in range(workers)]
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rec, *others = pool.map(run_trial, repeat(scenario), blocks)
    else:
        rec, others = run_trial(scenario, blocks[0]), []
    if others:  # join the blocks' columns in trial order
        cols = {name: [r[name] for r in (rec, *others)] for name in rec}
        rec = BlockRecord({k: c[0] if c[0] is None else np.concatenate(c) for k, c in cols.items()})
    views = enumerate(zip(rec["trial_index"].tolist(), rec["outage_count"].tolist(), rec["error"]))
    trials = [TrialResult(t, TrialRounds(rec, k), n, e is not None, e) for k, (t, n, e) in views]
    return MonteCarloResult(scenario=scenario, trials=trials, record=rec, **statistics(rec))


def statistics(record: BlockRecord) -> dict:
    """Every reported statistic of a record, one block's from :func:`run_trial`
    or their join in :func:`run_monte_carlo`, by its :class:`MonteCarloResult`
    field name: one masked reduction each, summed in trial order, then round
    order, as over a list of the records."""
    ok = np.equal(record["error"], None)  # the trials that did not fail record every round
    kept = record["t_total_s"][ok]
    finite = kept[np.isfinite(kept)]  # trial-major, as the records list them
    delay = [float("nan")] * 4
    if finite.size:
        delay = [float(np.mean(finite)), float(_std(finite))]
        delay += np.percentile(finite, [5, 95]).tolist()

    def per_round(column, reduce):  # round r over the trials that did not fail; NaN if none
        rounds = record[column][ok].T.copy()  # round-major: np.mean's pairwise sum per row
        return reduce(rounds, axis=1) if ok.any() else np.full(len(rounds), np.nan)

    executed, outages = int(record["rounds_done"].sum()), int(record["outage_count"].sum())
    unreachable = int(record["outage_unreachable"].sum())
    return {  # the outage entries count the recorded rounds of every trial, failed or not
        "delay_mean_s": delay[0],
        "delay_std_s": delay[1],
        "delay_p5_s": delay[2],
        "delay_p95_s": delay[3],
        "outage_rate": outages / executed if executed else float("nan"),
        "outage_unreachable": unreachable,
        "outage_energy_short": outages - unreachable,
        "n_failed": int(np.count_nonzero(~ok)),
        "metric_mean": per_round("test_metric", np.mean),
        "metric_std": per_round("test_metric", _std),
        "val_metric_mean": per_round("val_metric", np.mean),
    }


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

    ``param_path`` is one dotted path, and each value is what an override of it
    takes: a section's value is a mapping that merges into the section. Every
    point's config is built by :func:`~swiptfl.config.merge` before the first
    run, so a value its field rejects raises ConfigError with nothing run. A row
    is ``param_value``, the point's field value (``"20 dBm"`` reads 0.1; a
    section item reads ``{name: merged value}`` for each field it names), then
    the point's :meth:`MonteCarloResult.scalars`. Reusing the master seed pairs
    the fading draws across sweep points, so observed trends are not noise from
    re-rolled channels.
    """
    points = [(value, merge(config, {param_path: value})) for value in values]
    rows = []
    for value, point in points:
        swept = attrgetter(param_path)(point)
        if isinstance(value, dict):  # a section item: the fields it names, as merged
            swept = {name: attrgetter(name)(swept) for name in value}
        rows.append({"param_value": swept, **run_monte_carlo(point).scalars()})
    return rows
