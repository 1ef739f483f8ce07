"""Configuration: the config classes, the one merge onto them, and the YAML reader.

:class:`ScenarioConfig` is everything that defines one experiment; its
sections are the config classes of the physics and learning modules.
:func:`merge` is the one walk over a config tree, with one type rule for
every leaf, for config files, manifests and overrides alike.
:func:`load_config` reads a YAML file, or replays the config snapshot of a
manifest, onto the defaults. Everything that :func:`merge`,
:func:`parse_yaml` and :func:`load_config` reject is a :class:`ConfigError`,
which is a ValueError.
"""

from __future__ import annotations

import functools
import re
import typing
from dataclasses import dataclass, field, replace
from pathlib import Path

import yaml

from .channel import DELTA_MAX, DELTA_MIN, LinkParams
from .domains import AT_LEAST_1, FINITE, NONNEGATIVE_FINITE, NONNEGATIVE_INT, NONNEGATIVE_OR_INF
from .domains import POSITIVE_FINITE, at_least, check_domains, interval, within
from .energy import ComputeProfile, HarvestModel
from .fl_core import TASK_LOGISTIC, TrainerConfig
from .optimizer import MODE_CENTROID, MODE_GRID_SEARCH

DELTA_MODE_FIXED = "fixed"
DELTA_MODE_OPTIMIZED = "optimized"

# libyaml's loader parses a config about six times faster than the pure-Python one.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


class ConfigError(ValueError):
    """A config value, key, file or override that is rejected; the message names it."""


@dataclass(frozen=True)
class DataConfig:
    """Synthetic dataset shape and noise.

    ``noise`` is the target noise std for the linear task and the label
    flip probability for the logistic task, where :class:`ScenarioConfig`,
    which sees the task, keeps it in [0, 1].
    """

    dim: int = within(AT_LEAST_1, 4)
    samples_per_device: int = within(AT_LEAST_1, 20)
    val_samples: int = within(AT_LEAST_1, 200)
    test_samples: int = within(AT_LEAST_1, 400)
    noise: float = within(NONNEGATIVE_FINITE, 0.1)
    weight_scale: float = within(FINITE, 1.0)
    init_scale: float = within(FINITE, 0.01)

    def __post_init__(self):
        check_domains(self)


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything that defines one experiment, defaults included.

    The model payload, the same on uplink and downlink, is ``payload_bits``,
    or 32 bits per model coordinate when that is None. The UAV aggregation
    processes the payloads of all devices, or a single payload when
    ``uav_payload_scales_with_m`` is false. ``compute.local_iters`` is the
    one local iteration count: every device trains that many iterations a
    round, and the energy and delay models bill them.
    """

    master_seed: int = within(NONNEGATIVE_INT, 0)
    device_count: int = within(AT_LEAST_1, 5)
    monte_carlo_trials: int = within(AT_LEAST_1, 10)
    rounds: int = within(AT_LEAST_1, 10)
    area_bounds: tuple[float, float, float, float] = within(FINITE, (0.0, 100.0, 0.0, 100.0))
    uav_altitude_m: float = within(POSITIVE_FINITE, 20.0)
    placement_mode: str = MODE_CENTROID
    placement_grid_points: int = within(at_least(2), 9)
    placement_trials: int = within(AT_LEAST_1, 25)
    delta_mode: str = DELTA_MODE_FIXED
    delta_fixed: float = within(interval(DELTA_MIN, DELTA_MAX), 0.5)
    device_pays_downlink: bool = True
    uav_payload_scales_with_m: bool = True
    battery_ledger: bool = False
    battery_initial_j: float = within(NONNEGATIVE_OR_INF, 0.0)
    payload_bits: float | None = within(POSITIVE_FINITE, None)
    uav_cycles_per_bit: float = within(POSITIVE_FINITE, 100.0)
    uav_cpu_hz: float = within(POSITIVE_FINITE, 1e9)
    workers: int = within(AT_LEAST_1, 1)
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
    trainer: TrainerConfig = field(default_factory=lambda: TrainerConfig(learning_rate=0.1))
    data: DataConfig = field(default_factory=DataConfig)

    def __post_init__(self):
        bounds = _coerce(tuple, False, self.area_bounds, "area_bounds")  # merge's rule
        object.__setattr__(self, "area_bounds", bounds)
        check_domains(self)
        if len(self.area_bounds) != 4:
            raise ValueError("area_bounds must be (xmin, xmax, ymin, ymax)")
        xmin, xmax, ymin, ymax = self.area_bounds
        if not (xmax > xmin and ymax > ymin):
            raise ValueError("area_bounds must satisfy xmax > xmin and ymax > ymin")
        if self.placement_mode not in (MODE_CENTROID, MODE_GRID_SEARCH):
            raise ValueError(f"unknown placement_mode {self.placement_mode!r}")
        if self.delta_mode not in (DELTA_MODE_FIXED, DELTA_MODE_OPTIMIZED):
            raise ValueError(f"unknown delta_mode {self.delta_mode!r}")
        if self.trainer.task == TASK_LOGISTIC and not self.data.noise <= 1:
            raise ValueError(
                f"DataConfig.noise must be in [0, 1] for the logistic task, got {self.data.noise!r}"
            )


@functools.cache
def _field_types(cls) -> dict[str, tuple[type, bool]]:
    """Each field of config class ``cls``: its declared type, with ``X | None``
    read as X and ``tuple[...]`` as tuple, and whether it takes None."""
    out = {}
    for name, hint in typing.get_type_hints(cls).items():
        args = typing.get_args(hint)
        kinds = [kind for kind in args if kind is not type(None)]
        optional = len(kinds) < len(args)
        out[name] = (kinds[0] if optional else typing.get_origin(hint) or hint, optional)
    return out


# The leaf types, each with what its error message expects; every other field is a section.
_EXPECTS = {bool: "a bool", int: "an int", float: "a number", tuple: "a list", str: "a string"}
_DBM = re.compile(r"\s*([-+]?[0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?)\s*dBm\s*")


def _coerce(kind: type, optional: bool, value, path: str):
    """``value`` for the leaf at ``path`` of declared type ``kind``, or ConfigError.
    A tuple field holds numbers: entry i is read as the float leaf ``path[i]``."""
    if value is None and optional:
        return None
    if isinstance(value, str) and kind in (int, float):
        dbm = _DBM.fullmatch(value) if path.endswith("_w") else None
        try:
            value = 1e-3 * 10.0 ** (float(dbm.group(1)) / 10.0) if dbm else float(value)
        except ValueError:
            pass  # reported below as the text it was
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind is int and number and (isinstance(value, int) or value.is_integer()):
        return int(value)
    if kind is float and number:
        return float(value)
    if kind is tuple and isinstance(value, (list, tuple)):
        return tuple(_coerce(float, False, v, f"{path}[{i}]") for i, v in enumerate(value))
    if kind in (bool, str) and isinstance(value, kind):
        return value
    raise ConfigError(f"{path} expects {_EXPECTS[kind]}, got {value!r}")


def merge(config, mapping: dict, prefix: str = ""):
    """``config`` with every field that ``mapping`` names replaced, or ConfigError.

    The one walk from a mapping to a config, for config files, manifests,
    overrides and sweep points alike. A key is a field name or a dotted path
    into sections (``"link.ptx_dl_w"``), and the keys apply in order, so a
    later key for a section merges into the section as earlier keys left it and
    a later key for the same leaf wins. The config is checked once, with every
    key applied. A section field takes a mapping, which merges into the
    section, so a section lists only the fields it changes. A leaf takes the
    type its field declares: 30.0 is the int 30 for an int field but 1.5 is
    rejected, and an optional field (``X | None``) takes null or a value by the
    rule of X. A number field also reads numeric text, such as the ``1.0e6``
    that YAML leaves as a string, and a power field (its name ends in ``_w``)
    also reads ``"<x> dBm"`` as watts. ``prefix`` is the dotted path of
    ``config`` within the tree, which error messages name. An unknown key, a
    leaf of the wrong type, a section given anything but a mapping, and a value
    that a config class's own check refuses are each a ConfigError.
    """
    types, changes = _field_types(type(config)), {}
    for key, value in mapping.items():
        name, dot, rest = str(key).partition(".")
        path = f"{prefix}{name}"
        if name not in types:
            owner = type(config).__name__
            raise ConfigError(f"unknown config field {path!r} (no {name!r} on {owner})")
        kind, optional = types[name]
        if dot:
            value = {rest: value}
        if kind in _EXPECTS:
            changes[name] = _coerce(kind, optional, value, path)
        elif isinstance(value, dict):
            changes[name] = merge(changes.get(name, getattr(config, name)), value, path + ".")
        else:
            raise ConfigError(f"{path} expects a mapping, got {value!r}")
    try:
        return replace(config, **changes)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def with_override(config, path: str, value):
    """New config with the dotted-path field replaced: ``merge(config, {path: value})``,
    so ``rounds=30.0`` becomes the int 30, ``rounds=1.5`` and unknown field
    names raise ConfigError, and ``link.ptx_ul_w="20 dBm"`` is 0.1 W."""
    return merge(config, {path: value})


def parse_yaml(text: str, what: str):
    """``text`` parsed as YAML; a parse error is a one-line ConfigError that
    names ``what``, the problem, and its line and column."""
    try:
        return yaml.load(text, Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        mark, problem = getattr(exc, "problem_mark", None), getattr(exc, "problem", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        detail = problem or str(exc).splitlines()[0]
        raise ConfigError(f"cannot parse {what}: {detail}{where}") from exc


def load_config(path: str) -> ScenarioConfig:
    """Load a YAML config, or replay the config snapshot of a manifest, onto the defaults.

    Files and manifests written when the trainer held its own copy of the
    local iteration count may carry ``trainer.local_iters``. It is dropped
    if it equals ``compute.local_iters`` as the file sets it, and is a
    ConfigError otherwise.
    """
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    raw = parse_yaml(text, f"config {path}")
    if raw is None:
        raw = {}
    if isinstance(raw, dict) and "config" in raw and raw.get("tool") == "swiptfl":
        raw = raw["config"]
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    trainer = raw.get("trainer")
    legacy = trainer.pop("local_iters", None) if isinstance(trainer, dict) else None
    config = merge(ScenarioConfig(), raw)
    if legacy is not None and legacy != config.compute.local_iters:
        raise ConfigError(
            f"trainer.local_iters ({legacy!r}) differs from compute.local_iters "
            f"({config.compute.local_iters!r}); the count is compute.local_iters alone, "
            "so drop trainer.local_iters"
        )
    return config
