"""Command-line front end: YAML configs, subcommands, CSV/JSON emission.

Configs are YAML mappings mirroring ScenarioConfig; any field can be
overridden with ``--override dotted.path=value``. Power fields accept a
``dBm`` suffix (e.g. ``"20 dBm"``) and are converted to watts while the
config is still a plain mapping, so the core never sees decibels. A run
manifest written next to the outputs snapshots the resolved config; passing
a manifest as ``--config`` replays the run it records.

Exit codes: 0 success, 2 config or argument error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import re
import sys
import tempfile
from dataclasses import asdict, fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .channel import ChannelRealization, LinkParams
from .energy import ComputeProfile, HarvestModel
from .fl_core import DivergenceError, TrainerConfig, select_rounds
from .scenario import (
    DataConfig,
    ScenarioConfig,
    build,
    link_round,
    rng_stream,
    run_monte_carlo,
    sweep,
    with_override,
)

SWEEP_COLUMNS = ["param_value", "mean_t_total_s", "std_t_total_s", "p5", "p95", "outage_rate"]
ROUNDS_COLUMNS = [
    "trial",
    "round",
    "t_total_s",
    "t_uplink_max_s",
    "t_local_max_s",
    "t_downlink_max_s",
    "t_uav_s",
    "e_total_j_sum",
    "e_harvest_j_sum",
    "feasible_devices",
    "train_loss",
    "val_metric",
    "test_metric",
]

_DBM_RE = re.compile(r"^\s*([-+]?[0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?)\s*dBm\s*$")


class ConfigError(Exception):
    """Bad config file, unknown key, or malformed override."""


def _dbm_to_watts(text: str) -> float | None:
    m = _DBM_RE.match(text)
    if m is None:
        return None
    return 1e-3 * 10.0 ** (float(m.group(1)) / 10.0)


def _normalize_powers(obj):
    """Recursively normalize scalars in a raw config tree.

    Converts '<x> dBm' strings to watts and rescues numeric strings that
    YAML left as text (the '1.0e6' spelling, which YAML only accepts with
    an explicit exponent sign).
    """
    if isinstance(obj, dict):
        return {k: _normalize_powers(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_normalize_powers(v) for v in obj]
    if isinstance(obj, str):
        watts = _dbm_to_watts(obj)
        if watts is not None:
            return watts
        try:
            return float(obj)
        except ValueError:
            return obj
    return obj


_NESTED = {
    "link": LinkParams,
    "compute": ComputeProfile,
    "harvest": HarvestModel,
    "trainer": TrainerConfig,
    "data": DataConfig,
}


def config_from_dict(raw: dict) -> ScenarioConfig:
    """Build a validated ScenarioConfig, rejecting unknown keys loudly."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    known = {f.name for f in fields(ScenarioConfig)}
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    kwargs = {}
    for key, value in raw.items():
        if key in _NESTED:
            if not isinstance(value, dict):
                raise ConfigError(f"config section {key!r} must be a mapping")
            sub_known = {f.name for f in fields(_NESTED[key])}
            sub_unknown = sorted(set(value) - sub_known)
            if sub_unknown:
                raise ConfigError(f"unknown keys in {key!r}: {', '.join(sub_unknown)}")
            try:
                kwargs[key] = _NESTED[key](**value)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad {key!r} section: {exc}") from exc
        elif key == "area_bounds":
            if not isinstance(value, (list, tuple)) or len(value) != 4:
                raise ConfigError("area_bounds must be a 4-element list")
            kwargs[key] = tuple(value)
        else:
            kwargs[key] = value
    try:
        return ScenarioConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path: str) -> ScenarioConfig:
    """Load a YAML config, or replay the config snapshot of a manifest."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    if raw is None:
        raw = {}
    if isinstance(raw, dict) and "config" in raw and raw.get("tool") == "swiptfl":
        raw = raw["config"]
    return config_from_dict(_normalize_powers(raw))


def _parse_override(text: str):
    if "=" not in text:
        raise ConfigError(f"override must look like dotted.path=value, got {text!r}")
    path, _, value_text = text.partition("=")
    if not path:
        raise ConfigError(f"override must look like dotted.path=value, got {text!r}")
    try:
        value = yaml.safe_load(value_text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse override value {value_text!r}: {exc}") from exc
    return path, _normalize_powers(value)


def _apply_cli_options(config: ScenarioConfig, args) -> ScenarioConfig:
    for text in args.override or []:
        path, value = _parse_override(text)
        try:
            config = with_override(config, path, value)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    if args.seed is not None:
        config = with_override(config, "master_seed", args.seed)
    if args.workers is not None:
        config = with_override(config, "workers", args.workers)
    return config


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _json_safe(value):
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        v = float(value)
        return v if math.isfinite(v) else None
    if isinstance(value, np.ndarray):
        return [_json_safe(v) for v in value.tolist()]
    return value


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(_json_safe(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_manifest(
    out_dir: Path, command: str, config: ScenarioConfig, outputs: list[str], started: str
) -> None:
    payload = {
        "tool": "swiptfl",
        "version": __version__,
        "command": command,
        "master_seed": config.master_seed,
        "started_utc": started,
        "finished_utc": _utc_now(),
        "outputs": sorted(outputs),
        "config": asdict(config),
    }
    # Atomic write: a crash mid-dump can never leave a half manifest.
    fd, tmp = tempfile.mkstemp(dir=out_dir, prefix=".manifest-", suffix=".json")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(_json_safe(payload), fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, out_dir / "manifest.json")
    except BaseException:
        os.unlink(tmp)
        raise


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_run(args) -> int:
    config = _apply_cli_options(load_config(args.config), args)
    started = _utc_now()
    out = _out_dir(args)
    result = run_monte_carlo(config)

    rows = []
    for tr in result.trials:
        for rm in tr.rounds:
            rows.append(
                [
                    tr.trial_index,
                    rm.round_index,
                    rm.t_total_s,
                    rm.t_uplink_max_s,
                    rm.t_local_max_s,
                    rm.t_downlink_max_s,
                    rm.t_uav_s,
                    float(np.sum(rm.e_total_j)),
                    float(np.sum(rm.e_harvest_j)),
                    int(np.sum(rm.feasible)),
                    rm.train_loss,
                    rm.val_metric,
                    rm.test_metric,
                ]
            )
    _write_csv(out / "rounds.csv", ROUNDS_COLUMNS, rows)

    summary = {
        "trials": config.monte_carlo_trials,
        "rounds": config.rounds,
        "delay_mean_s": result.delay_mean_s,
        "delay_std_s": result.delay_std_s,
        "delay_p5_s": result.delay_p5_s,
        "delay_p95_s": result.delay_p95_s,
        "outage_rate": result.outage_rate,
        "failed_trials": result.n_failed,
        "final_round_metric_mean": float(result.metric_mean[-1]),
        "final_round_metric_std": float(result.metric_std[-1]),
        "uav_position": list(result.scenario.uav_position),
    }
    _write_json(out / "summary.json", summary)
    _write_manifest(out, "run", config, ["rounds.csv", "summary.json"], started)

    print(
        f"ran {config.monte_carlo_trials} trials x {config.rounds} rounds: "
        f"mean delay {result.delay_mean_s:.6g} s, outage rate {result.outage_rate:.4f}"
    )
    if result.n_failed:
        for tr in result.trials:
            if tr.failed:
                print(f"trial {tr.trial_index} failed: {tr.error}", file=sys.stderr)
        return 3
    return 0


def cmd_sweep(args) -> int:
    config = _apply_cli_options(load_config(args.config), args)
    started = _utc_now()
    out = _out_dir(args)
    values = []
    for chunk in args.values.split(","):
        _, value = _parse_override(f"{args.param}={chunk.strip()}")
        values.append(value)
    if not values:
        raise ConfigError("--values must list at least one value")

    rows = sweep(config, args.param, values)
    _write_csv(out / "sweep.csv", SWEEP_COLUMNS, [[row[c] for c in SWEEP_COLUMNS] for row in rows])
    _write_manifest(out, "sweep", config, ["sweep.csv"], started)
    for row in rows:
        print(f"{args.param}={row['param_value']}: mean delay {row['mean_t_total_s']:.6g} s")
    return 0


def cmd_accuracy_curve(args) -> int:
    config = _apply_cli_options(load_config(args.config), args)
    started = _utc_now()
    out = _out_dir(args)
    result = run_monte_carlo(config)
    rows = [
        [r, float(result.metric_mean[r]), float(result.metric_std[r])]
        for r in range(config.rounds)
    ]
    _write_csv(out / "accuracy.csv", ["round", "mean_test_metric", "std"], rows)
    _write_manifest(out, "accuracy-curve", config, ["accuracy.csv"], started)
    print(
        f"metric over {config.rounds} rounds: first {result.metric_mean[0]:.4f}, "
        f"final {result.metric_mean[-1]:.4f}"
    )
    if result.n_failed:
        print(f"{result.n_failed} trials failed", file=sys.stderr)
        return 3
    return 0


def cmd_select_rounds(args) -> int:
    config = _apply_cli_options(load_config(args.config), args)
    started = _utc_now()
    out = _out_dir(args)
    try:
        candidates = [int(c) for c in args.candidates.split(",") if c.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad --candidates: {exc}") from exc
    if not candidates:
        raise ConfigError("--candidates must list at least one round count")

    scenario = build(config)
    try:
        selection = select_rounds(
            candidates,
            scenario.train_sets,
            scenario.val_set,
            scenario.test_set,
            config.trainer,
            rng_stream(config.master_seed, "select"),
            scenario.w0,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    _write_csv(
        out / "selection.csv",
        ["rounds", "val_metric"],
        [[row["rounds"], row["val_metric"]] for row in selection.table],
    )
    _write_json(
        out / "selection.json",
        {"best_rounds": selection.best_rounds, "test_metric": selection.test_metric},
    )
    _write_manifest(out, "select-rounds", config, ["selection.csv", "selection.json"], started)
    print(f"chosen rounds: {selection.best_rounds} (test metric {selection.test_metric:.6g})")
    return 0


def cmd_optimize_delta(args) -> int:
    config = _apply_cli_options(load_config(args.config), args)
    if config.delta_mode != "optimized":
        config = with_override(config, "delta_mode", "optimized")
    started = _utc_now()
    out = _out_dir(args)
    scenario = build(config)
    gains = rng_stream(config.master_seed, "trial", 0, "fading", 0).exponential(
        1.0, config.device_count
    )
    rnd = link_round(
        config,
        ChannelRealization(gains, scenario.distances_m),
        scenario.payload_ul_bits,
        scenario.payload_dl_bits,
        scenario.uav_payload_bits,
    )
    rows = zip(
        range(config.device_count), rnd.deltas, rnd.energy.feasible, rnd.downlink.tx_time_s
    )
    _write_csv(out / "deltas.csv", ["device", "delta", "feasible", "t_downlink_s"], rows)
    _write_manifest(out, "optimize-delta", config, ["deltas.csv"], started)
    print(f"solved ratios via {rnd.method}: round delay {rnd.delay().t_total_s:.6g} s")
    return 0


def cmd_place_uav(args) -> int:
    config = _apply_cli_options(load_config(args.config), args)
    started = _utc_now()
    out = _out_dir(args)
    scenario = build(config)
    _write_json(
        out / "placement.json",
        {
            "position": list(scenario.uav_position),
            "objective_s": scenario.placement_objective_s,
            "mode": config.placement_mode,
        },
    )
    _write_manifest(out, "place-uav", config, ["placement.json"], started)
    x, y, z = scenario.uav_position
    print(
        f"uav at ({x:.3f}, {y:.3f}, {z:.3f}): "
        f"expected delay {scenario.placement_objective_s:.6g} s"
    )
    return 0


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", required=True, help="YAML config (or a manifest.json to replay)")
    sub.add_argument(
        "--override",
        action="append",
        metavar="PATH=VALUE",
        help="override a config field by dotted path; repeatable",
    )
    sub.add_argument("--seed", type=int, default=None, help="override master_seed")
    sub.add_argument(
        "--out",
        default=os.environ.get("SWIPTFL_OUT", "out"),
        help="output directory (default: $SWIPTFL_OUT or ./out)",
    )
    sub.add_argument(
        "--workers",
        type=int,
        default=None,
        help="trial worker processes (default: the config's workers)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swiptfl",
        description="Round-based simulator for UAV-served federated learning with "
        "power-splitting energy harvesting",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("run", help="Monte Carlo run; writes rounds.csv + summary.json")
    _add_common(p)
    p.set_defaults(func=cmd_run)

    p = subs.add_parser("sweep", help="re-run while varying one config field; writes sweep.csv")
    _add_common(p)
    p.add_argument("--param", required=True, help="dotted config path, e.g. link.ptx_dl_w")
    p.add_argument("--values", required=True, help="comma-separated values")
    p.set_defaults(func=cmd_sweep)

    p = subs.add_parser("accuracy-curve", help="per-round mean metric; writes accuracy.csv")
    _add_common(p)
    p.set_defaults(func=cmd_accuracy_curve)

    p = subs.add_parser("select-rounds", help="cross-validate the round budget")
    _add_common(p)
    p.add_argument("--candidates", required=True, help="comma-separated round budgets, ascending")
    p.set_defaults(func=cmd_select_rounds)

    p = subs.add_parser("optimize-delta", help="per-device power-splitting ratios for one round")
    _add_common(p)
    p.set_defaults(func=cmd_optimize_delta)

    p = subs.add_parser("place-uav", help="choose the UAV position; writes placement.json")
    _add_common(p)
    p.set_defaults(func=cmd_place_uav)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
