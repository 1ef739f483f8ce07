"""Command-line front end: argument parsing, subcommands, CSV/JSON emission.

Every subcommand runs one pipeline. :func:`resolve_config` merges the
config file, which :func:`~swiptfl.config.load_config` reads, with one
mapping of every ``--override dotted.path=value`` (or ``section={...}``),
then ``--seed``, then ``--workers``, then what the subcommand fixes, a later
value for the same key winning, in one :func:`~swiptfl.config.merge`. The
command runs on that config and :func:`main` writes a manifest next to its
outputs that snapshots the config; passing a manifest as ``--config``
replays the run it records. Power fields accept a ``dBm`` suffix (e.g.
``"20 dBm"``).

Exit codes: 0 success, 2 config, argument or I/O error, 3 numeric failure,
4 a worker process died. Any other exception is a bug and propagates with
its traceback.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from operator import attrgetter
from pathlib import Path

import numpy as np

from . import __version__
from .channel import ChannelRealization
from .config import ConfigError, ScenarioConfig, load_config, merged, parse_yaml
from .fl_core import DivergenceError, best_budget, check_candidates
from .scenario import build, link_round, run_monte_carlo, sweep, trial_fading

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


def resolve_config(args) -> ScenarioConfig:
    """The config a subcommand runs: its ``--config`` file merged in one step
    with every ``--override``, then ``--seed``, then ``--workers``, then the
    fields the subcommand fixes from its arguments; a later value for the
    same key wins."""
    pairs = []
    for text in args.override or []:
        path, eq, value = text.partition("=")
        if not (path and eq):
            raise ConfigError(f"override must look like dotted.path=value, got {text!r}")
        pairs.append((path, parse_yaml(value, f"override value {value!r}")))
    options = {"master_seed": args.seed, "workers": args.workers}
    pairs += [item for item in options.items() if item[1] is not None]
    changes = {}
    for key, value in [*pairs, *args.fixed(args).items()]:
        changes.pop(key, None)  # re-inserted last, so it applies after every earlier key
        changes[key] = value
    return merged(load_config(args.config), changes)


def _write_atomic(path: Path, write) -> None:
    """Write ``path`` through ``write(fh)`` atomically: a crash mid-write leaves
    neither a half file nor the temporary file, and an earlier ``path`` stays intact.
    The first write makes the directory, so a command that fails before it leaves none."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline="") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_csv(path: Path, header: list[str], rows) -> None:
    def write(fh):  # rows of ints, floats and text; csv writes a float as its repr
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)

    _write_atomic(path, write)


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
    def write(fh):
        json.dump(_json_safe(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")

    _write_atomic(path, write)


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


# Each cmd_* runs on the resolved config, writes its outputs into ``out`` and
# returns their names with the exit code; main records them in the manifest.


def cmd_run(config: ScenarioConfig, args, out: Path) -> tuple[list[str], int]:
    result = run_monte_carlo(config)

    # rounds.csv from the record's columns: the recorded rounds trial by trial,
    # a device column summed over the devices. Every cell is an int or a float
    # (written as its repr), so no cell needs csv quoting.
    rec, done = result.record, result.record.recorded()
    trial, rnd = np.broadcast_arrays(rec["trial_index"][:, None], np.arange(config.rounds))
    times = ("t_total_s", "t_uplink_max_s", "t_local_max_s", "t_downlink_max_s", "t_uav_s")
    sums = [rec[name][done].sum(axis=-1) for name in ("e_total_j", "e_harvest_j", "feasible")]
    scores = ("train_loss", "val_metric", "test_metric")
    columns = [trial, rnd, *map(rec.__getitem__, times), *sums, *map(rec.__getitem__, scores)]
    rows = zip(*(map(repr, (c if c.ndim == 1 else c[done]).tolist()) for c in columns))
    text = "\n".join(map(",".join, [ROUNDS_COLUMNS, *rows])) + "\n"
    _write_atomic(out / "rounds.csv", lambda fh: fh.write(text))

    summary = {
        "trials": config.monte_carlo_trials,
        "rounds": config.rounds,
        "delay_mean_s": result.delay_mean_s,
        "delay_std_s": result.delay_std_s,
        "delay_p5_s": result.delay_p5_s,
        "delay_p95_s": result.delay_p95_s,
        "outage_rate": result.outage_rate,
        "outage_unreachable_rounds": result.outage_unreachable,
        "outage_energy_short_rounds": result.outage_energy_short,
        "failed_trials": result.n_failed,
        "final_round_metric_mean": float(result.metric_mean[-1]),
        "final_round_metric_std": float(result.metric_std[-1]),
        "uav_position": list(result.scenario.uav_position),
    }
    _write_json(out / "summary.json", summary)

    print(
        f"ran {config.monte_carlo_trials} trials x {config.rounds} rounds: "
        f"mean delay {result.delay_mean_s:.6g} s, outage rate {result.outage_rate:.4f}"
    )
    for trial, error in zip(rec["trial_index"].tolist(), rec["error"]):
        if error is not None:
            print(f"trial {trial} failed: {error}", file=sys.stderr)
    return ["rounds.csv", "summary.json"], 3 if result.n_failed else 0


def cmd_sweep(config: ScenarioConfig, args, out: Path) -> tuple[list[str], int]:
    if "," in args.param:
        raise ConfigError(f"--param takes one dotted path, got {args.param!r}")
    items = parse_yaml(f"[{args.values}]", f"--values {args.values!r}")
    # Each value as its field takes it, e.g. "20 dBm" as 0.1, before the first run.
    field = attrgetter(args.param)
    values = [field(merged(config, {args.param: item})) for item in items]
    if not values:
        raise ConfigError("--values must list at least one value")

    rows = sweep(config, args.param, values)
    table = [[row[c] for c in SWEEP_COLUMNS] for row in rows]
    table = [[int(v) if isinstance(v, bool) else v for v in line] for line in table]  # bool: 0/1
    _write_csv(out / "sweep.csv", SWEEP_COLUMNS, table)
    for row in rows:
        point = f"{args.param}={row['param_value']}"
        print(f"{point}: mean delay {row['mean_t_total_s']:.6g} s")
        if row["failed_trials"]:
            print(f"{point}: {row['failed_trials']} trials failed", file=sys.stderr)
    return ["sweep.csv"], 3 if any(row["failed_trials"] for row in rows) else 0


def cmd_accuracy_curve(config: ScenarioConfig, args, out: Path) -> tuple[list[str], int]:
    result = run_monte_carlo(config)
    rows = [
        [r, float(result.metric_mean[r]), float(result.metric_std[r])]
        for r in range(config.rounds)
    ]
    _write_csv(out / "accuracy.csv", ["round", "mean_test_metric", "std"], rows)
    print(
        f"metric over {config.rounds} rounds: first {result.metric_mean[0]:.4f}, "
        f"final {result.metric_mean[-1]:.4f}"
    )
    if result.n_failed:
        print(f"{result.n_failed} trials failed", file=sys.stderr)
    return ["accuracy.csv"], 3 if result.n_failed else 0


def _candidates(args) -> list[int]:
    try:
        return check_candidates([int(c) for c in args.candidates.split(",") if c.strip()])
    except ValueError as exc:
        raise ConfigError(f"bad --candidates: {exc}") from exc


def cmd_select_rounds(config: ScenarioConfig, args, out: Path) -> tuple[list[str], int]:
    # One Monte Carlo run to the largest candidate, which resolve_config fixes
    # as ``rounds``. A budget's val metric is its round's mean over the trials
    # that did not fail, reduced as metric_mean is.
    candidates, result = _candidates(args), run_monte_carlo(config)
    ok = np.equal(result.record["error"], None)
    if not ok.any():
        raise DivergenceError(f"every trial failed; trial 0: {result.record['error'][0]}")
    val = result.record["val_metric"][ok].T.copy().mean(axis=1)
    metrics = [float(val[r - 1]) for r in candidates]
    best = candidates[best_budget(metrics, config.trainer.task)]
    test_metric = float(result.metric_mean[best - 1])

    _write_csv(out / "selection.csv", ["rounds", "val_metric"], zip(candidates, metrics))
    _write_json(out / "selection.json", {"best_rounds": best, "test_metric": test_metric})
    print(f"chosen rounds: {best} (test metric {test_metric:.6g})")
    if result.n_failed:
        print(f"{result.n_failed} trials failed", file=sys.stderr)
    return ["selection.csv", "selection.json"], 3 if result.n_failed else 0


def cmd_optimize_delta(config: ScenarioConfig, args, out: Path) -> tuple[list[str], int]:
    scenario = build(config)
    gains = trial_fading(config.master_seed, [0], [0], config.device_count)[0, 0]
    rnd = link_round(config, ChannelRealization(gains, scenario.distances_m))
    feasible = rnd.energy.feasible.astype(int)  # written as 1 or 0
    rows = zip(range(config.device_count), rnd.deltas, feasible, rnd.downlink.tx_time_s)
    _write_csv(out / "deltas.csv", ["device", "delta", "feasible", "t_downlink_s"], rows)
    print(f"solved ratios via {rnd.methods().item()}: round delay {rnd.delay():.6g} s")
    return ["deltas.csv"], 0


def cmd_place_uav(config: ScenarioConfig, args, out: Path) -> tuple[list[str], int]:
    scenario = build(config)
    _write_json(
        out / "placement.json",
        {
            "position": list(scenario.uav_position),
            "objective_s": scenario.placement_objective_s,
            "mode": config.placement_mode,
        },
    )
    x, y, z = scenario.uav_position
    print(
        f"uav at ({x:.3f}, {y:.3f}, {z:.3f}): "
        f"expected delay {scenario.placement_objective_s:.6g} s"
    )
    return ["placement.json"], 0


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
    sub.set_defaults(fixed=lambda args: {})


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
    p.add_argument("--values", required=True, help="comma-separated YAML values, lists included")
    p.set_defaults(func=cmd_sweep)

    p = subs.add_parser("accuracy-curve", help="per-round mean metric; writes accuracy.csv")
    _add_common(p)
    p.set_defaults(func=cmd_accuracy_curve)

    p = subs.add_parser("select-rounds", help="pick the round budget by mean val metric")
    _add_common(p)
    p.add_argument("--candidates", required=True, help="comma-separated round budgets, ascending")
    p.set_defaults(func=cmd_select_rounds, fixed=lambda args: {"rounds": _candidates(args)[-1]})

    p = subs.add_parser("optimize-delta", help="per-device power-splitting ratios for one round")
    _add_common(p)
    p.set_defaults(func=cmd_optimize_delta, fixed=lambda args: {"delta_mode": "optimized"})

    p = subs.add_parser("place-uav", help="choose the UAV position; writes placement.json")
    _add_common(p)
    p.set_defaults(func=cmd_place_uav)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config, started, out = resolve_config(args), _utc_now(), Path(args.out)
        outputs, code = args.func(config, args, out)
        manifest = {
            "tool": "swiptfl",
            "version": __version__,
            "command": args.command,
            "master_seed": config.master_seed,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "workers": min(config.workers, config.monte_carlo_trials),
            "started_utc": started,
            "finished_utc": _utc_now(),
            "outputs": sorted(outputs),
            "config": asdict(config),
        }
        _write_json(out / "manifest.json", manifest)
        return code
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except RuntimeError as exc:  # a BrokenExecutor; its module loads only with a pool
        futures = sys.modules.get("concurrent.futures")
        if futures is None or not isinstance(exc, futures.BrokenExecutor):
            raise
        print(f"error: a worker process died: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
