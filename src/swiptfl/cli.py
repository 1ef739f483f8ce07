"""Command-line front end: argument parsing, subcommands, CSV/JSON emission.

Every subcommand runs one pipeline. :func:`resolve_config` merges the
config file, which :func:`~swiptfl.config.load_config` reads, with one
mapping of every ``--override dotted.path=value`` (or ``section={...}``),
then ``--seed``, then ``--workers``, then what the subcommand fixes, a later
value for the same key winning, in one :func:`~swiptfl.config.merge`. The
command runs on that config and writes nothing: it returns its outputs, its
stdout lines and its failed-trial lines. :func:`main` writes the outputs,
prints the lines and writes a manifest next to the outputs that snapshots
the config; passing a manifest as ``--config`` replays the run it records.
Power fields accept a ``dBm`` suffix (e.g. ``"20 dBm"``).

Exit codes: 0 success, 2 config, argument or I/O error, 3 a failed trial or
another numeric failure, 4 a worker process died. Any other exception is a bug and propagates with
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
from pathlib import Path

import numpy as np

from . import __version__
from .channel import ChannelRealization
from .config import ConfigError, ScenarioConfig, load_config, merge, parse_yaml
from .fl_core import best_budget, check_candidates
from .scenario import SCORES, STAGE_TIMES, build, link_round, run_monte_carlo, sweep, trial_fading

# The scenario.statistics entries that sweep.csv reports, each by its header in
# column order, and the summary.json keys that differ from an entry's name.
SWEEP_COLUMNS = {
    "param_value": "param_value",
    "delay_mean_s": "mean_t_total_s",
    "delay_std_s": "std_t_total_s",
    "delay_p5_s": "p5",
    "delay_p95_s": "p95",
    "outage_rate": "outage_rate",
    "n_failed": "failed_trials",
}
SUMMARY_NAMES = {
    "n_failed": "failed_trials",
    "outage_unreachable": "outage_unreachable_rounds",
    "outage_energy_short": "outage_energy_short_rounds",
}
# rounds.csv's record columns after trial and round: the stage times, three
# per-device columns summed over the devices, each by its header, and the scores.
_SUMS = {
    "e_total_j": "e_total_j_sum",
    "e_harvest_j": "e_harvest_j_sum",
    "feasible": "feasible_devices",
}
ROUNDS_COLUMNS = ["trial", "round", *STAGE_TIMES, *_SUMS.values(), *SCORES]


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
    return merge(load_config(args.config), changes)


def _json_safe(value):
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, (float, np.floating)):
        v = float(value)
        return v if math.isfinite(v) else None
    return value


def _write(path: Path, output) -> None:
    """Write one output of a command to ``path``: a mapping as JSON, a
    ``(header, rows)`` table as CSV (a float as its repr, a bool as 1 or 0),
    anything else as ready text. The write is atomic: a crash mid-write
    leaves neither a half file nor the temporary file, and an earlier ``path``
    stays intact. The first write makes the directory, so a command that
    fails before it leaves none."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline="") as fh:
            if isinstance(output, dict):
                json.dump(_json_safe(output), fh, indent=2, sort_keys=True)
                fh.write("\n")
            elif isinstance(output, tuple):
                header, rows = output
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(header)
                bits = (bool, np.bool_)
                writer.writerows([int(v) if isinstance(v, bits) else v for v in r] for r in rows)
            else:
                fh.write(output)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


class DivergenceError(ArithmeticError):
    """Every trial of a select-rounds run failed, so no round budget can be chosen."""


# Each cmd_* returns its outputs, each file name mapped to a JSON mapping, a
# CSV (header, rows) table or ready text; its stdout lines; and one line per
# failure among its trials, which makes main exit 3.


def cmd_run(config: ScenarioConfig, args) -> tuple[dict, list[str], list[str]]:
    result = run_monte_carlo(config)

    # rounds.csv from the record's columns: the recorded rounds trial by trial,
    # a device column summed over the devices. Every cell is an int or a float
    # (written as its repr), so no cell needs csv quoting. The text is built
    # here on purpose: _write's csv.writer path took 40-55 % longer on a
    # 60 000-row rounds.csv (single runs on a 2-core host).
    rec, done = result.record, result.record.recorded()
    trial, rnd = np.broadcast_arrays(rec["trial_index"][:, None], np.arange(config.rounds))
    sums = [rec[name][done].sum(axis=-1) for name in _SUMS]
    columns = [trial, rnd, *map(rec.__getitem__, STAGE_TIMES), *sums, *map(rec.__getitem__, SCORES)]
    rows = zip(*(map(repr, (c if c.ndim == 1 else c[done]).tolist()) for c in columns))
    text = "\n".join(map(",".join, [ROUNDS_COLUMNS, *rows])) + "\n"

    summary = {
        **{SUMMARY_NAMES.get(name, name): v for name, v in result.scalars().items()},
        "trials": config.monte_carlo_trials,
        "rounds": config.rounds,
        "final_round_metric_mean": float(result.metric_mean[-1]),
        "final_round_metric_std": float(result.metric_std[-1]),
        "uav_position": list(result.scenario.uav_position),
    }
    line = (
        f"ran {config.monte_carlo_trials} trials x {config.rounds} rounds: "
        f"mean delay {result.delay_mean_s:.6g} s, outage rate {result.outage_rate:.4f}"
    )
    errors = zip(rec["trial_index"].tolist(), rec["error"])
    failures = [f"trial {trial} failed: {error}" for trial, error in errors if error is not None]
    return {"rounds.csv": text, "summary.json": summary}, [line], failures


def cmd_sweep(config: ScenarioConfig, args) -> tuple[dict, list[str], list[str]]:
    if "," in args.param:
        raise ConfigError(f"--param takes one dotted path, got {args.param!r}")
    items = parse_yaml(f"[{args.values}]", f"--values {args.values!r}")
    if not items:
        raise ConfigError("--values must list at least one value")

    rows, lines, failures = sweep(config, args.param, items), [], []
    for row in rows:
        point = f"{args.param}={row['param_value']}"
        lines.append(f"{point}: mean delay {row['delay_mean_s']:.6g} s")
        if row["n_failed"]:
            failures.append(f"{point}: {row['n_failed']} trials failed")
    table = [[row[name] for name in SWEEP_COLUMNS] for row in rows]
    return {"sweep.csv": (list(SWEEP_COLUMNS.values()), table)}, lines, failures


def _failed_trials(result) -> list[str]:
    return [f"{result.n_failed} trials failed"] if result.n_failed else []


def cmd_accuracy_curve(config: ScenarioConfig, args) -> tuple[dict, list[str], list[str]]:
    result = run_monte_carlo(config)
    header = ["round", "mean_test_metric", "std"]
    mean, std = result.metric_mean.tolist(), result.metric_std.tolist()
    rows = [[r, mean[r], std[r]] for r in range(config.rounds)]
    line = (
        f"metric over {config.rounds} rounds: first {result.metric_mean[0]:.4f}, "
        f"final {result.metric_mean[-1]:.4f}"
    )
    return {"accuracy.csv": (header, rows)}, [line], _failed_trials(result)


def _candidates(args) -> list[int]:
    try:
        return check_candidates([int(c) for c in args.candidates.split(",") if c.strip()])
    except ValueError as exc:
        raise ConfigError(f"bad --candidates: {exc}") from exc


def cmd_select_rounds(config: ScenarioConfig, args) -> tuple[dict, list[str], list[str]]:
    # One Monte Carlo run to the largest candidate, which resolve_config fixes
    # as ``rounds``. A budget's val metric is its round's val_metric_mean.
    candidates, result = _candidates(args), run_monte_carlo(config)
    if result.n_failed == config.monte_carlo_trials:
        raise DivergenceError(f"every trial failed; trial 0: {result.record['error'][0]}")
    metrics = [float(result.val_metric_mean[r - 1]) for r in candidates]
    best = candidates[best_budget(metrics, config.trainer.task)]
    test_metric = float(result.metric_mean[best - 1])
    outputs = {
        "selection.csv": (["rounds", "val_metric"], zip(candidates, metrics)),
        "selection.json": {"best_rounds": best, "test_metric": test_metric},
    }
    line = f"chosen rounds: {best} (test metric {test_metric:.6g})"
    return outputs, [line], _failed_trials(result)


def cmd_optimize_delta(config: ScenarioConfig, args) -> tuple[dict, list[str], list[str]]:
    scenario = build(config)
    gains = trial_fading(config.master_seed, [0], [0], config.device_count)[0, 0]
    rnd = link_round(config, ChannelRealization(gains, scenario.distances_m))
    header = ["device", "delta", "feasible", "t_downlink_s"]
    rows = zip(range(config.device_count), rnd.deltas, rnd.energy.feasible, rnd.downlink.tx_time_s)
    method = "grid" if rnd.grid.any() else "bisection"
    line = f"solved ratios via {method}: round delay {rnd.delay():.6g} s"
    return {"deltas.csv": (header, rows)}, [line], []


def cmd_place_uav(config: ScenarioConfig, args) -> tuple[dict, list[str], list[str]]:
    scenario = build(config)
    (x, y, z), objective = scenario.uav_position, scenario.placement_objective_s
    placement = {"position": [x, y, z], "objective_s": objective, "mode": config.placement_mode}
    line = f"uav at ({x:.3f}, {y:.3f}, {z:.3f}): expected delay {objective:.6g} s"
    return {"placement.json": placement}, [line], []


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
        outputs, lines, failures = args.func(config, args)
        for name, output in outputs.items():
            _write(out / name, output)
        for stream, text in ((sys.stdout, lines), (sys.stderr, failures)):
            stream.writelines(f"{line}\n" for line in text)
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
        _write(out / "manifest.json", manifest)
        return 3 if failures else 0
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
