#!/usr/bin/env python3
"""Monte Carlo benchmark of swiptfl, run from the root of a source checkout.

A run of one workload,

    python3 bench/run.py --workload fixed-m200 --seed 1 --seconds 30 --trace 0

prints progress lines and, as its last line, one JSON object with ``correct``,
``attempted`` and ``failed`` (Monte Carlo trials, where a trial fails on a
``DivergenceError``) and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.

    python3 bench/run.py                      # every workload once, one process at a time
    python3 bench/run.py --repeat 10          # median and quartiles over seeds 1..10
    python3 bench/run.py --self-test          # each output check rejects a corrupted result

See bench/README.md for the workloads, the metrics and reference figures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_SECONDS = 30
# The first third of a run repeats the set-up, at least three times; the
# rest repeats the Monte Carlo batch.
SETUP_SHARE = 0.35
SETUP_MIN_REPEATS = 3
CHILD_TIMEOUT_S = 180

from speed import steady_median, timed  # noqa: E402
from workloads import WORKLOADS, overrides_for  # noqa: E402


def import_package():
    """Import swiptfl from this checkout's src/, never from anywhere else."""
    if not (ROOT / "src" / "swiptfl" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        sys.exit(f"bench: {ROOT} holds no swiptfl source tree (src/swiptfl and configs/)")
    sys.path.insert(0, str(ROOT / "src"))
    import swiptfl

    if Path(swiptfl.__file__).resolve().parent != ROOT / "src" / "swiptfl":
        sys.exit(f"bench: imported swiptfl from {swiptfl.__file__}, not from {ROOT / 'src'}")


def set_up(workload, seed):
    """load_config, overrides, build: the work that setup_s times."""
    from swiptfl import cli, scenario

    cfg = cli.load_config(str(ROOT / "configs" / workload.config))
    for path, value in overrides_for(workload, seed):
        cfg = scenario.with_override(cfg, path, value)
    return cfg, scenario.build(cfg)


def monte_carlo(cfg, sc):
    from swiptfl import scenario

    return scenario.run_monte_carlo(cfg, sc)


def set_up_and_run(workload, seed):
    cfg, sc = set_up(workload, seed)
    return monte_carlo(cfg, sc), cfg.device_count


class Tally:
    """Trials attempted and failed, and the output checks run on them."""

    def __init__(self):
        from checks import Checker

        self.trials = 0
        self.failed = 0
        self.ck = Checker()

    def add(self, result):
        self.trials += len(result.trials)
        self.failed += result.n_failed

    def report(self, name: str, seed: int) -> bool:
        print(
            f"# {name} seed {seed}: trials {self.trials} attempted, {self.failed} failed; "
            f"checks {self.ck.attempted} attempted, {len(self.ck.failures)} failed"
        )
        for message in self.ck.failures[:20]:
            print(f"# check failed: {message}", file=sys.stderr)
        return not self.ck.failures


def run_end_to_end(workload, seed: int, seconds: float, tally: Tally) -> dict:
    from checks import check_result, same_outputs

    setup, batches = [], []  # (wall, rescaled) seconds
    start = perf_counter()
    while len(setup) < SETUP_MIN_REPEATS or perf_counter() - start < SETUP_SHARE * seconds:
        (cfg, sc), wall, scaled = timed(set_up, workload, seed)
        setup.append((wall, scaled))

    rounds = cfg.monte_carlo_trials * cfg.rounds
    first, repeatable = None, True
    while not batches or perf_counter() - start < seconds:
        result, wall, scaled = timed(monte_carlo, cfg, sc)
        batches.append((wall, scaled))
        tally.add(result)
        if first is None:
            first = result
        else:
            repeatable = repeatable and same_outputs(first, result)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    check_result(tally.ck, first)
    tally.ck.expect(repeatable, "repeated run_monte_carlo calls gave different outputs")
    print(
        f"# {len(setup)} set-ups, {len(batches)} batches of "
        f"{cfg.monte_carlo_trials} trials x {cfg.rounds} rounds; "
        f"unscaled wall-clock medians: setup {statistics.median(w for w, _ in setup):.4f} s, "
        f"{rounds / statistics.median(w for w, _ in batches):.2f} rounds/s"
    )
    return {
        "setup_s": {"value": steady_median(setup), "unit": "s"},
        "rounds_per_s": {"value": rounds / steady_median(batches), "unit": "rounds/s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }


def run_traced(workload, seed: int, seconds: float, tally: Tally) -> dict:
    """Alternate untraced and traced set-up + batch; per-layer medians."""
    from checks import check_result, same_outputs
    from tracing import Tracer, per_layer_metrics, self_time_shares, unit_of

    samples, overheads = [], []
    start = perf_counter()
    while not samples or perf_counter() - start < seconds:
        (plain, m), _, untraced = timed(set_up_and_run, workload, seed, sample_inside=False)
        tracer = Tracer()
        tracer.install()
        try:
            (traced_result, m), _, traced = timed(
                set_up_and_run, workload, seed, sample_inside=False
            )
        finally:
            tracer.uninstall()

        for result in (plain, traced_result):
            tally.add(result)
        if not samples:
            check_result(tally.ck, plain)
        tally.ck.expect(same_outputs(plain, traced_result), "tracing changed the outputs")
        samples.append(per_layer_metrics(tracer, m))
        overheads.append(traced - untraced)

    out = ROOT / ".bench_out" / f"spans-{workload.name}-seed{seed}.csv.gz"
    tracer.write(out)
    print(f"# {len(samples)} traced repetitions of set-up + one batch")
    parts = (
        ("set-up", ("cli.load_config", "scenario.build")),
        ("batch", ("scenario.run_monte_carlo",)),
    )
    for part, roots in parts:
        shares = self_time_shares(tracer, roots)
        print(f"# {part} self-time shares: " + ", ".join(f"{k} {v:.1%}" for k, v in shares.items()))
    print(f"# spans of the last repetition: {out.relative_to(ROOT)}")

    metrics = {}
    for name in samples[0]:
        value = statistics.median(sample[name] for sample in samples)
        metrics[name] = {"value": value, "unit": unit_of(name)}
    metrics["trace.overhead_s"] = {"value": statistics.median(overheads), "unit": "s"}
    return metrics


def run_workload(args) -> int:
    import_package()
    workload = WORKLOADS[args.workload]
    tally = Tally()
    run = run_traced if args.trace else run_end_to_end
    metrics = run(workload, args.seed, args.seconds, tally)
    correct = tally.report(workload.name, args.seed)
    report = {"correct": correct, "attempted": tally.trials, "failed": tally.failed}
    print(json.dumps({**report, "metrics": metrics}))
    return 0


def environment() -> str:
    """Machine, Python and numpy versions for the repeat-mode report."""
    import numpy

    cpu = platform.processor()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        models = [line.split(":", 1)[1].strip() for line in cpuinfo.read_text().splitlines()
                  if line.startswith("model name")]
        cpu = models[0] if models else cpu
    return (
        f"{platform.machine()} {cpu}, {len(os.sched_getaffinity(0))} usable cpus; "
        f"{platform.system()} {platform.release()}; Python {platform.python_version()}; "
        f"numpy {numpy.__version__}"
    )


def run_repeat(args) -> int:
    """Run each workload N times, one process at a time, and summarise."""
    import_package()
    names = [args.workload] if args.workload else list(WORKLOADS)
    print(f"# {environment()}")
    print(f"# {args.repeat} runs per workload, seeds {args.seed}..{args.seed + args.repeat - 1}, "
          f"{args.seconds:g} s each, trace {args.trace}")
    status = 0
    for name in names:
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        fails = []
        for i in range(args.repeat):
            seed = args.seed + i
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(
                cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                fails.append(f"seed {seed}: exit {proc.returncode}")
                continue
            report = json.loads(lines[-1])
            if not report["correct"] or report["failed"]:
                fails.append(f"seed {seed}: correct={report['correct']} failed={report['failed']}")
            for metric, entry in report["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
                units[metric] = entry["unit"]
        print(f"\n{name}" + (f"  PROBLEMS: {'; '.join(fails)}" if fails else ""))
        print(f"  {'metric':36s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'iqr/median':>10s}  unit")
        for metric, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("nan")
            row = f"{med:12.6g} {q1:12.6g} {q3:12.6g} {spread:10.4f}"
            print(f"  {metric:36s} {row}  {units[metric]}")
        status |= bool(fails)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, help="runs per workload, each in its own process")
    parser.add_argument(
        "--self-test", action="store_true", help="check that the checks reject corruption"
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.self_test:
        import_package()
        from selftest import main as self_test

        return self_test(ROOT)
    if args.repeat is not None or args.workload is None:
        args.repeat = args.repeat or 1
        return run_repeat(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
