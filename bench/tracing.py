"""Spans around the calls into each swiptfl module, installed from outside.

The tracer replaces module-level names that callers look up at call time
(for example ``swiptfl.scenario.downlink_budget``) with wrappers that record
a span: name, start, end and the index of the enclosing span. Spans stay in
memory until the run ends. A name that no longer exists in the package is
skipped, and every metric that needs it is left out of the report instead
of failing the run.
"""

from __future__ import annotations

import csv
import gzip
import importlib
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

# (module, attribute, span name). A span name is "<layer>.<function>"; the
# layer is the swiptfl module that implements the function.
BOUNDARIES = (
    ("swiptfl.cli", "load_config", "cli.load_config"),
    ("swiptfl.scenario", "build", "scenario.build"),
    ("swiptfl.scenario", "run_monte_carlo", "scenario.run_monte_carlo"),
    ("swiptfl.scenario", "run_trial", "scenario.run_trial"),
    ("swiptfl.scenario", "rng_stream", "scenario.rng_stream"),
    ("swiptfl.scenario", "uplink_budget", "channel.uplink_budget"),
    ("swiptfl.scenario", "downlink_budget", "channel.downlink_budget"),
    ("swiptfl.optimizer", "uplink_budget", "channel.uplink_budget"),
    ("swiptfl.optimizer", "downlink_budget", "channel.downlink_budget"),
    ("swiptfl.scenario", "ledger", "energy.ledger"),
    ("swiptfl.optimizer", "ledger", "energy.ledger"),
    ("swiptfl.scenario", "round_total", "timing.round_total"),
    ("swiptfl.optimizer", "round_total", "timing.round_total"),
    ("swiptfl.scenario", "local_train_time", "timing.local_train_time"),
    ("swiptfl.optimizer", "local_train_time", "timing.local_train_time"),
    ("swiptfl.scenario", "uav_aggregation_time", "timing.uav_aggregation_time"),
    ("swiptfl.scenario", "optimize_delta_all", "optimizer.optimize_delta_all"),
    ("swiptfl.scenario", "place_uav", "optimizer.place_uav"),
    ("swiptfl.scenario", "make_federated_problem", "fl_core.make_federated_problem"),
    ("swiptfl.scenario", "run_round", "fl_core.run_round"),
    ("swiptfl.scenario", "global_loss", "fl_core.global_loss"),
    ("swiptfl.scenario", "evaluate_metric", "fl_core.evaluate_metric"),
)

# The placement objective is a closure built inside scenario.build and handed
# to place_uav, so it is traced by wrapping that argument.
PLACEMENT_EVAL = "scenario.placement_eval"
GRID_SOLVES = "optimizer.grid_solves"


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: Counter = Counter()
        self.installed: set[str] = set()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, on_args=None, on_result=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if on_args is not None:
                args, kwargs = on_args(args, kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _wrap_evaluator(self, args, kwargs):
        if len(args) > 3 and callable(args[3]):
            args = (*args[:3], self.wrap(PLACEMENT_EVAL, args[3]), *args[4:])
        elif callable(kwargs.get("evaluator")):
            kwargs = {**kwargs, "evaluator": self.wrap(PLACEMENT_EVAL, kwargs["evaluator"])}
        else:
            return args, kwargs
        self.installed.add(PLACEMENT_EVAL)
        return args, kwargs

    def _count_grid(self, solution):
        self.counts[GRID_SOLVES] += getattr(solution, "method", None) == "grid"

    def install(self):
        for module_name, attr, name in BOUNDARIES:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if not callable(fn):
                continue
            on_args = self._wrap_evaluator if name == "optimizer.place_uav" else None
            on_result = self._count_grid if name == "optimizer.optimize_delta_all" else None
            self._saved.append((module, attr, fn))
            setattr(module, attr, self.wrap(name, fn, on_args, on_result))
            self.installed.add(name)
            if on_result is not None:
                self.installed.add(GRID_SOLVES)

    def uninstall(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def write(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["index", "name", "start_s", "end_s", "parent"])
            for i, (name, start, end, parent) in enumerate(self.spans):
                out.writerow([i, name, repr(start), repr(end), parent])


def unit_of(metric: str) -> str:
    if metric.endswith((".s", "_s")):
        return "s"
    return "evals/solve" if metric.endswith("_per_device") else "count"


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def layer_times(spans) -> tuple[dict, dict, dict, Counter, list[float]]:
    """Per-layer inclusive and self time, per-name time and calls, per-span self.

    A layer's inclusive time counts a span only when its parent belongs to
    another layer, so nested spans of one layer are not counted twice.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    inclusive, self_time, per_name = defaultdict(float), defaultdict(float), defaultdict(float)
    calls = Counter()
    self_of = []
    for i, (name, start, end, parent) in enumerate(spans):
        layer, dur = _layer(name), end - start
        calls[name] += 1
        per_name[name] += dur
        self_of.append(dur - child[i])
        self_time[layer] += dur - child[i]
        if parent < 0 or _layer(spans[parent][0]) != layer:
            inclusive[layer] += dur
    return inclusive, self_time, per_name, calls, self_of


def per_layer_metrics(tracer: Tracer, device_count: int) -> dict[str, float]:
    """The per-layer metrics of one traced set-up plus one Monte Carlo batch."""
    spans = tracer.spans
    inclusive, self_time, per_name, calls, self_of = layer_times(spans)

    ul, dl = "channel.uplink_budget", "channel.downlink_budget"
    solve, place = "optimizer.optimize_delta_all", "optimizer.place_uav"
    ledger, total, train = "energy.ledger", "timing.round_total", "fl_core.run_round"
    loss, metric, rng = "fl_core.global_loss", "fl_core.evaluate_metric", "scenario.rng_stream"
    loop = ("scenario.run_monte_carlo", "scenario.run_trial")

    in_solver = [False] * len(spans)
    solver_dl = 0
    for i, (name, _, _, parent) in enumerate(spans):
        in_solver[i] = name == solve or (parent >= 0 and in_solver[parent])
        solver_dl += in_solver[i] and name == dl
    solves = calls[solve] * device_count
    loop_self = sum(t for t, span in zip(self_of, spans) if span[0] in loop)

    table = {  # metric: (span names it needs, value)
        f"{ul}.calls": ([ul], calls[ul]),
        f"{dl}.calls": ([dl], calls[dl]),
        "channel.s": ([ul, dl], inclusive["channel"]),
        f"{solve}.calls": ([solve], calls[solve]),
        "optimizer.self_s": ([solve, place], self_time["optimizer"]),
        "optimizer.dl_evals_per_device": ([solve, dl], solver_dl / solves if solves else 0.0),
        GRID_SOLVES: ([GRID_SOLVES], tracer.counts[GRID_SOLVES]),
        f"{place}.s": ([place], per_name[place]),
        f"{place}.evals": ([PLACEMENT_EVAL], calls[PLACEMENT_EVAL]),
        f"{ledger}.calls": ([ledger], calls[ledger]),
        "energy.s": ([ledger], inclusive["energy"]),
        f"{total}.calls": ([total], calls[total]),
        "timing.s": ([total], inclusive["timing"]),
        f"{train}.calls": ([train], calls[train]),
        f"{train}.s": ([train], per_name[train]),
        "fl_core.eval.calls": ([loss, metric], calls[loss] + calls[metric]),
        "fl_core.eval.s": ([loss, metric], per_name[loss] + per_name[metric]),
        f"{rng}.calls": ([rng], calls[rng]),
        f"{rng}.s": ([rng], per_name[rng]),
        "scenario.self_s": (list(loop), loop_self),
        "cli.load_config.s": (["cli.load_config"], per_name["cli.load_config"]),
    }
    return {
        name: value
        for name, (needs, value) in table.items()
        if all(span in tracer.installed for span in needs)
    }


def self_time_shares(tracer: Tracer, roots: tuple[str, ...]) -> dict[str, float]:
    """Each layer's share of the self time under top-level spans named in roots."""
    spans = tracer.spans
    _, _, _, _, self_of = layer_times(spans)
    top = []
    for name, _, _, parent in spans:
        top.append(name if parent < 0 else top[parent])
    by_layer = defaultdict(float)
    for i, span in enumerate(spans):
        if top[i] in roots:
            by_layer[_layer(span[0])] += self_of[i]
    total = sum(by_layer.values())
    return {layer: t / total for layer, t in sorted(by_layer.items(), key=lambda kv: -kv[1])}
