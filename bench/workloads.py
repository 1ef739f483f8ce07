"""The benchmark's workloads: a shipped YAML config plus fixed overrides.

Each workload is built the way the README's library use does it:
``cli.load_config``, then ``with_override``, then ``scenario.build``, then
``scenario.run_monte_carlo``. Only ``master_seed`` comes from the
benchmark's ``--seed``; everything else is fixed here, so a seed names the
same inputs on every commit.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    config: str  # file name under configs/
    overrides: tuple[tuple[str, object], ...]
    batch_trials: int  # Monte Carlo trials per timed run_monte_carlo call


# Why each workload was chosen is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="fixed-m200",
            config="default.yaml",
            overrides=(("device_count", 200),),
            batch_trials=1,
        ),
        Workload(
            name="contested-m50",
            config="default.yaml",
            overrides=(
                ("device_count", 50),
                ("delta_mode", "optimized"),
                ("device_pays_downlink", False),
                ("link.ptx_ul_w", 1e-3),
                ("compute.kappa", 1e-31),
                ("battery_ledger", True),
            ),
            batch_trials=2,
        ),
        Workload(
            name="minibatch-m5",
            config="accuracy.yaml",
            overrides=(("placement_mode", "grid_search"),),
            batch_trials=10,
        ),
    )
}


def overrides_for(workload: Workload, seed: int) -> list[tuple[str, object]]:
    """Every override applied to the shipped config, seed included."""
    return [
        *workload.overrides,
        ("monte_carlo_trials", workload.batch_trials),
        ("workers", 1),
        ("master_seed", seed),
    ]
