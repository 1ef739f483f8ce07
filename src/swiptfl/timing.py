"""Delay accounting for one communication round.

The round delay composes three stages: every device uploads after finishing
its local training (slowest device gates the stage), the UAV aggregates,
and the UAV unicasts the new global model back (slowest download gates the
stage). Infinite per-device times propagate into an infinite total so Monte
Carlo sweeps can count outage rounds instead of aborting.
"""

from __future__ import annotations

import numpy as np

from dataclasses import dataclass

from .energy import ComputeProfile


@dataclass(frozen=True)
class RoundDelay:
    """Per-device stage times plus the composed total for one round."""

    t_local_s: np.ndarray
    t_uplink_s: np.ndarray
    t_downlink_s: np.ndarray
    t_uav_s: float
    t_total_s: float


def local_train_time(profile: ComputeProfile) -> float:
    """Local training duration: C * A * I / f; zero when no iterations run."""
    return profile.cycles_per_bit * profile.data_bits * profile.local_iters / profile.cpu_hz


def uav_aggregation_time(cycles_per_bit_uav: float, payload_bits: float, cpu_hz_uav: float) -> float:
    """Server-side aggregation time: C_u * payload / f_u."""
    if not cycles_per_bit_uav > 0 or not cpu_hz_uav > 0:
        raise ValueError("cycles_per_bit_uav and cpu_hz_uav must be > 0")
    if payload_bits < 0:
        raise ValueError("payload_bits must be >= 0")
    return cycles_per_bit_uav * payload_bits / cpu_hz_uav


def round_total(
    t_uplink_s,
    t_local_s,
    t_downlink_s,
    t_uav_s: float,
) -> RoundDelay:
    """Compose the total round delay from per-device stage times.

    total = max_i(uplink_i + local_i) + max_i(downlink_i) + aggregation.
    """
    t_up = np.asarray(t_uplink_s, dtype=float)
    t_loc = np.asarray(t_local_s, dtype=float)
    t_down = np.asarray(t_downlink_s, dtype=float)
    if not (len(t_up) == len(t_loc) == len(t_down)) or len(t_up) == 0:
        raise ValueError("per-device time vectors must be nonempty and equal length")
    for name, vec in (("t_uplink_s", t_up), ("t_local_s", t_loc), ("t_downlink_s", t_down)):
        if not (vec >= 0).all():
            raise ValueError(f"{name} entries must be >= 0 (inf allowed, nan not)")
    if not t_uav_s >= 0:
        raise ValueError("t_uav_s must be >= 0")

    total = float((t_up + t_loc).max()) + float(t_down.max()) + float(t_uav_s)
    return RoundDelay(
        t_local_s=t_loc,
        t_uplink_s=t_up,
        t_downlink_s=t_down,
        t_uav_s=float(t_uav_s),
        t_total_s=total,
    )
