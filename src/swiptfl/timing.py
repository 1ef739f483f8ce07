"""Delay accounting for one communication round.

The round delay composes three stages: every device uploads after finishing
its local training (slowest device gates the stage), the UAV aggregates,
and the UAV unicasts the new global model back (slowest download gates the
stage). :func:`round_total` returns that number: a float for one fading
state, an array for a batch. Infinite per-device times propagate into an
infinite total so Monte Carlo sweeps can count outage rounds instead of aborting.
"""

from __future__ import annotations

import numpy as np

from .energy import ComputeProfile


def local_train_time(profile: ComputeProfile) -> float:
    """Local training duration: C * A * I / f; zero when no iterations run."""
    return profile.cycles_per_bit * profile.data_bits * profile.local_iters / profile.cpu_hz


def uav_aggregation_time(cycles_per_bit_uav: float, payload_bits: float, cpu_hz_uav: float) -> float:
    """Server-side aggregation time: C_u * payload / f_u."""
    return cycles_per_bit_uav * payload_bits / cpu_hz_uav


def round_total(
    t_uplink_s,
    t_local_s,
    t_downlink_s,
    t_uav_s: float,
) -> float | np.ndarray:
    """The total round delay from per-device stage times (..., M):

    total = max_i(uplink_i + local_i) + max_i(downlink_i) + aggregation,
    with the maxima taken along the last (device) axis, so a float for one
    fading state and shape (...) for a batch.
    """
    t_up = np.asarray(t_uplink_s, dtype=float)
    t_loc = np.asarray(t_local_s, dtype=float)
    t_down = np.asarray(t_downlink_s, dtype=float)
    if not (t_up.shape == t_loc.shape == t_down.shape) or t_up.ndim == 0 or t_up.shape[-1] == 0:
        raise ValueError("per-device time arrays must be nonempty and of equal shape")
    for name, vec in (("t_uplink_s", t_up), ("t_local_s", t_loc), ("t_downlink_s", t_down)):
        if not (vec >= 0).all():
            raise ValueError(f"{name} entries must be >= 0 (inf allowed, nan not)")
    if not t_uav_s >= 0:
        raise ValueError("t_uav_s must be >= 0")

    total = (t_up + t_loc).max(axis=-1) + t_down.max(axis=-1) + float(t_uav_s)
    return total if total.ndim else float(total)
