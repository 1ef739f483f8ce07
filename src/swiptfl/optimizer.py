"""Power-splitting ratio selection and UAV placement.

The ratio solve exploits two structural facts: the downlink time strictly
decreases in the decode share ``delta``, so among energy-feasible ratios
the largest one minimizes a device's downlink time; and wherever the
harvest curve is nondecreasing on the device's harvest input range
[0, prx], both the harvested and the billed downlink energy shrink as
``delta`` grows, so the feasible set is a prefix interval of
[delta_min, delta_max] whose upper edge bisection finds. Devices whose
curve can dip on that range are scanned on a dense grid instead. Every
device is solved at once, as arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .channel import (
    DELTA_MAX,
    DELTA_MIN,
    ChannelRealization,
    LinkBudget,
    LinkParams,
    downlink_budget,
    received_power,
)
from .energy import ComputeProfile, HarvestModel, ledger

METHOD_BISECTION = "bisection"
METHOD_GRID = "grid"

MODE_CENTROID = "centroid"
MODE_GRID_SEARCH = "grid_search"

TOL = 1e-6  # bisection stops once the bracket is this narrow
MAX_ITERS = 60
GRID_STEP = 1e-3  # spacing of the dense scan for dipping harvest curves


@dataclass(frozen=True)
class DeltaSolution:
    """Per-device ratios for one realization.

    ``method`` is "grid" if any device needed the dense scan. Infeasible
    devices carry ``delta_min`` (maximum harvest share) and a False flag.
    """

    deltas: np.ndarray
    feasible: np.ndarray
    method: str


@dataclass(frozen=True)
class PlacementSolution:
    """Chosen UAV position and the expected round delay there."""

    position: tuple[float, float, float]
    objective_s: float


def optimize_delta_all(
    params: LinkParams,
    realization: ChannelRealization,
    uplink: LinkBudget,
    profile: ComputeProfile,
    harvest: HarvestModel,
    payload_dl_bits: float,
    *,
    device_pays_downlink: bool = True,
) -> DeltaSolution:
    """Largest energy-feasible power-splitting ratio of every device.

    Devices are independent: a device's ratio enters only its own decode
    SINR and harvest branch, never the interference seen by others. A
    device with no feasible ratio gets ``(delta_min, False)``: it then
    harvests as much as possible and is flagged infeasible.
    """

    def feasible_at(deltas):
        down = downlink_budget(params, realization, deltas, payload_dl_bits)
        return ledger(
            profile,
            harvest,
            uplink,
            down,
            deltas,
            params.ptx_ul_w,
            params.ptx_dl_w,
            device_pays_downlink=device_pays_downlink,
        ).feasible

    # The harvest input (1 - delta) * prx spans [0, prx]. Where the curve
    # is nondecreasing there, feasibility is a prefix interval; elsewhere
    # it may not be, so those devices are scanned on the dense grid.
    prx = received_power(
        params.ptx_dl_w, realization.distances_m, params.pathloss_exponent, realization.gains_sq
    )
    dips = (harvest.a2 < 0) | (harvest.a2 + 2.0 * harvest.a1 * prx < 0)

    m = realization.n_devices
    lo, hi = np.full(m, DELTA_MIN), np.full(m, DELTA_MAX)
    ok_lo, ok_hi = feasible_at(lo), feasible_at(hi)
    bracketed = ok_lo & ~ok_hi & ~dips
    for _ in range(MAX_ITERS):
        if not bracketed.any() or np.max(hi - lo) <= TOL:
            break
        mid = 0.5 * (lo + hi)
        ok = feasible_at(mid)
        lo, hi = np.where(ok, mid, lo), np.where(ok, hi, mid)
    deltas = np.where(ok_hi, DELTA_MAX, np.where(ok_lo, lo, DELTA_MIN))
    feasible = ok_lo | ok_hi
    if not dips.any():
        return DeltaSolution(deltas=deltas, feasible=feasible, method=METHOD_BISECTION)

    grid = np.append(np.arange(DELTA_MIN, DELTA_MAX, GRID_STEP), DELTA_MAX)
    on_grid = feasible_at(grid[:, None])
    any_ok = on_grid.any(axis=0)
    best = grid[len(grid) - 1 - np.argmax(on_grid[::-1], axis=0)]
    deltas = np.where(dips, np.where(any_ok, best, DELTA_MIN), deltas)
    feasible = np.where(dips, any_ok, feasible)
    return DeltaSolution(deltas=deltas, feasible=feasible, method=METHOD_GRID)


def place_uav(
    area_bounds: tuple[float, float, float, float],
    altitude_m: float,
    mode: str,
    evaluator: Callable[[tuple[float, float, float]], float],
    grid_points: int = 9,
) -> PlacementSolution:
    """Pick the UAV position: area center, or expected-delay grid search.

    The grid always contains the exact centroid so the search can never do
    worse than the centroid choice under the same evaluator. Ties go to the
    candidate nearest the centroid, then to the smaller (x, y) for full
    determinism.
    """
    xmin, xmax, ymin, ymax = area_bounds
    centroid = (0.5 * (xmin + xmax), 0.5 * (ymin + ymax), altitude_m)
    if mode == MODE_CENTROID:
        return PlacementSolution(position=centroid, objective_s=float(evaluator(centroid)))
    if mode != MODE_GRID_SEARCH:
        raise ValueError(f"unknown placement mode {mode!r}")
    if grid_points < 2:
        raise ValueError("grid_points must be >= 2")

    candidates = [
        (float(x), float(y), altitude_m)
        for x in np.linspace(xmin, xmax, grid_points)
        for y in np.linspace(ymin, ymax, grid_points)
    ]
    candidates.append(centroid)

    best = None
    best_key = None
    for pos in candidates:
        objective = float(evaluator(pos))
        d2 = (pos[0] - centroid[0]) ** 2 + (pos[1] - centroid[1]) ** 2
        key = (objective, d2, pos[0], pos[1])
        if best_key is None or key < best_key:
            best, best_key = PlacementSolution(position=pos, objective_s=objective), key
    return best
