"""Power-splitting ratio selection and UAV placement.

The ratio solve exploits two structural facts: the downlink time strictly
decreases in the decode share ``delta``, so among energy-feasible ratios
the largest one minimizes a device's downlink time; and wherever the
harvest curve is nondecreasing on the device's harvest input range
[0, prx], both the harvested and the billed downlink energy shrink as
``delta`` grows, so the feasible set is a prefix interval of
[delta_min, delta_max] whose upper edge bisection finds. Devices whose
curve can dip on that range are scanned on a dense grid instead. Every
device of every fading state in a batch (..., M) is solved at once, as
arrays. Only the two bracket ends run the whole chain (``downlink_budget``,
then ``ledger``); every interior probe, bisection or grid, and the downlink
at the solved ratios, which the solver hands to the round, reuse the
ratio-independent powers and bill they produced and run the rest through
:func:`~swiptfl.channel.chain`, which builds every budget, and the ledger's
own tail, :func:`~swiptfl.energy.balance`.

Grid-search placement scores all candidate UAV positions with one call of
an array objective, (C, 3) positions to (C,) expected delays, and picks the
winner with one lexicographic sort. Centroid placement has one candidate and
nothing to compare, so it calls no objective and leaves the expected delay
to whoever reads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from .channel import DELTA_MAX, DELTA_MIN, ChannelRealization, LinkParams, chain, downlink_budget
from .energy import ComputeProfile, HarvestModel, balance, compute_energy, ledger, transmit_energy

if TYPE_CHECKING:  # budgets are built by channel.chain alone
    from .channel import LinkBudget

MODE_CENTROID = "centroid"
MODE_GRID_SEARCH = "grid_search"

TOL = 1e-6  # bisection stops once the bracket is this narrow
MAX_ITERS = 60
GRID_STEP = 1e-3  # spacing of the dense scan for dipping harvest curves
GRID_BLOCK = 1 << 16  # (ratio, state, device) entries per block of that scan


@dataclass(frozen=True)
class DeltaSolution:
    """Per-device ratios for a realization, shaped like its gains.

    ``grid`` marks the devices that needed the dense scan; the others were
    bisected. Infeasible devices carry ``delta_min`` (maximum harvest share)
    and a False flag. ``downlink`` is the downlink budget at ``deltas``,
    equal to ``downlink_budget``'s.
    """

    deltas: np.ndarray
    feasible: np.ndarray
    grid: np.ndarray
    downlink: LinkBudget


@dataclass(frozen=True)
class PlacementSolution:
    """Chosen UAV position and the expected round delay there.

    ``objective_s`` is None for centroid placement, which scores nothing."""

    position: tuple[float, float, float]
    objective_s: float | None


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

    ``downlink_budget`` and ``ledger`` are called once each, on both
    bracket ends stacked. Each interior probe reuses their received power,
    interference and compute + uplink bill, which do not depend on the
    ratio, and runs only what does: ``chain`` on those two powers, then
    ``balance``, under one ``np.errstate`` for the whole probe loop. The
    returned downlink at the solved ratios is ``chain``'s too: the round
    needs no second budget.
    """
    shape = realization.gains_sq.shape
    lo, hi = np.full(shape, DELTA_MIN), np.full(shape, DELTA_MAX)
    bounds = np.stack([lo, hi])
    ends = downlink_budget(params, realization, bounds, payload_dl_bits)
    args = profile, harvest, uplink, ends, bounds, params.ptx_ul_w, params.ptx_dl_w
    ok_lo, ok_hi = ledger(*args, device_pays_downlink=device_pays_downlink).feasible
    prx, interf = ends.prx_w, ends.interference_w
    e_fixed = compute_energy(profile) + transmit_energy(uplink.tx_time_s, params.ptx_ul_w)
    link = params.noise_power_dl_w, params.bandwidth_hz, payload_dl_bits  # chain's constants
    bill = params.ptx_dl_w, device_pays_downlink  # balance's

    def feasible_at(deltas):
        t_dl = chain(prx, interf, deltas, *link).tx_time_s
        return balance(e_fixed, harvest, prx, t_dl, deltas, *bill)[2]

    # The harvest input (1 - delta) * prx spans [0, prx]. Where the curve
    # is nondecreasing there, feasibility is a prefix interval; elsewhere
    # it may not be, so those devices are scanned on the dense grid.
    dips = (harvest.a2 < 0) | (harvest.a2 + 2.0 * harvest.a1 * prx < 0)

    with np.errstate(divide="ignore", invalid="ignore"):  # unreachable devices probe inf
        if (ok_lo & ~ok_hi & ~dips).any():  # some device's edge lies inside the bracket
            for _ in range(MAX_ITERS):
                if np.max(hi - lo) <= TOL:
                    break
                mid = 0.5 * (lo + hi)
                ok = feasible_at(mid)
                lo, hi = np.where(ok, mid, lo), np.where(ok, hi, mid)
        deltas = np.where(ok_hi, DELTA_MAX, np.where(ok_lo, lo, DELTA_MIN))
        feasible = ok_lo | ok_hi
        if dips.any():
            # The scan runs in blocks of ratios in front of the batch axes, so its
            # temporaries stay near GRID_BLOCK entries however large the batch is.
            # best is the largest feasible ratio so far, 0 while there is none.
            grid = np.append(np.arange(DELTA_MIN, DELTA_MAX, GRID_STEP), DELTA_MAX)
            step = max(1, GRID_BLOCK // dips.size)
            best = np.zeros(shape)
            for start in range(0, len(grid), step):
                block = grid[start : start + step].reshape((-1,) + (1,) * len(shape))
                best = np.maximum(best, np.where(feasible_at(block), block, 0.0).max(axis=0))
            deltas = np.where(dips, np.where(best > 0, best, DELTA_MIN), deltas)
            feasible = np.where(dips, best > 0, feasible)

    return DeltaSolution(deltas, feasible, dips, chain(prx, interf, deltas, *link))


def place_uav(
    area_bounds: tuple[float, float, float, float],
    altitude_m: float,
    mode: str,
    objective: Callable[[np.ndarray], np.ndarray],
    grid_points: int = 9,
) -> PlacementSolution:
    """Pick the UAV position: area center, or expected-delay grid search.

    ``objective`` maps a (C, 3) array of candidate positions to their (C,)
    expected delays. Grid search calls it exactly once, on every candidate;
    the centroid is returned without calling it, with ``objective_s`` None.
    The grid always contains the exact centroid so the search can never do
    worse than the centroid choice under the same objective. Ties go to the
    candidate nearest the centroid, then to the smaller (x, y) for full
    determinism.
    """
    xmin, xmax, ymin, ymax = area_bounds
    centroid = np.array([[0.5 * (xmin + xmax), 0.5 * (ymin + ymax)]])
    if mode == MODE_CENTROID:
        return PlacementSolution((*map(float, centroid[0]), float(altitude_m)), None)
    if mode != MODE_GRID_SEARCH:
        raise ValueError(f"unknown placement mode {mode!r}")
    if grid_points < 2:
        raise ValueError("grid_points must be >= 2")
    axes = np.linspace(xmin, xmax, grid_points), np.linspace(ymin, ymax, grid_points)
    lattice = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 2)
    xy = np.vstack([lattice, centroid])
    candidates = np.column_stack([xy, np.full(len(xy), float(altitude_m))])

    delays = np.asarray(objective(candidates), dtype=float)
    d2 = (xy[:, 0] - centroid[0, 0]) ** 2 + (xy[:, 1] - centroid[0, 1]) ** 2
    best = np.lexsort((xy[:, 1], xy[:, 0], d2, delays))[0]
    return PlacementSolution(tuple(map(float, candidates[best])), float(delays[best]))
