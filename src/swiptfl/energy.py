"""Per-round energy accounting, as arrays over devices.

Covers the three consumption terms (local compute, uplink transmit, and the
UAV's downlink transmit, which by convention is billed to the device), the
nonlinear quadratic harvesting curve fed by the power splitter's harvest
branch, and the round feasibility verdict: consumed energy must not exceed
harvested energy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import LinkBudget


@dataclass(frozen=True)
class ComputeProfile:
    """Static compute constants of one device.

    ``kappa`` is the effective switched-capacitance coefficient;
    ``cycles_per_bit`` the CPU cycles needed per data bit; ``data_bits``
    the size of the local training data; ``local_iters`` the number of
    local training iterations per round; ``cpu_hz`` the clock speed.
    """

    kappa: float
    cycles_per_bit: float
    data_bits: float
    local_iters: int
    cpu_hz: float

    def __post_init__(self):
        for name in ("kappa", "cycles_per_bit", "data_bits", "cpu_hz"):
            if not getattr(self, name) > 0:
                raise ValueError(f"ComputeProfile.{name} must be > 0")
        if self.local_iters < 0 or self.local_iters != int(self.local_iters):
            raise ValueError("local_iters must be an integer >= 0")


@dataclass(frozen=True)
class HarvestModel:
    """Coefficients of the quadratic nonlinear harvesting curve.

    Harvested power at input x is max(0, a1*x^2 + a2*x + a3); the clamp
    keeps calibrated fits from going negative near x = 0.
    """

    a1: float
    a2: float
    a3: float


@dataclass(frozen=True)
class EnergyLedger:
    """Every device's energy balance for a single round, one entry per device.

    ``e_total_j`` is the energy billed to the device: compute + uplink,
    plus the UAV-side downlink energy when ``device_pays_downlink`` was set
    (the default convention). ``e_downlink_j`` always records the UAV-side
    energy regardless of who is billed. ``feasible`` means the billed total
    does not exceed the harvested energy and is finite.
    """

    e_compute_j: np.ndarray
    e_uplink_j: np.ndarray
    e_downlink_j: np.ndarray
    e_total_j: np.ndarray
    p_harvest_w: np.ndarray
    e_harvest_j: np.ndarray
    feasible: np.ndarray


def compute_energy(profile: ComputeProfile) -> float:
    """Local training energy: kappa * C * A * I * f^2; zero if no iterations."""
    return (
        profile.kappa
        * profile.cycles_per_bit
        * profile.data_bits
        * profile.local_iters
        * profile.cpu_hz**2
    )


def transmit_energy(tx_time_s, ptx_w: float):
    """Energy of transmitting at ``ptx_w`` for ``tx_time_s``, elementwise.

    A silent transmitter spends nothing even over an infinite time, where
    the naive ``inf * 0`` product would be nan.
    """
    t = np.asarray(tx_time_s, dtype=float)
    return t * ptx_w if ptx_w else np.zeros_like(t)


def harvest_power(model: HarvestModel, harvest_input_w):
    """Harvested power for given harvest-branch inputs, clamped at zero."""
    x = np.asarray(harvest_input_w, dtype=float)
    if (x < 0).any():
        raise ValueError("harvest_input_w must be >= 0")
    return np.maximum(0.0, model.a1 * x * x + model.a2 * x + model.a3)


def ledger(
    profile: ComputeProfile,
    harvest_model: HarvestModel,
    uplink: LinkBudget,
    downlink: LinkBudget,
    delta,
    ptx_ul_w: float,
    ptx_dl_w: float,
    *,
    device_pays_downlink: bool = True,
) -> EnergyLedger:
    """Assemble the energy balance of every device for one round.

    Harvesting runs for the downlink transmission time on the harvest
    branch's share ``(1 - delta)`` of the received power. Zero harvested
    power yields zero harvested energy even when the downlink time is
    infinite (an unreachable device harvests nothing). A device with an
    infinite billed total is never feasible, even if the harvested energy
    is infinite as well.
    """
    e_c = compute_energy(profile)
    e_u = transmit_energy(uplink.tx_time_s, ptx_ul_w)
    e_d = transmit_energy(downlink.tx_time_s, ptx_dl_w)
    e_total = e_c + e_u + (e_d if device_pays_downlink else 0.0)

    p_h = harvest_power(harvest_model, (1.0 - delta) * downlink.prx_w)
    with np.errstate(invalid="ignore"):
        e_h = np.where(p_h > 0.0, downlink.tx_time_s * p_h, 0.0)

    return EnergyLedger(
        e_compute_j=np.full_like(e_total, e_c),
        e_uplink_j=e_u,
        e_downlink_j=e_d,
        e_total_j=e_total,
        p_harvest_w=p_h,
        e_harvest_j=e_h,
        feasible=np.isfinite(e_total) & (e_total <= e_h),
    )
