"""Per-round energy accounting, as arrays over devices (and any leading batch axes).

Covers the three consumption terms (local compute, uplink transmit, and the
UAV's downlink transmit, which by convention is billed to the device), the
nonlinear quadratic harvesting curve fed by the power splitter's harvest
branch, and the round feasibility verdict: consumed energy must not exceed
harvested energy. Each direction bills at the power its budget was sent at.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import LinkBudget
from .domains import FINITE, NONNEGATIVE_INT, POSITIVE_FINITE, check_domains, within


@dataclass(frozen=True)
class ComputeProfile:
    """Static compute constants of one device.

    ``kappa`` is the effective switched-capacitance coefficient;
    ``cycles_per_bit`` the CPU cycles needed per data bit; ``data_bits``
    the size of the local training data; ``local_iters`` the number of
    local training iterations per round; ``cpu_hz`` the clock speed.
    """

    kappa: float = within(POSITIVE_FINITE)
    cycles_per_bit: float = within(POSITIVE_FINITE)
    data_bits: float = within(POSITIVE_FINITE)
    local_iters: int = within(NONNEGATIVE_INT)
    cpu_hz: float = within(POSITIVE_FINITE)

    def __post_init__(self):
        check_domains(self)


@dataclass(frozen=True)
class HarvestModel:
    """Coefficients of the quadratic nonlinear harvesting curve.

    Harvested power at input x is max(0, a1*x^2 + a2*x + a3); the clamp
    keeps calibrated fits from going negative near x = 0.
    """

    a1: float = within(FINITE)
    a2: float = within(FINITE)
    a3: float = within(FINITE)

    def __post_init__(self):
        check_domains(self)


@dataclass(frozen=True)
class EnergyLedger:
    """Every device's energy balance for a single round, one entry per device.

    ``e_total_j`` is the energy billed to the device: compute + uplink,
    plus the UAV-side downlink energy when ``device_pays_downlink`` was set
    (the default convention). ``e_harvest_j`` is what the harvest branch
    gathers over the downlink. ``feasible`` means the billed total does not
    exceed the harvested energy and is finite.
    """

    e_total_j: np.ndarray
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


def harvest_power(model: HarvestModel, x):
    """Harvested power at harvest-branch inputs ``x`` (W), clamped at zero."""
    return np.maximum(0.0, model.a1 * x * x + model.a2 * x + model.a3)


def fixed_bill(profile: ComputeProfile, uplink: LinkBudget):
    """The compute + uplink bill of every device, which no power-splitting ratio changes."""
    return compute_energy(profile) + transmit_energy(uplink.tx_time_s, uplink.ptx_w)


def balance(e_fixed_j, model: HarvestModel, downlink: LinkBudget, device_pays_downlink):
    """The ratio-dependent end of the ledger: (billed total, harvest, verdict).

    ``e_fixed_j`` is the :func:`fixed_bill`; the ratio solver's probes call
    this alone. The downlink bills at its own power and harvests on its
    share ``1 - decode_share``. Zero harvested power yields zero harvested
    energy even over an infinite downlink time (an unreachable device
    harvests nothing); that product is invalid, so callers ignore it.
    """
    e_total = e_fixed_j
    if device_pays_downlink:
        e_total = e_total + transmit_energy(downlink.tx_time_s, downlink.ptx_w)
    p_h = harvest_power(model, (1.0 - downlink.decode_share) * downlink.prx_w)
    e_h = np.where(p_h > 0.0, downlink.tx_time_s * p_h, 0.0)
    return e_total, e_h, np.isfinite(e_total) & (e_total <= e_h)


def ledger(
    profile: ComputeProfile,
    harvest_model: HarvestModel,
    uplink: LinkBudget,
    downlink: LinkBudget,
    *,
    device_pays_downlink: bool = True,
) -> EnergyLedger:
    """Assemble the energy balance of every device for one round.

    The bill and the harvest follow from the budgets, as :func:`balance`
    says. A device with an infinite billed total is never feasible, even if
    the harvested energy is infinite as well.
    """
    e_fixed = fixed_bill(profile, uplink)
    with np.errstate(invalid="ignore"):
        return EnergyLedger(*balance(e_fixed, harvest_model, downlink, device_pays_downlink))
