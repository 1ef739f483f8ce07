"""Closed-form link budgets for the device-to-UAV uplink and UAV-to-device downlink.

Everything is SI: watts, meters, hertz, bits, seconds. Channels are
block-Rayleigh fades: squared magnitudes are drawn once per communication
round (elsewhere) and passed in here as nonnegative arrays over devices.
Every function is array-valued: a budget covers all devices at once. The
downlink receiver is a power splitter: a fraction ``delta`` of the received
power feeds the decoder, the remaining ``1 - delta`` feeds the energy
harvester.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

# The power-splitting ratio lives on the open interval (0, 1); the clamp
# keeps both the decode and harvest branches strictly alive.
DELTA_MIN = 1e-3
DELTA_MAX = 1.0 - DELTA_MIN

_POSITIVE_LINK_FIELDS = (
    "pathloss_exponent",
    "bandwidth_hz",
    "noise_power_ul_w",
    "noise_power_dl_w",
    "ptx_ul_w",
    "ptx_dl_w",
)


@dataclass(frozen=True)
class LinkParams:
    """Static radio constants shared by every device.

    Transmit powers are common to all devices in both directions; only the
    fading state and distances vary per device.
    """

    pathloss_exponent: float
    bandwidth_hz: float
    noise_power_ul_w: float
    noise_power_dl_w: float
    ptx_ul_w: float
    ptx_dl_w: float

    def __post_init__(self):
        for name in _POSITIVE_LINK_FIELDS:
            value = getattr(self, name)
            if not value > 0:
                raise ValueError(f"LinkParams.{name} must be > 0, got {value!r}")
        if not 2.0 <= self.pathloss_exponent <= 6.0:
            warnings.warn(
                f"pathloss_exponent={self.pathloss_exponent} is outside the "
                "usual [2, 6] range",
                stacklevel=2,
            )


@dataclass(frozen=True)
class ChannelRealization:
    """One round's fading state: squared channel gains and 3-D distances."""

    gains_sq: np.ndarray
    distances_m: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "gains_sq", np.asarray(self.gains_sq, dtype=float))
        object.__setattr__(self, "distances_m", np.asarray(self.distances_m, dtype=float))
        if self.gains_sq.ndim != 1 or self.distances_m.ndim != 1:
            raise ValueError("gains_sq and distances_m must be 1-D")
        if len(self.gains_sq) != len(self.distances_m):
            raise ValueError(
                f"length mismatch: {len(self.gains_sq)} gains vs "
                f"{len(self.distances_m)} distances"
            )
        if (self.gains_sq < 0).any():
            raise ValueError("gains_sq must be >= 0")
        if not (self.distances_m > 0).all():
            raise ValueError("distances_m must be > 0")

    @property
    def n_devices(self) -> int:
        return len(self.gains_sq)


@dataclass(frozen=True)
class LinkBudget:
    """Derived link quantities in one direction, one entry per device."""

    prx_w: np.ndarray
    interference_w: np.ndarray
    sinr: np.ndarray
    rate_bps: np.ndarray
    tx_time_s: np.ndarray


def received_power(ptx_w: float, distance_m, alpha: float, gain_sq):
    """Power-law received power: ptx * d^(-alpha) * |g|^2, elementwise."""
    distance_m = np.asarray(distance_m, dtype=float)
    if not (distance_m > 0).all():
        raise ValueError(f"distance_m must be > 0, got {distance_m!r}")
    if ptx_w < 0 or (np.asarray(gain_sq) < 0).any():
        raise ValueError("ptx_w and gain_sq must be >= 0")
    return ptx_w * distance_m ** (-alpha) * gain_sq


def interference_power(prx_w) -> np.ndarray:
    """Co-channel power at each device: the sum of every other device's power.

    Every device transmits (or is served) at the common power through its
    own gain and distance, so device j interferes with exactly its own
    received power. The sums come from prefix and suffix sums, never
    ``total - own``, which loses all precision when one device dominates.
    """
    prx = np.asarray(prx_w, dtype=float)
    out = np.concatenate(([0.0], prx[:-1].cumsum()))
    out[:-1] += prx[::-1].cumsum()[-2::-1]
    return out


def sinr(prx_decode_w, interference_w, noise_w: float):
    """Signal-to-interference-plus-noise ratio, elementwise.

    For the downlink, pass ``delta * prx`` as the decode power: only the
    decoder branch of the power splitter sees the signal.
    """
    if not noise_w > 0:
        raise ValueError(f"noise_w must be > 0, got {noise_w!r}")
    prx_decode_w, interference_w = np.asarray(prx_decode_w), np.asarray(interference_w)
    if (prx_decode_w < 0).any() or (interference_w < 0).any():
        raise ValueError("powers must be >= 0")
    return prx_decode_w / (interference_w + noise_w)


def achievable_rate(bandwidth_hz: float, sinr_value):
    """Shannon-style rate: bandwidth * log2(1 + sinr), in bits/s."""
    if not bandwidth_hz > 0:
        raise ValueError(f"bandwidth_hz must be > 0, got {bandwidth_hz!r}")
    sinr_value = np.asarray(sinr_value)
    if (sinr_value < 0).any():
        raise ValueError("sinr must be >= 0")
    return bandwidth_hz * np.log2(1.0 + sinr_value)


def tx_time(payload_bits: float, rate_bps):
    """Transmission time payload/rate, elementwise over rates.

    Zero payload takes zero time. Positive payload at zero rate gives +inf:
    the device is unreachable this round, which downstream feasibility
    checks reject; it is a value, not an error.
    """
    if payload_bits < 0:
        raise ValueError("payload_bits must be >= 0")
    rate = np.asarray(rate_bps, dtype=float)
    if payload_bits == 0:
        return np.zeros_like(rate)
    with np.errstate(divide="ignore"):
        return payload_bits / rate


def _link_budget(ptx_w, noise_w, decode_share, params, realization, payload_bits):
    prx = received_power(
        ptx_w, realization.distances_m, params.pathloss_exponent, realization.gains_sq
    )
    interf = interference_power(prx)
    g = sinr(decode_share * prx, interf, noise_w)
    rate = achievable_rate(params.bandwidth_hz, g)
    return LinkBudget(prx, interf, g, rate, tx_time(payload_bits, rate))


def uplink_budget(
    params: LinkParams,
    realization: ChannelRealization,
    payload_bits: float,
) -> LinkBudget:
    """Full uplink chain of every device: power, interference, SINR, rate, time."""
    return _link_budget(
        params.ptx_ul_w, params.noise_power_ul_w, 1.0, params, realization, payload_bits
    )


def downlink_budget(
    params: LinkParams,
    realization: ChannelRealization,
    deltas,
    payload_bits: float,
) -> LinkBudget:
    """Full downlink chain of every device at power-splitting ratios ``deltas``.

    ``deltas`` is one ratio for all devices or one per device; a leading
    axis of candidate ratios broadcasts against the devices. ``prx_w`` in
    the result is the full received power; only ``deltas`` of it reaches
    the decoder (reflected in the SINR), and the remaining
    ``(1 - deltas) * prx_w`` is what the harvester sees (consumed by the
    energy module, not stored here).
    """
    deltas = np.asarray(deltas, dtype=float)
    if not ((deltas >= DELTA_MIN) & (deltas <= DELTA_MAX)).all():
        raise ValueError(f"deltas must be in [{DELTA_MIN}, {DELTA_MAX}], got {deltas!r}")
    return _link_budget(
        params.ptx_dl_w, params.noise_power_dl_w, deltas, params, realization, payload_bits
    )
