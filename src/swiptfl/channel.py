"""Closed-form link budgets for the device-to-UAV uplink and UAV-to-device downlink.

Everything is SI: watts, meters, hertz, bits, seconds. Channels are
block-Rayleigh fades: squared magnitudes are drawn once per communication
round (elsewhere) and passed in here as nonnegative arrays over devices.
Every function is array-valued: a budget covers all devices at once, and
leading axes ``(..., M)`` batch independent fading states or positions. A
realization keeps its distances at the shape they vary on, so the path loss
``ptx * d**-alpha`` is computed once per position and then broadcast over
the fading draws. The downlink receiver is a power splitter: a fraction
``delta`` of the received power feeds the decoder, the remaining
``1 - delta`` feeds the energy harvester.

The elementwise helpers are the arithmetic alone: the config fixes and
checks the scalar constants once (:class:`LinkParams`), and
:class:`ChannelRealization` and :func:`downlink_budget` check the arrays
that do not come from the config. Every budget is built by :func:`chain`
from its direction's transmit and received powers and interference, which
each direction computes for itself, so the ratio solver's interior probes
call :func:`chain` unchecked on the powers of its bracket ends.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domains import POSITIVE_FINITE, check_domains, within

# The power-splitting ratio lives on the open interval (0, 1); the clamp
# keeps both the decode and harvest branches strictly alive.
DELTA_MIN = 1e-3
DELTA_MAX = 1.0 - DELTA_MIN

@dataclass(frozen=True)
class LinkParams:
    """Static radio constants shared by every device.

    Transmit powers are common to all devices in both directions; only the
    fading state and distances vary per device.
    """

    pathloss_exponent: float = within(POSITIVE_FINITE)
    bandwidth_hz: float = within(POSITIVE_FINITE)
    noise_power_ul_w: float = within(POSITIVE_FINITE)
    noise_power_dl_w: float = within(POSITIVE_FINITE)
    ptx_ul_w: float = within(POSITIVE_FINITE)
    ptx_dl_w: float = within(POSITIVE_FINITE)

    def __post_init__(self):
        check_domains(self)


@dataclass(frozen=True)
class ChannelRealization:
    """Fading states (..., M): squared gains and 3-D distances; leading axes broadcast.

    ``gains_sq`` carries the batch shape; ``distances_m`` keeps its own, such
    as (M,) per device or (C, 1, M) per candidate position and device."""

    gains_sq: np.ndarray
    distances_m: np.ndarray

    def __post_init__(self):
        gains, dists = (np.asarray(a, dtype=float) for a in (self.gains_sq, self.distances_m))
        if min(gains.ndim, dists.ndim) == 0 or gains.shape[-1] != dists.shape[-1]:
            raise ValueError(f"device axes differ: {gains.shape} gains vs {dists.shape} distances")
        if not (gains >= 0).all():
            raise ValueError("gains_sq must be >= 0")
        if not (dists > 0).all():
            raise ValueError("distances_m must be > 0")
        gains = np.broadcast_to(gains, np.broadcast_shapes(gains.shape, dists.shape))
        object.__setattr__(self, "gains_sq", gains)
        object.__setattr__(self, "distances_m", dists)


@dataclass(frozen=True)
class LinkBudget:
    """Derived link quantities in one direction, one entry per device (and state),
    at transmit power ``ptx_w`` and decode share ``decode_share`` (1.0 uplink)."""

    ptx_w: float
    prx_w: np.ndarray
    interference_w: np.ndarray
    decode_share: float | np.ndarray
    sinr: np.ndarray
    rate_bps: np.ndarray
    tx_time_s: np.ndarray


# A (..., M) batch of S >= 64 M states reduces over its devices faster as one
# contiguous (M, S) copy, a vector operation per device: 1.1-2.3x at S = 64 M for
# M from 3 to 32, break-even near S = 30-50 M (measured with numpy 2.4 on 2 cores).
_WIDE = 64


def _device_major(a: np.ndarray) -> np.ndarray | None:
    """A wide (..., M) batch as a contiguous (M, S) copy, devices first, else None."""
    m = a.shape[-1]
    if a.size < max(1, _WIDE * m * m):
        return None
    return np.moveaxis(a, -1, 0).copy().reshape(m, -1)


def device_max(a: np.ndarray) -> np.ndarray:
    """The maximum along the last (device) axis of a (..., M) array without NaN,
    device-major for a wide batch: a maximum's bits do not depend on its order."""
    cols = _device_major(a)
    return a.max(axis=-1) if cols is None else cols.max(axis=0).reshape(a.shape[:-1])


def received_power(ptx_w: float, distance_m, alpha: float, gain_sq):
    """Power-law received power: ptx * d^(-alpha) at the distances' shape, times |g|^2."""
    return ptx_w * np.asarray(distance_m, dtype=float) ** (-alpha) * gain_sq


def interference_power(prx_w) -> np.ndarray:
    """Co-channel power at each device: the sum of every other device's power.

    Every device transmits (or is served) at the common power through its
    own gain and distance, so device j interferes with exactly its own
    received power. The sums come from prefix and suffix sums along the last
    axis, never ``total - own``, which loses all precision when one dominates.
    A wide batch builds them device-major, in ``cumsum``'s order one row add
    at a time: the same bits, signs of zero included, in an (M, S) layout.
    """
    prx = np.asarray(prx_w, dtype=float)
    cols = _device_major(prx)
    if cols is None:
        out = np.zeros(prx.shape)
        out[..., 1:] = prx[..., :-1].cumsum(axis=-1)
        out[..., :-1] += prx[..., ::-1].cumsum(axis=-1)[..., -2::-1]
        return out
    out, suffix = np.zeros(cols.shape), cols[-1].copy()  # the assignments and += above
    for j in range(1, len(cols)):
        out[j] = cols[0] if j == 1 else out[j - 1] + cols[j - 1]
    for j in range(len(cols) - 2, -1, -1):
        out[j] += suffix
        suffix += cols[j]
    return np.moveaxis(out.reshape(prx.shape[-1:] + prx.shape[:-1]), 0, -1)


def sinr(prx_decode_w, interference_w, noise_w: float):
    """Signal-to-interference-plus-noise ratio, elementwise.

    For the downlink, pass ``delta * prx`` as the decode power: only the
    decoder branch of the power splitter sees the signal.
    """
    return prx_decode_w / (interference_w + noise_w)


def achievable_rate(bandwidth_hz: float, sinr_value):
    """Shannon-style rate: bandwidth * log2(1 + sinr), in bits/s."""
    return bandwidth_hz * np.log2(1.0 + sinr_value)


def tx_time(payload_bits: float, rate_bps):
    """Transmission time payload/rate, elementwise over rates.

    Zero payload takes zero time. Positive payload at zero rate gives +inf:
    the device is unreachable this round, which downstream feasibility
    checks reject; it is a value, not an error.
    """
    rate = np.asarray(rate_bps, dtype=float)
    if payload_bits == 0:
        return np.zeros_like(rate)
    with np.errstate(divide="ignore"):
        return payload_bits / rate


def chain(ptx_w, prx_w, interference_w, decode_share, noise_w, bandwidth_hz, payload_bits):
    """The budget of one direction sent at ``ptx_w`` from its two powers: SINR,
    rate and time at decode shares ``decode_share``, 1.0 for the uplink.

    The caller passes the direction's own interference; the ratio solver's
    probes call it alone, since neither power depends on the share."""
    g = sinr(decode_share * prx_w, interference_w, noise_w)
    rate = achievable_rate(bandwidth_hz, g)
    t = tx_time(payload_bits, rate)
    return LinkBudget(ptx_w, prx_w, interference_w, decode_share, g, rate, t)


def uplink_budget(
    params: LinkParams,
    realization: ChannelRealization,
    payload_bits: float,
) -> LinkBudget:
    """Full uplink chain of every device: power, interference, SINR, rate, time.

    Device j is interfered with by every other device's transmission."""
    g, d = realization.gains_sq, realization.distances_m
    prx = received_power(params.ptx_ul_w, d, params.pathloss_exponent, g)
    link = params.noise_power_ul_w, params.bandwidth_hz, payload_bits
    return chain(params.ptx_ul_w, prx, interference_power(prx), 1.0, *link)


def downlink_budget(
    params: LinkParams,
    realization: ChannelRealization,
    deltas,
    payload_bits: float,
) -> LinkBudget:
    """Full downlink chain of every device at power-splitting ratios ``deltas``.

    ``deltas`` is one ratio for all devices or one per device; a leading
    axis of candidate ratios broadcasts against the devices. ``prx_w`` in
    the result is the full received power; only its ``decode_share``, the
    ``deltas``, reaches the decoder (reflected in the SINR), and the
    remaining ``(1 - deltas) * prx_w`` is what the harvester sees (consumed
    by the energy module, not stored here).
    """
    deltas = np.asarray(deltas, dtype=float)
    if not ((deltas >= DELTA_MIN) & (deltas <= DELTA_MAX)).all():
        raise ValueError(f"deltas must be in [{DELTA_MIN}, {DELTA_MAX}], got {deltas!r}")
    g, d = realization.gains_sq, realization.distances_m
    prx = received_power(params.ptx_dl_w, d, params.pathloss_exponent, g)
    link = params.noise_power_dl_w, params.bandwidth_hz, payload_bits
    # The uplink's co-channel sum; the unicast to device i reaches device j over
    # j's own channel, so the physical value is (M - 1) * prx_j (ROADMAP).
    return chain(params.ptx_dl_w, prx, interference_power(prx), deltas, *link)
