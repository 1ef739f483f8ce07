"""Link-budget unit tests: hand-checked values, invariants, error paths."""

import math
from dataclasses import fields

import numpy as np
import pytest

import oracles
from swiptfl.channel import (
    DELTA_MAX,
    DELTA_MIN,
    ChannelRealization,
    LinkParams,
    achievable_rate,
    downlink_budget,
    interference_power,
    received_power,
    sinr,
    tx_time,
    uplink_budget,
)


def make_params(**kw):
    base = dict(
        pathloss_exponent=2.0,
        bandwidth_hz=1e6,
        noise_power_ul_w=1e-9,
        noise_power_dl_w=1e-9,
        ptx_ul_w=0.1,
        ptx_dl_w=1.0,
    )
    base.update(kw)
    return LinkParams(**base)


def test_received_power_hand_values():
    assert received_power(1.0, 1.0, 2.0, 1.0) == 1.0
    assert received_power(0.5, 10.0, 2.0, 2.0) == pytest.approx(0.01, rel=1e-12)
    assert received_power(1.0, 5.0, 2.0, 0.0) == 0.0


def test_received_power_per_position_equals_its_broadcast_copy():
    """Distances per candidate position, (C, 1, M), keep their shape in a
    realization and give, bit for bit, the received power of their copy
    broadcast over the fading draws, (C, T, M)."""
    rng = np.random.default_rng(23)
    gains = rng.exponential(1.0, (4, 6))
    dists = rng.uniform(20.0, 150.0, (3, 1, 6))
    per_position = ChannelRealization(gains, dists)
    copied = ChannelRealization(gains, np.broadcast_to(dists, (3, 4, 6)).copy())
    assert per_position.distances_m.shape == (3, 1, 6)
    assert per_position.gains_sq.shape == copied.distances_m.shape == (3, 4, 6)
    got, want = (
        received_power(0.1, r.distances_m, 2.7, r.gains_sq) for r in (per_position, copied)
    )
    assert got.shape == (3, 4, 6) and np.array_equal(got, want)
    params = make_params(pathloss_exponent=2.7)
    for name in ("prx_w", "interference_w", "sinr", "rate_bps", "tx_time_s"):
        got, want = (getattr(uplink_budget(params, r, 100.0), name) for r in (per_position, copied))
        assert np.array_equal(got, want), name


def test_received_power_homogeneous_in_ptx_and_gain():
    rng = np.random.default_rng(11)
    for _ in range(50):
        ptx, d, a, g = rng.uniform(0.01, 10), rng.uniform(1, 500), rng.uniform(2, 4), rng.uniform(0, 5)
        c = 2.0 ** rng.integers(-3, 4)  # powers of two scale floats exactly
        assert received_power(c * ptx, d, a, g) == c * received_power(ptx, d, a, g)
        assert received_power(ptx, d, a, c * g) == c * received_power(ptx, d, a, g)


def _interference(ptx, realization, alpha):
    return interference_power(
        received_power(ptx, realization.distances_m, alpha, realization.gains_sq)
    )


def test_interference_single_device_is_zero():
    r = ChannelRealization([1.3], [10.0])
    assert _interference(1.0, r, 2.0)[0] == 0.0


def test_interference_equal_links():
    r = ChannelRealization([1.0, 1.0, 1.0], [1.0, 1.0, 1.0])
    assert np.allclose(_interference(1.0, r, 2.0), 2.0, rtol=1e-15, atol=0.0)


def test_interference_zero_gain_interferer():
    r = ChannelRealization([2.0, 0.0], [5.0, 7.0])
    assert _interference(1.0, r, 2.0)[0] == 0.0


def test_interference_excluded_index_checked():
    """Each device's own power is left out of its interference, and only its
    own: with one active transmitter, it alone sees nothing."""
    for m in (1, 2, 5):
        for k in range(m):
            gains = np.zeros(m)
            gains[k] = 3.0
            interf = _interference(1.0, ChannelRealization(gains, np.full(m, 2.0)), 2.0)
            expected = np.full(m, 0.75)
            expected[k] = 0.0
            assert np.array_equal(interf, expected)


def test_interference_matches_loop_oracle():
    rng = np.random.default_rng(7)
    for _ in range(100):
        m = int(rng.integers(1, 9))
        gains = rng.exponential(1.0, m)
        dists = rng.uniform(5, 300, m)
        ptx = rng.uniform(0.01, 5)
        alpha = rng.uniform(2, 4)
        mine = _interference(ptx, ChannelRealization(gains, dists), alpha)
        for k in range(m):
            ref = oracles.interference(ptx, gains, dists, alpha, k)
            assert mine[k] == pytest.approx(ref, rel=1e-12)


def test_interference_survives_one_dominant_device():
    """A sum of all devices minus the device's own power would cancel to
    rounding noise at the dominant device; prefix and suffix sums do not.
    A 2-D batch sums along its device axis, row by row."""
    dominant = np.array([1e20, 1.0, 1.0, 1.0])
    dists = np.array([10.0, 20.0, 30.0, 40.0])
    batch = np.stack([dominant, dominant[::-1], np.full(4, 2.0)])
    for gains in (dominant, batch):
        mine = _interference(0.1, ChannelRealization(gains, dists), 2.7)
        assert mine.shape == gains.shape
        for row, got in zip(np.atleast_2d(gains), np.atleast_2d(mine)):
            for k in range(len(row)):
                ref = oracles.interference(0.1, row, dists, 2.7, k)
                assert got[k] == pytest.approx(ref, rel=1e-12)


def test_sinr_hand_values():
    assert sinr(1.0, 0.0, 1.0) == 1.0
    assert sinr(0.0, 5.0, 1.0) == 0.0
    assert sinr(0.2, 0.3, 0.1) == pytest.approx(0.5, rel=1e-15)


def test_achievable_rate_hand_values():
    assert achievable_rate(1e6, 1.0) == pytest.approx(1e6, rel=1e-15)
    assert achievable_rate(1e6, 0.0) == 0.0
    assert achievable_rate(2e6, 3.0) == pytest.approx(4e6, rel=1e-15)


def test_tx_time_hand_values():
    assert tx_time(1e6, 1e6) == 1.0
    assert tx_time(0.0, 5.0) == 0.0
    assert tx_time(3e6, 1.5e6) == 2.0
    assert tx_time(10.0, 0.0) == math.inf


def test_uplink_budget_single_device_bitexact_no_interference():
    """With M=1 the interference term must be exactly zero, making the budget
    identical to the isolated-link closed form."""
    params = make_params()
    r = ChannelRealization([0.7], [42.0])
    budget = uplink_budget(params, r, 640.0)
    assert budget.interference_w[0] == 0.0
    prx = received_power(params.ptx_ul_w, 42.0, 2.0, 0.7)
    assert budget.prx_w == prx
    assert budget.sinr == sinr(prx, 0.0, params.noise_power_ul_w)
    assert budget.rate_bps == achievable_rate(params.bandwidth_hz, budget.sinr)
    assert budget.tx_time_s == tx_time(640.0, budget.rate_bps)


def test_uplink_budget_matches_oracle_chain():
    rng = np.random.default_rng(23)
    params = make_params(pathloss_exponent=2.7)
    for _ in range(60):
        m = int(rng.integers(1, 7))
        gains = rng.exponential(1.0, m)
        dists = rng.uniform(10, 200, m)
        r = ChannelRealization(gains, dists)
        budget = uplink_budget(params, r, 512.0)
        for i in range(m):
            prx = oracles.rx_power(params.ptx_ul_w, dists[i], 2.7, gains[i])
            interf = oracles.interference(params.ptx_ul_w, gains, dists, 2.7, i)
            gamma = oracles.sinr_value(prx, interf, params.noise_power_ul_w)
            rate = oracles.shannon_rate(params.bandwidth_hz, gamma)
            assert budget.rate_bps[i] == pytest.approx(rate, rel=1e-12)
            assert budget.tx_time_s[i] == pytest.approx(
                oracles.transmit_time(512.0, rate), rel=1e-12
            )


def test_downlink_budget_keeps_full_received_power():
    params = make_params()
    r = ChannelRealization([1.1, 0.4], [30.0, 55.0])
    full = received_power(params.ptx_dl_w, 30.0, 2.0, 1.1)
    for delta in (0.1, 0.5, 0.9):
        assert downlink_budget(params, r, delta, 256.0).prx_w[0] == full


def test_downlink_sinr_uses_decoder_share():
    params = make_params()
    r = ChannelRealization([1.0], [20.0])
    b = downlink_budget(params, r, 0.25, 256.0)
    assert b.sinr[0] == pytest.approx(0.25 * b.prx_w[0] / params.noise_power_dl_w, rel=1e-12)


def test_downlink_time_strictly_decreasing_in_delta():
    params = make_params()
    r = ChannelRealization([0.9, 1.7], [60.0, 90.0])
    times = downlink_budget(params, r, np.linspace(0.05, 0.95, 12)[:, None], 4096.0).tx_time_s
    assert np.all(times[:-1] > times[1:])


def test_uplink_time_strictly_decreasing_in_ptx():
    r = ChannelRealization([1.0], [50.0])
    times = [
        uplink_budget(make_params(ptx_ul_w=p), r, 4096.0).tx_time_s[0] for p in (0.01, 0.1, 1.0, 10.0)
    ]
    assert all(a > b for a, b in zip(times, times[1:]))


def test_downlink_budget_rejects_delta_outside_clamp():
    params = make_params()
    r = ChannelRealization([1.0], [10.0])
    for bad in (0.0, DELTA_MIN / 2, 1.0, 1.5, DELTA_MAX + 1e-4):
        with pytest.raises(ValueError):
            downlink_budget(params, r, bad, 100.0)
    with pytest.raises(ValueError):
        downlink_budget(params, ChannelRealization([1.0, 1.0], [10.0, 20.0]), [0.5, 1.0], 100.0)


def test_link_params_validation():
    """Every constant the link chain reads is checked here, once; the chain
    itself uses them unchecked."""
    for name in (item.name for item in fields(LinkParams)):
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match=rf"^LinkParams\.{name} must be > 0 and finite"):
                make_params(**{name: bad})


def test_channel_realization_validation():
    with pytest.raises(ValueError):
        ChannelRealization([1.0, 2.0], [1.0])
    for gain in (-0.1, math.nan):
        with pytest.raises(ValueError):
            ChannelRealization([gain], [1.0])
    for distance in (0.0, -3.0):  # the only guard of received_power's distances
        with pytest.raises(ValueError):
            ChannelRealization([1.0], [distance])
    assert ChannelRealization([1.0, 2.0], [3.0, 4.0]).gains_sq.shape[-1] == 2
    # Leading axes broadcast; the device axis must match exactly.
    for gains, dists in (
        (np.ones((2, 3)), np.ones((2, 2))),
        (np.ones((2, 3)), np.ones(1)),
        (np.ones((2, 3)), np.ones((3, 3))),
    ):
        with pytest.raises(ValueError):
            ChannelRealization(gains, dists)
    # The gains carry the batch shape; the distances keep their own shape.
    batch = ChannelRealization(np.ones((2, 3)), [3.0, 4.0, 5.0])
    assert batch.distances_m.shape == (3,) and batch.gains_sq.shape == (2, 3)
