"""Link-budget unit tests: hand-checked values, invariants, error paths."""

import math
from dataclasses import fields

import numpy as np
import pytest

import oracles
from swiptfl import channel
from swiptfl.channel import (
    DELTA_MAX,
    DELTA_MIN,
    ChannelRealization,
    LinkParams,
    achievable_rate,
    chain,
    device_max,
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
    A 2-D batch sums along its device axis, row by row, and so does one wide
    enough to sum device-major."""
    dominant = np.array([1e20, 1.0, 1.0, 1.0])
    dists = np.array([10.0, 20.0, 30.0, 40.0])
    batch = np.stack([dominant, dominant[::-1], np.full(4, 2.0)])
    wide = np.tile(batch, (100, 1))
    assert channel._device_major(batch) is None and channel._device_major(wide) is not None
    for gains in (dominant, batch, wide):
        mine = _interference(0.1, ChannelRealization(gains, dists), 2.7)
        assert mine.shape == gains.shape
        for row, got in zip(np.atleast_2d(gains), np.atleast_2d(mine)):
            for k in range(len(row)):
                ref = oracles.interference(0.1, row, dists, 2.7, k)
                assert got[k] == pytest.approx(ref, rel=1e-12)


def _device_rows(shape, values, seed):
    """An array of ``shape`` drawn from ``values``; every third device row
    from 0.0 and -0.0 alone, so sums of signed zeros are covered. The shape
    "broadcast" is a stride-0 (82, 25, 5) view of (25, 5) draws, as a
    realization broadcasts its gains over placement candidates."""
    if shape == "broadcast":
        return np.broadcast_to(_device_rows((25, 5), values, seed), (82, 25, 5))
    rng = np.random.default_rng(seed)
    a = rng.choice(values, shape)
    rows = a.reshape(-1, shape[-1])
    rows[1::3] = rng.choice([0.0, -0.0], rows[1::3].shape)
    return a


def test_device_axis_reductions_match_the_last_axis_bit_for_bit():
    """Interference sums and device maxima give the bits of the last-axis
    expressions on both sides of the device-major rule, a stride-0 view
    included; the uint64 views compare the sign of a zero too."""
    shapes = [(1,), (5,), (4, 4), (5, 1, 200), (30, 10, 5), (82, 25, 5), "broadcast"]
    powers = [0.0, -0.0, 1e-300, 1e300, 1.0, 3.7]
    times = [0.0, 1e-300, 1.0, 2.5, 1e300, math.inf]
    device_major = set()
    for seed, shape in enumerate(shapes):
        for values, got, ref in [
            (powers, interference_power, oracles.last_axis_interference),
            (times, device_max, oracles.last_axis_max),
        ]:
            a = _device_rows(shape, values, seed)
            device_major.add(channel._device_major(a) is not None)
            mine, theirs = np.asarray(got(a)), np.asarray(ref(a))
            assert mine.shape == theirs.shape
            assert np.array_equal(mine.view(np.uint64), theirs.view(np.uint64)), shape
    assert device_major == {True, False}


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


def assert_same_budget(got, expected):
    """Every field of two budgets at the same shape and bits, zero signs included."""
    for field in fields(got):
        mine, theirs = (np.asarray(getattr(b, field.name), dtype=float) for b in (got, expected))
        assert mine.shape == theirs.shape, field.name
        assert np.array_equal(mine.view(np.uint64), theirs.view(np.uint64)), field.name


@pytest.mark.parametrize(
    "gains_shape, deltas_shape",
    [((1,), (1,)), ((5,), (5,)), ((4, 5), (4, 5)), ((3, 5), (2, 3, 5))],
    ids=["one-device", "devices", "batch", "bracket"],
)
def test_each_direction_chains_its_own_power_and_interference(gains_shape, deltas_shape):
    """Each budget is chain() on its direction's own transmit power, received
    power and that power's co-channel sum, bit for bit, and carries the
    power and decode share it was built at; one device sees no interference
    either way; the (2, 3, M) ratios over (3, M) states are the ratio
    solver's stacked bracket ends."""
    rng = np.random.default_rng(len(deltas_shape))
    params = make_params(pathloss_exponent=2.7)
    m = gains_shape[-1]
    r = ChannelRealization(rng.exponential(1.0, gains_shape), rng.uniform(10, 200, m))
    deltas = rng.uniform(DELTA_MIN, DELTA_MAX, deltas_shape)
    for ptx, noise, share, budget in [
        (params.ptx_ul_w, params.noise_power_ul_w, 1.0, uplink_budget(params, r, 512.0)),
        (params.ptx_dl_w, params.noise_power_dl_w, deltas, downlink_budget(params, r, deltas, 512.0)),
    ]:
        prx = received_power(ptx, r.distances_m, 2.7, r.gains_sq)
        link = noise, params.bandwidth_hz, 512.0
        expected = chain(ptx, prx, interference_power(prx), share, *link)
        assert_same_budget(budget, expected)
        assert budget.ptx_w == ptx
        assert np.array_equal(budget.decode_share, share)
        assert budget.tx_time_s.shape == np.broadcast_shapes(gains_shape, np.shape(share))
        assert (budget.interference_w == 0).all() == (m == 1)


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
