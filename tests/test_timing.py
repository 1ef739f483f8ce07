"""Round-delay composition tests."""

import math

import numpy as np
import pytest

import oracles
from swiptfl.channel import ChannelRealization, LinkParams, downlink_budget
from swiptfl.energy import ComputeProfile
from swiptfl.timing import local_train_time, round_total, uav_aggregation_time


def test_local_train_time_direct():
    p = ComputeProfile(kappa=1e-28, cycles_per_bit=2, data_bits=10, local_iters=5, cpu_hz=100)
    assert local_train_time(p) == 1.0


def test_local_train_time_zero_iterations():
    p = ComputeProfile(kappa=1e-28, cycles_per_bit=2, data_bits=10, local_iters=0, cpu_hz=100)
    assert local_train_time(p) == 0.0


def test_local_train_time_inverse_in_frequency():
    slow = ComputeProfile(kappa=1e-28, cycles_per_bit=2, data_bits=10, local_iters=5, cpu_hz=100)
    fast = ComputeProfile(kappa=1e-28, cycles_per_bit=2, data_bits=10, local_iters=5, cpu_hz=200)
    assert local_train_time(fast) == local_train_time(slow) / 2


def test_uav_aggregation_time():
    assert uav_aggregation_time(1, 1e6, 1e6) == 1.0
    assert uav_aggregation_time(1, 0, 1e6) == 0.0
    assert uav_aggregation_time(2, 1e6, 1e6) == 2.0


def test_round_total_single_device_is_plain_sum():
    d = round_total([0.2], [0.5], [0.1], 0.05)
    assert d == 0.2 + 0.5 + 0.1 + 0.05


def test_round_total_is_the_delay_itself():
    """A float for one fading state, an array over the batch axes for a batch."""
    assert type(round_total([0.2, 0.1], [0.5, 0.5], [0.1, 0.3], 0.05)) is float
    batch = round_total(np.ones((2, 3, 4)), np.ones((2, 3, 4)), np.ones((2, 3, 4)), 0.5)
    assert isinstance(batch, np.ndarray) and batch.shape == (2, 3)
    assert (batch == 3.5).all()


def test_round_total_dominating_device():
    """Device 0 is slowest in both stages, so it alone sets the total."""
    d = round_total([5.0, 1.0, 0.5], [3.0, 0.1, 0.2], [4.0, 0.3, 0.1], 0.25)
    assert d == 5.0 + 3.0 + 4.0 + 0.25
    brute = oracles.t_round([5.0, 1.0, 0.5], [3.0, 0.1, 0.2], [4.0, 0.3, 0.1], 0.25)
    assert d == brute


def test_round_total_matches_oracle_randomized():
    rng = np.random.default_rng(31)
    for _ in range(200):
        m = int(rng.integers(1, 10))
        t_up, t_loc, t_down = rng.uniform(0, 3, (3, m))
        t_uav = float(rng.uniform(0, 1))
        d = round_total(t_up, t_loc, t_down, t_uav)
        assert d == pytest.approx(
            oracles.t_round(list(t_up), list(t_loc), list(t_down), t_uav), rel=1e-12
        )
    # A 2-D batch reduces along the device axis: each row equals its 1-D total.
    t_up, t_loc, t_down = rng.uniform(0, 3, (3, 4, 6))
    batch = round_total(t_up, t_loc, t_down, 0.2)
    assert batch.shape == (4,)
    rows = [round_total(t_up[i], t_loc[i], t_down[i], 0.2) for i in range(4)]
    assert np.array_equal(batch, rows)


def test_round_total_absorbs_infinity():
    assert math.isinf(round_total([math.inf, 1.0], [0.1, 0.1], [0.2, 0.2], 0.0))
    assert math.isinf(round_total([1.0], [1.0], [math.inf], 0.5))


def test_round_total_monotone_in_every_component():
    rng = np.random.default_rng(5)
    for _ in range(50):
        m = int(rng.integers(1, 6))
        t_up, t_loc, t_down = rng.uniform(0, 2, (3, m))
        t_uav = float(rng.uniform(0, 1))
        base = round_total(t_up, t_loc, t_down, t_uav)
        k = int(rng.integers(0, m))
        bump = float(rng.uniform(0, 2))
        up2 = t_up.copy(); up2[k] += bump
        loc2 = t_loc.copy(); loc2[k] += bump
        down2 = t_down.copy(); down2[k] += bump
        assert round_total(up2, t_loc, t_down, t_uav) >= base
        assert round_total(t_up, loc2, t_down, t_uav) >= base
        assert round_total(t_up, t_loc, down2, t_uav) >= base
        assert round_total(t_up, t_loc, t_down, t_uav + bump) >= base


def test_round_total_symmetric_under_relabeling():
    rng = np.random.default_rng(13)
    t_up, t_loc, t_down = rng.uniform(0, 2, (3, 6))
    perm = rng.permutation(6)
    a = round_total(t_up, t_loc, t_down, 0.3)
    b = round_total(t_up[perm], t_loc[perm], t_down[perm], 0.3)
    assert a == b


def test_round_total_validation():
    with pytest.raises(ValueError):
        round_total([], [], [], 0.0)
    with pytest.raises(ValueError):
        round_total([1.0], [1.0, 2.0], [1.0], 0.0)
    with pytest.raises(ValueError):
        round_total([1.0], [-0.1], [1.0], 0.0)
    with pytest.raises(ValueError):
        round_total([math.nan], [1.0], [1.0], 0.0)
    with pytest.raises(ValueError):
        round_total([1.0], [1.0], [1.0], -0.5)
    ok = np.ones((2, 3))
    bad_nan, bad_neg = ok.copy(), ok.copy()
    bad_nan[1, 2], bad_neg[0, 1] = math.nan, -0.1
    for args in ((bad_nan, ok, ok), (ok, bad_neg, ok), (ok, ok, bad_nan), (ok, ok, np.ones((2, 2)))):
        with pytest.raises(ValueError):
            round_total(*args, 0.0)


def test_total_nonincreasing_in_downlink_power_pointwise():
    """Raising the downlink transmit power can only shrink download times,
    so the composed total never grows, realization by realization."""
    rng = np.random.default_rng(41)
    r = ChannelRealization(rng.exponential(1.0, 5), rng.uniform(20, 120, 5))
    t_up = rng.uniform(0.01, 0.1, 5)
    t_loc = rng.uniform(0.01, 0.1, 5)

    def total(ptx_dl):
        params = LinkParams(
            pathloss_exponent=2.7,
            bandwidth_hz=1e6,
            noise_power_ul_w=1e-9,
            noise_power_dl_w=1e-7,
            ptx_ul_w=0.1,
            ptx_dl_w=ptx_dl,
        )
        t_down = downlink_budget(params, r, 0.5, 4096.0).tx_time_s
        return round_total(t_up, t_loc, t_down, 0.01)

    totals = [total(p) for p in np.logspace(-1, 1, 6)]
    assert all(b <= a for a, b in zip(totals, totals[1:]))
    assert totals[-1] < totals[0]
