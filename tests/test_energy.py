"""Energy model unit tests: consumption terms, harvest curve, ledger."""

import math

import numpy as np
import pytest

import oracles
from swiptfl.channel import ChannelRealization, LinkParams, downlink_budget, uplink_budget
from swiptfl.energy import (
    ComputeProfile,
    HarvestModel,
    compute_energy,
    harvest_power,
    ledger,
    transmit_energy,
)


def make_profile(**kw):
    base = dict(kappa=1e-28, cycles_per_bit=1e3, data_bits=1e4, local_iters=5, cpu_hz=1e9)
    base.update(kw)
    return ComputeProfile(**base)


def test_compute_energy_zero_iterations():
    assert compute_energy(make_profile(local_iters=0)) == 0.0


def test_compute_energy_direct_product():
    # kappa * C * A * I * f^2 = 1e-28 * 1e3 * 1e4 * 5 * 1e18
    profile = make_profile()
    assert compute_energy(profile) == pytest.approx(5e-3, rel=1e-15)
    assert compute_energy(profile) == pytest.approx(
        oracles.e_compute(1e-28, 1e3, 1e4, 5, 1e9), rel=1e-12
    )


def test_compute_energy_quadratic_in_frequency():
    base = compute_energy(make_profile(cpu_hz=1e9))
    assert compute_energy(make_profile(cpu_hz=2e9)) == pytest.approx(4 * base, rel=1e-15)


def test_compute_profile_validation():
    with pytest.raises(ValueError):
        make_profile(kappa=0.0)
    for name in ("kappa", "cycles_per_bit", "data_bits", "cpu_hz"):
        with pytest.raises(ValueError, match=rf"^ComputeProfile\.{name} must be > 0 and finite"):
            make_profile(**{name: math.inf})
    with pytest.raises(ValueError):
        make_profile(local_iters=-1)
    with pytest.raises(ValueError):
        make_profile(local_iters=1.5)


def test_transmit_energy_hand_values():
    assert transmit_energy(1.0, 0.5) == 0.5
    assert transmit_energy(0.0, 2.0) == 0.0
    assert transmit_energy(2.0, 1.0) == 2.0
    assert np.array_equal(transmit_energy([1.0, 0.0, 2.0], 0.5), [0.5, 0.0, 1.0])


def test_transmit_energy_infinite_time_zero_power():
    # An unreachable device with nothing to send costs nothing; the naive
    # inf * 0 product would be nan.
    assert transmit_energy(math.inf, 0.0) == 0.0
    assert np.array_equal(transmit_energy([math.inf, 1.0], 0.0), [0.0, 0.0])
    assert transmit_energy(math.inf, 0.1) == math.inf


def test_harvest_power_hand_values():
    model = HarvestModel(0.1, 0.5, 0.0)
    assert harvest_power(model, 0.2) == pytest.approx(0.104, rel=1e-12)
    assert harvest_power(model, 0.0) == 0.0
    assert harvest_power(HarvestModel(0.0, 0.0, -0.01), 0.0) == 0.0


def test_harvest_model_rejects_non_finite_coefficients():
    for index in range(3):
        for bad in (math.nan, math.inf, -math.inf):
            coefficients = [0.1, 0.5, 0.0]
            coefficients[index] = bad
            with pytest.raises(ValueError, match=rf"^HarvestModel\.a{index + 1} must be finite"):
                HarvestModel(*coefficients)
    assert HarvestModel(-0.1, -0.5, -1.0).a3 == -1.0  # negative coefficients are a shape


def test_harvest_power_monotone_for_nonnegative_coefficients():
    rng = np.random.default_rng(3)
    for _ in range(40):
        model = HarvestModel(rng.uniform(0, 1), rng.uniform(0, 1), rng.uniform(0, 0.1))
        xs = np.sort(rng.uniform(0, 2, 20))
        values = harvest_power(model, xs)
        assert np.all(values[1:] >= values[:-1])


def _budgets(delta, ptx_dl=1.0, payload=2048.0):
    params = LinkParams(
        pathloss_exponent=2.0,
        bandwidth_hz=1e6,
        noise_power_ul_w=1e-9,
        noise_power_dl_w=1e-9,
        ptx_ul_w=0.1,
        ptx_dl_w=ptx_dl,
    )
    r = ChannelRealization([0.8, 1.2], [25.0, 40.0])
    return params, uplink_budget(params, r, payload), downlink_budget(params, r, delta, payload)


def test_ledger_sum_identity():
    """The billed total is compute + uplink, plus the downlink when the device pays."""
    model = HarvestModel(0.1, 0.5, 0.0)
    params, up, down = _budgets(0.4)
    e_compute = oracles.e_compute(1e-28, 1e3, 1e4, 5, 1e9)
    for pays in (True, False):
        led = ledger(make_profile(), model, up, down, device_pays_downlink=pays)
        for i in range(2):
            expected = e_compute + oracles.e_transmit(up.tx_time_s[i], params.ptx_ul_w)
            if pays:
                expected += oracles.e_transmit(down.tx_time_s[i], params.ptx_dl_w)
            assert led.e_total_j[i] == pytest.approx(expected, rel=1e-12)


def test_ledger_harvest_energy_definition():
    model = HarvestModel(0.2, 0.3, 0.01)
    _, up, down = _budgets(0.6)
    led = ledger(make_profile(), model, up, down)
    for i in range(2):
        expected_power = oracles.p_harvest(0.2, 0.3, 0.01, (1.0 - 0.6) * down.prx_w[i])
        assert expected_power > 0.0
        assert led.e_harvest_j[i] == pytest.approx(expected_power * down.tx_time_s[i], rel=1e-12)


def test_ledger_feasibility_is_energy_balance():
    _, up, down = _budgets(0.5)
    poor = ledger(make_profile(), HarvestModel(0.1, 0.5, 0.0), up, down)
    assert np.all(poor.e_total_j > poor.e_harvest_j)
    assert not np.any(poor.feasible)
    _, up, down = _budgets(0.5, ptx_dl=0.001)
    rich = ledger(make_profile(local_iters=0), HarvestModel(0.0, 0.0, 100.0), up, down,
                  device_pays_downlink=True)
    assert np.all(rich.e_total_j <= rich.e_harvest_j)
    assert np.all(rich.feasible)


def test_ledger_zero_harvest_power_gives_zero_energy_even_when_unreachable():
    """A device whose downlink never completes harvests nothing when the
    harvest curve outputs zero; inf * 0 must not surface as nan."""
    params, up, _ = _budgets(0.5)
    r = ChannelRealization([0.0, 1.0], [25.0, 40.0])  # zero gain: rate 0, time inf
    down = downlink_budget(params, r, 0.5, 2048.0)
    assert down.tx_time_s[0] == math.inf
    led = ledger(make_profile(), HarvestModel(0.0, 0.0, 0.0), up, down)
    assert led.e_harvest_j[0] == 0.0
    assert not math.isnan(led.e_total_j[0])
    assert not led.feasible[0]


def test_ledger_infinite_total_never_feasible():
    params, up, _ = _budgets(0.5)
    r = ChannelRealization([0.0, 1.0], [25.0, 40.0])
    down = downlink_budget(params, r, 0.5, 2048.0)
    led = ledger(make_profile(), HarvestModel(0.0, 0.5, 0.1), up, down)
    # The constant curve term keeps harvesting through the endless downlink,
    # but an infinite bill is still a bill.
    assert led.e_harvest_j[0] == math.inf
    assert led.e_total_j[0] == math.inf
    assert not led.feasible[0]


def test_harvested_energy_nonincreasing_in_delta():
    """Larger decode share shrinks both the harvest input and the harvest
    duration, so harvested energy can only go down (nonnegative curve)."""
    rng = np.random.default_rng(19)
    for _ in range(30):
        model = HarvestModel(rng.uniform(0, 0.5), rng.uniform(0, 1), rng.uniform(0, 0.05))
        profile = make_profile()
        ptx_dl = float(rng.uniform(0.5, 2.0))
        deltas = np.linspace(0.05, 0.95, 10)[:, None]
        _, up, down = _budgets(deltas, ptx_dl=ptx_dl)
        energies = ledger(profile, model, up, down).e_harvest_j
        assert np.all(energies[1:] <= energies[:-1] + 1e-18)
