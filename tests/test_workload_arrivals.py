"""Arrival-process tests: determinism, mean conservation, system wiring."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.simulation.rng import DeterministicRng
from repro.workload.arrivals import BurstyArrivals, ConstantArrivals, DiurnalArrivals
from tests.conftest import small_system


def test_constant_is_identity():
    process = ConstantArrivals()
    assert [process.rate_for_round(41, i, i * 7.0) for i in range(5)] == [41] * 5


def test_bursty_deterministic_and_seed_sensitive():
    a = BurstyArrivals(seed=1)
    b = BurstyArrivals(seed=1)
    c = BurstyArrivals(seed=2)
    rates_a = [a.rate_for_round(100, i, 0.0) for i in range(200)]
    rates_b = [b.rate_for_round(100, i, 0.0) for i in range(200)]
    rates_c = [c.rate_for_round(100, i, 0.0) for i in range(200)]
    assert rates_a == rates_b
    assert rates_a != rates_c


def test_bursty_conserves_mean_rate():
    process = BurstyArrivals(burst_factor=4.0, burst_fraction=0.2, seed=3)
    rates = [process.rate_for_round(100, i, 0.0) for i in range(4000)]
    assert sum(rates) / len(rates) == pytest.approx(100, rel=0.05)
    assert max(rates) == 400
    assert min(rates) < 100


def test_burst_coin_matches_a_fresh_rng_in_any_call_order():
    rounds = range(10_000)
    processes = [
        BurstyArrivals(burst_fraction=0.2, seed=seed) for seed in (0, "3/client/17", 11)
    ]
    # The coin's definition: the first draw of a fresh per-round RNG.
    want = {
        (p.seed, r): DeterministicRng(f"{p.seed}/burst/{r}").random() < p.burst_fraction
        for p in processes
        for r in rounds
    }
    assert 0 < sum(want.values()) < len(want)
    orders = {
        "ascending": list(rounds),
        "reverse": list(reversed(rounds)),
        "repeated": [r for r in rounds for _ in range(2)],
    }
    for order in orders.values():
        # The processes take turns, so no coin follows its own previous one.
        got = [(p.seed, r, p.is_burst_round(r)) for r in order for p in processes]
        assert all(coin == want[seed, r] for seed, r, coin in got)


def test_bursty_validation():
    with pytest.raises(ConfigurationError):
        BurstyArrivals(burst_factor=0.5)
    with pytest.raises(ConfigurationError):
        BurstyArrivals(burst_fraction=1.5)


def test_diurnal_peaks_and_troughs():
    process = DiurnalArrivals(amplitude=1.0, period=86_400.0)
    peak = process.rate_for_round(100, 0, 86_400.0 / 4)
    trough = process.rate_for_round(100, 0, 3 * 86_400.0 / 4)
    assert peak == 200
    assert trough == 0


def test_diurnal_conserves_volume_over_a_period():
    process = DiurnalArrivals(amplitude=0.7, period=420.0)
    rates = [process.rate_for_round(100, i, i * 7.0) for i in range(60)]
    assert sum(rates) / len(rates) == pytest.approx(100, rel=0.02)


def test_diurnal_validation():
    with pytest.raises(ConfigurationError):
        DiurnalArrivals(amplitude=1.5)
    with pytest.raises(ConfigurationError):
        DiurnalArrivals(period=0)


def test_zero_base_rate_stays_zero():
    for process in (ConstantArrivals(), BurstyArrivals(seed=1), DiurnalArrivals()):
        assert process.rate_for_round(0, 3, 100.0) == 0


# -- system integration --------------------------------------------------------


def test_default_system_uses_constant_arrivals():
    system = small_system()
    assert isinstance(system.arrivals, ConstantArrivals)


def test_constant_arrivals_is_byte_identical_to_default():
    default = small_system(seed=9).run(num_epochs=2)
    explicit_system = small_system(seed=9)
    explicit_system.arrivals = ConstantArrivals()
    explicit = explicit_system.run(num_epochs=2)
    assert default.processed_txs == explicit.processed_txs
    assert default.total_gas == explicit.total_gas
    assert default.sidechain_latency.mean == explicit.sidechain_latency.mean


def test_bursty_system_run_deepens_queue():
    """Uncongested, the peak queue tracks the per-round arrival spike."""
    constant = small_system(seed=5, daily_volume=1_000_000)
    constant_metrics = constant.run(num_epochs=2)

    bursty = small_system(seed=5, daily_volume=1_000_000)
    bursty.arrivals = BurstyArrivals(burst_factor=5.0, burst_fraction=0.2, seed=5)
    bursty_metrics = bursty.run(num_epochs=2)

    assert bursty_metrics.peak_queue_depth > 2 * constant_metrics.peak_queue_depth
    assert bursty_metrics.processed_txs > 0


def test_peak_queue_depth_recorded():
    metrics = small_system().run(num_epochs=2)
    assert metrics.peak_queue_depth > 0
