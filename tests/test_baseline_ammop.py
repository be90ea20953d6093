"""Tests for the Optimism-inspired rollup comparator."""

import pytest

from repro import constants
from repro.errors import ConfigurationError
from repro.baselines.ammop import AmmOpConfig, AmmOpRollup


def run_rollup(daily_volume=1_000_000, batch_size=72_000, epochs=3, **over):
    config = AmmOpConfig(
        daily_volume=daily_volume, batch_size_bytes=batch_size, **over
    )
    rollup = AmmOpRollup(config)
    return rollup, rollup.run(num_epochs=epochs)


def test_throughput_capped_by_batch_capacity():
    rollup, metrics = run_rollup()
    capacity_tps = 72_000 / 1000 / constants.AMMOP_BATCH_INTERVAL_S
    assert metrics.throughput <= capacity_tps * 1.05
    assert metrics.throughput >= capacity_tps * 0.8  # congested: at cap


def test_uncongested_rollup_matches_arrival():
    _, metrics = run_rollup(daily_volume=50_000, batch_size=1_800_000)
    arrival_tps = 50_000 / 86_400
    assert metrics.throughput == pytest.approx(arrival_tps, rel=0.5)


def test_payout_latency_dominated_by_contestation():
    _, metrics = run_rollup(daily_volume=50_000, batch_size=1_800_000)
    week = constants.AMMOP_CONTESTATION_S
    assert metrics.payout_latency.mean > week
    assert metrics.payout_latency.mean < week + 1000


def test_tx_latency_grows_under_congestion():
    _, uncongested = run_rollup(daily_volume=50_000, batch_size=1_800_000)
    _, congested = run_rollup(daily_volume=2_000_000, batch_size=72_000)
    assert congested.sidechain_latency.mean > 5 * uncongested.sidechain_latency.mean


def test_rollup_stores_batches_on_mainchain():
    """Optimistic rollups do not prune: all batch bytes hit the mainchain."""
    rollup, metrics = run_rollup(daily_volume=100_000, batch_size=1_800_000)
    assert metrics.mainchain_growth_bytes > 0
    # Growth ~ total traffic bytes (every tx is in some batch).
    assert metrics.mainchain_growth_bytes == pytest.approx(
        metrics.processed_txs * 1000, rel=0.1
    )


def test_all_transactions_eventually_processed():
    rollup, metrics = run_rollup()
    generated = sum(rollup.generator.generated_counts.values())
    assert metrics.processed_txs == generated


def test_drain_past_the_cap_raises(monkeypatch):
    """A backlog the cap cannot clear raises the typed error."""
    monkeypatch.setattr(constants, "MAX_DRAIN_EPOCHS", 1)
    with pytest.raises(ConfigurationError, match="rollup drain did not complete"):
        run_rollup()
