"""Tests for the Uniswap L1 baseline."""

import pytest

from repro import constants
from repro.errors import ConfigurationError
from repro.baselines.uniswap_l1 import UniswapL1Baseline, UniswapL1Config


@pytest.fixture(scope="module")
def ran_baseline():
    baseline = UniswapL1Baseline(
        UniswapL1Config(daily_volume=200_000, num_users=10, seed=7,
                        rounds_per_epoch=6)
    )
    metrics = baseline.run(num_epochs=2)
    return baseline, metrics


def test_processes_traffic(ran_baseline):
    _, metrics = ran_baseline
    assert metrics.processed_txs > 50


def test_all_ops_pay_measured_gas(ran_baseline):
    baseline, metrics = ran_baseline
    swaps = metrics.gas_by_label.get("swap", 0)
    n_swaps = sum(
        1
        for block in baseline.mainchain.blocks
        for tx in block.transactions
        if tx.label == "swap" and not tx.revert_reason
    )
    assert swaps == pytest.approx(n_swaps * constants.GAS_UNISWAP_SWAP, rel=0.01)


def test_average_gas_dominated_by_swaps(ran_baseline):
    _, metrics = ran_baseline
    avg_gas = metrics.total_gas / metrics.processed_txs
    # Mostly swaps (~160K) with a mint share pulling the mean up a bit.
    assert 150_000 < avg_gas < 230_000


def test_chain_growth_uses_sepolia_sizes(ran_baseline):
    baseline, metrics = ran_baseline
    expected = 0
    for block in baseline.mainchain.blocks:
        for tx in block.transactions:
            expected += tx.size_bytes
    assert metrics.mainchain_growth_bytes == expected
    avg = metrics.mainchain_growth_bytes / max(1, metrics.processed_txs)
    # Weighted Sepolia mean ~ 363 B.
    assert 300 < avg < 450


def test_l1_payout_equals_confirmation(ran_baseline):
    _, metrics = ran_baseline
    assert metrics.payout_latency.mean == metrics.mainchain_latency.mean


def test_positions_lifecycle_on_l1(ran_baseline):
    baseline, _ = ran_baseline
    # Mints created NFT positions; some burns may have removed them.
    assert baseline.nfpm._next_token_id > 1


def test_ethereum_size_profile():
    config = UniswapL1Config(size_profile="ethereum")
    assert config.sizes["swap"] == constants.SIZE_UNISWAP_ETHEREUM["swap"]


def test_pool_state_evolves(ran_baseline):
    baseline, _ = ran_baseline
    assert baseline.pool.balance0 > 0
    assert baseline.pool.fee_growth_global0_x128 > 0


def test_drain_past_the_cap_raises(monkeypatch):
    """A backlog the cap cannot clear fails loudly, not with partial metrics."""
    monkeypatch.setattr(constants, "MAX_DRAIN_EPOCHS", 1)
    baseline = UniswapL1Baseline(
        UniswapL1Config(daily_volume=2_000_000, num_users=10, seed=7,
                        rounds_per_epoch=2)
    )
    with pytest.raises(ConfigurationError, match="L1 drain did not complete"):
        baseline.run(num_epochs=1)
