"""Integration tests for the full ammBoost system."""

import pytest

from repro import constants
from repro.core.phases import EpochPhase, default_epoch_phases
from repro.core.system import AmmBoostConfig, AmmBoostSystem
from repro.core.transactions import MintTx
from repro.errors import ConfigurationError
from repro.workload.distribution import TrafficDistribution
from tests.conftest import EndlessBacklog, small_system


@pytest.fixture(scope="module")
def ran_system():
    """One shared 3-epoch run (read-only assertions only)."""
    system = small_system()
    metrics = system.run(num_epochs=3)
    return system, metrics


def test_setup_deploys_contracts(system):
    system.setup()
    assert "tokenbank" in system.mainchain.contracts
    assert system.token_bank.pool_created
    assert system.token_bank.vkc is not None


def test_setup_runs_once(system):
    system.setup()
    with pytest.raises(ConfigurationError):
        system.setup()


def test_users_deposit_during_setup(system):
    system.setup()
    for user in system.population.addresses:
        deposit = system.token_bank.deposit_of(user)
        assert deposit[0] > 0 and deposit[1] > 0


def test_run_processes_traffic(ran_system):
    _, metrics = ran_system
    assert metrics.processed_txs > 50
    assert metrics.throughput > 0


def test_every_epoch_synced_and_pruned(ran_system):
    system, metrics = ran_system
    assert metrics.num_syncs >= 3
    for epoch in range(3):
        assert system.ledger.is_synced(epoch)
        assert system.ledger.live_meta_blocks(epoch) == []
    assert system.ledger.growth.pruned_bytes > 0


def test_summary_blocks_permanent(ran_system):
    system, _ = ran_system
    for epoch in range(3):
        assert epoch in system.ledger.summary_blocks


def test_tokenbank_state_matches_executor(ran_system):
    """After the final sync, TokenBank deposits equal sidechain balances."""
    system, _ = ran_system
    for user, balance in system.executor.deposits.items():
        assert system.token_bank.deposit_of(user) == (balance[0], balance[1]), user


def test_tokenbank_positions_match_executor(ran_system):
    system, _ = ran_system
    bank_positions = system.token_bank.positions
    exec_positions = system.executor.positions
    assert set(bank_positions) == set(exec_positions)
    for position_id, record in exec_positions.items():
        assert bank_positions[position_id].liquidity == record.liquidity


def test_pool_balances_synced(ran_system):
    system, _ = ran_system
    assert system.token_bank.pool_balance0 == system.pool.balance0
    assert system.token_bank.pool_balance1 == system.pool.balance1


def test_token_conservation_end_to_end(ran_system):
    """ERC20 tokens held by TokenBank = synced deposits + pool reserves."""
    system, _ = ran_system
    held0 = system.token0.balance_of("tokenbank")
    held1 = system.token1.balance_of("tokenbank")
    deposits0 = sum(b[0] for b in system.token_bank.deposits.values())
    deposits1 = sum(b[1] for b in system.token_bank.deposits.values())
    assert held0 == deposits0 + system.token_bank.pool_balance0
    assert held1 == deposits1 + system.token_bank.pool_balance1


def test_latencies_recorded(ran_system):
    _, metrics = ran_system
    assert metrics.sidechain_latency.count > 0
    assert metrics.payout_latency.count > 0
    # Payout latency always exceeds sidechain latency (epoch + sync wait).
    assert metrics.payout_latency.mean > metrics.sidechain_latency.mean


def test_sidechain_latency_about_one_round(ran_system):
    """Uncongested: txs injected at round start are mined at round end."""
    system, metrics = ran_system
    round_duration = system.config.round_duration
    assert round_duration * 0.9 <= metrics.sidechain_latency.mean <= round_duration * 3


def test_gas_itemisation_covers_expected_labels(ran_system):
    _, metrics = ran_system
    for label in ("deposit", "payout", "auth-verify", "position-storage"):
        assert metrics.gas_by_label.get(label, 0) > 0, label


def test_mainchain_growth_small(ran_system):
    """Only deposits + syncs land on the mainchain."""
    _, metrics = ran_system
    assert 0 < metrics.mainchain_growth_bytes < 200_000


def test_pruning_bounds_live_sidechain(ran_system):
    system, _ = ran_system
    assert system.ledger.current_bytes < system.ledger.growth.total_bytes_appended / 2


def test_deterministic_given_seed():
    a = small_system(seed=123).run(num_epochs=2)
    b = small_system(seed=123).run(num_epochs=2)
    assert a.processed_txs == b.processed_txs
    assert a.total_gas == b.total_gas
    assert a.sidechain_latency.mean == b.sidechain_latency.mean


def test_different_seeds_differ():
    a = small_system(seed=1).run(num_epochs=2)
    b = small_system(seed=2).run(num_epochs=2)
    assert a.total_gas != b.total_gas or a.processed_txs != b.processed_txs


def test_throughput_capacity_bound():
    """Congested: throughput approaches capacity x (omega-1)/omega."""
    system = small_system(
        daily_volume=3_000_000, meta_block_size=15_000, rounds_per_epoch=6
    )
    metrics = system.run(num_epochs=2)
    capacity_per_round = 15_000 / system.generator.distribution.mean_tx_size
    bound = capacity_per_round * (5 / 6) / system.config.round_duration
    assert metrics.throughput <= bound * 1.1
    assert metrics.throughput >= bound * 0.5


# -- deployments own their transaction ids ---------------------------------------


class RecordBlocks(EpochPhase):
    """Keeps every meta-block's ``tx_root`` and transaction ids before
    pruning drops the blocks."""

    def __init__(self) -> None:
        self.blocks: dict[int, list[tuple[bytes, list[int]]]] = {}

    def run(self, system, ctx) -> None:
        self.blocks[ctx.epoch] = [
            (block.tx_root, [tx.tx_id for tx in block.transactions])
            for block in system.ledger.meta_blocks.get(ctx.epoch, [])
        ]


def churn_system() -> tuple[AmmBoostSystem, RecordBlocks]:
    """A 20/40/20/20 deployment: position churn is what makes ids matter
    (position ids hash the minting transaction's id)."""
    recorder = RecordBlocks()
    phases = list(default_epoch_phases())
    phases.insert(4, recorder)  # right after RoundExecutionPhase
    system = AmmBoostSystem(
        AmmBoostConfig(
            committee_size=8, miner_population=16, num_users=10,
            daily_volume=200_000, rounds_per_epoch=6, seed=5,
        ),
        TrafficDistribution.from_percentages(20, 40, 20, 20),
        epoch_phases=phases,
    )
    return system, recorder


def end_state(system: AmmBoostSystem, recorder: RecordBlocks) -> tuple:
    return (
        system.pool.snapshot(),
        system.executor.positions,
        {epoch: [root for root, _ in blocks] for epoch, blocks in recorder.blocks.items()},
        system.metrics.summary(),
    )


def test_back_to_back_deployments_end_identical():
    """Two same-config deployments built one after the other in one
    process end in the same state: the second does not inherit ids."""
    states = []
    for _ in range(2):
        system, recorder = churn_system()
        for _ in range(3):
            system.run(num_epochs=1)
        states.append(end_state(system, recorder))
    assert states[0] == states[1]


def test_interleaved_deployments_end_identical():
    """Two same-config deployments stepped epoch by epoch, alternately,
    end in the same state as each other and as one run alone."""
    (a, rec_a), (b, rec_b) = churn_system(), churn_system()
    for _ in range(3):
        a.run(num_epochs=1)
        b.run(num_epochs=1)
    alone, rec_alone = churn_system()
    for _ in range(3):
        alone.run(num_epochs=1)
    assert end_state(a, rec_a) == end_state(b, rec_b) == end_state(alone, rec_alone)


def test_hand_built_mint_never_shares_a_deployment_id():
    """A hand-built transaction pushed into a live deployment takes an id
    from outside every deployment's space."""
    system, recorder = churn_system()
    system.run(num_epochs=1)
    lp = system.population.addresses[0]
    mint = MintTx(
        user=lp, tick_lower=-600, tick_upper=600,
        amount0_desired=10**18, amount1_desired=10**18,
    )
    system.queue.append(mint)
    system.run(num_epochs=1)
    assert mint.accepted, mint.reject_reason
    included = [
        tx_id for blocks in recorder.blocks.values() for _, ids in blocks for tx_id in ids
    ]
    assert mint.tx_id < 0 and mint.tx_id in included
    assert len(set(included)) == len(included)


def test_config_validation():
    with pytest.raises(ConfigurationError):
        AmmBoostConfig(rounds_per_epoch=1)
    with pytest.raises(ConfigurationError):
        AmmBoostConfig(round_duration=0)
    with pytest.raises(ConfigurationError):
        AmmBoostConfig(meta_block_size=100)
    with pytest.raises(ConfigurationError):
        AmmBoostConfig(committee_size=100, miner_population=50)


def test_mid_run_deposit_credited():
    """A deposit confirmed mid-run reaches the executor next epoch."""
    system = small_system()
    system.setup()
    newcomer = "late-user"
    system.token0.balances[newcomer] = 10**24
    system.token1.balances[newcomer] = 10**24
    system._submit_deposit(newcomer, 10**20, 10**20)
    system.run(num_epochs=3)
    assert system.executor.deposits.get(newcomer) == [10**20, 10**20]


def test_flash_loan_on_mainchain_during_run():
    """Flashes stay on the mainchain and settle within one block."""
    system = small_system()
    system.run(num_epochs=2)
    bank = system.token_bank
    assert bank.pool_balance0 > 0
    loan = bank.pool_balance0 // 2
    tx = system.mainchain.submit_call(
        "arber", "tokenbank", "flash", loan, 0,
        lambda f0, f1: (loan + f0, 0), label="flash",
    )
    system.mainchain.produce_blocks_until(
        system.clock.now + 2 * system.mainchain.config.block_interval
    )
    assert system.mainchain.is_confirmed(tx)
    assert tx.result[0] > 0  # fee earned by the pool


def test_resumed_run_reports_the_chains_gas():
    """A second ``run`` folds gas from zero, not on top of the first fold."""
    system = small_system(num_users=16, seed=1)
    system.run(num_epochs=1)
    metrics = system.run(num_epochs=1)
    chain_gas = sum(
        amount
        for block in system.mainchain.blocks
        for tx in block.transactions
        for amount in tx.gas_breakdown.values()
    )
    assert metrics.total_gas == chain_gas
    assert sum(metrics.gas_by_label.values()) == chain_gas
    straight = small_system(num_users=16, seed=1).run(num_epochs=2)
    assert metrics.total_gas == straight.total_gas


def test_run_fails_when_the_drain_never_ends(monkeypatch):
    monkeypatch.setattr(constants, "MAX_DRAIN_EPOCHS", 2)
    system = small_system()
    system.epoch_phases += (EndlessBacklog(),)
    with pytest.raises(ConfigurationError, match="drain did not complete"):
        system.run(num_epochs=1)
    assert system._next_epoch == 1 + 2
