"""Interruption-recovery tests: failed sync leaders, mass-sync, rollbacks.

Covers Section IV-C "handling interruptions": a leader that withholds the
Sync call, and mainchain rollbacks that abandon confirmed syncs.  Both are
recovered by the next epoch's mass-sync, authenticated through the
hand-over certificate chain.
"""

import pytest

from repro.core.phases import check_pending_syncs
from repro.errors import RollbackError
from repro.mainchain.transactions import TxStatus
from tests.conftest import small_system, withheld_syncs


def test_failed_sync_recovered_by_mass_sync():
    system = small_system(fault_plan=withheld_syncs(1))
    metrics = system.run(num_epochs=3)
    # Epoch 1 produced no sync of its own, but epoch 2's mass-sync covers it.
    assert system.ledger.is_synced(0)
    assert system.ledger.is_synced(1)
    assert system.ledger.is_synced(2)
    assert system.token_bank.last_synced_epoch >= 2
    # One fewer sync transaction than epochs.
    sync_txs = [
        tx
        for block in system.mainchain.blocks
        for tx in block.transactions
        if tx.label == "sync"
    ]
    assert any(len(tx.args[0].summaries) == 2 for tx in sync_txs)


def test_mass_sync_payload_uses_handover_certificates():
    system = small_system(fault_plan=withheld_syncs(1))
    system.run(num_epochs=3)
    sync_txs = [
        tx
        for block in system.mainchain.blocks
        for tx in block.transactions
        if tx.label == "sync" and tx.status is TxStatus.CONFIRMED
    ]
    mass = [tx for tx in sync_txs if len(tx.args[0].summaries) > 1]
    assert mass, "expected a mass-sync"
    assert len(mass[0].args[0].handovers) == 1


def test_failed_sync_delays_payouts_not_loses_them():
    baseline = small_system().run(num_epochs=3)
    delayed = small_system(fault_plan=withheld_syncs(1)).run(num_epochs=3)
    # Same traffic processed, payouts all recorded, but later on average.
    assert delayed.payout_latency.count == pytest.approx(
        baseline.payout_latency.count, rel=0.05
    )
    assert delayed.payout_latency.mean > baseline.payout_latency.mean


def test_consecutive_failed_syncs():
    system = small_system(fault_plan=withheld_syncs(0, 1))
    system.run(num_epochs=4)
    for epoch in range(3):
        assert system.ledger.is_synced(epoch)
    # The recovery mass-sync needed a two-certificate hand-over chain.
    sync_txs = [
        tx
        for block in system.mainchain.blocks
        for tx in block.transactions
        if tx.label == "sync" and tx.status is TxStatus.CONFIRMED
    ]
    first = sync_txs[0]
    assert len(first.args[0].summaries) == 3
    assert len(first.args[0].handovers) == 2


def test_state_consistent_after_recovery():
    system = small_system(fault_plan=withheld_syncs(1))
    system.run(num_epochs=3)
    for user, balance in system.executor.deposits.items():
        assert system.token_bank.deposit_of(user) == (balance[0], balance[1])


def test_pruning_deferred_until_mass_sync():
    """Meta-blocks of the failed epoch must survive until recovery."""
    system = small_system(fault_plan=withheld_syncs(1))
    system.setup()
    system.run_epoch(0, inject=True)
    system.run_epoch(1, inject=True)  # sync withheld
    assert system.ledger.live_meta_blocks(1), "epoch 1 must not be pruned yet"
    system.run_epoch(2, inject=True)
    system.settle_syncs()
    assert system.ledger.live_meta_blocks(1) == []


def test_rollback_lost_sync_recovered():
    system = small_system()
    system.setup()
    system.run_epoch(0, inject=True)
    # Let the epoch-0 sync confirm, then abandon those blocks.
    system.settle_syncs()
    assert system.ledger.is_synced(0)
    sync_tx = next(
        tx
        for block in system.mainchain.blocks
        for tx in block.transactions
        if tx.label == "sync"
    )
    depth = system.mainchain.height - sync_tx.block_number
    affected = system.inject_mainchain_rollback(depth)
    assert affected == 1
    # TokenBank state rewound: the sync's effects are gone.
    assert system.token_bank.last_synced_epoch == -1
    # The next epoch's sync mass-covers epoch 0 again.
    system.run_epoch(1, inject=True)
    system.settle_syncs()
    assert system.token_bank.last_synced_epoch == 1
    for user, balance in system.executor.deposits.items():
        assert system.token_bank.deposit_of(user) == (balance[0], balance[1])


def test_rollback_without_syncs_is_noop():
    system = small_system()
    system.setup()
    affected = system.inject_mainchain_rollback(1)
    assert affected == 0


def test_recovered_run_still_conserves_tokens():
    system = small_system(fault_plan=withheld_syncs(1))
    system.run(num_epochs=3)
    held0 = system.token0.balance_of("tokenbank")
    deposits0 = sum(b[0] for b in system.token_bank.deposits.values())
    assert held0 == deposits0 + system.token_bank.pool_balance0


def _shallow_system(depth: int):
    """A deployment whose mainchain lets no fork reach deeper than ``depth``."""
    system = small_system()
    system.mainchain.config.max_rollback_depth = depth
    return system


def test_confirmed_sync_records_stay_inside_the_rollback_horizon():
    system = _shallow_system(4)
    metrics = system.run(num_epochs=10)
    final = system.mainchain.final_height
    assert final > 0
    kept = system._confirmed_syncs
    assert 0 < len(kept) < metrics.num_syncs
    assert all(p.tx.block_number >= final for p in kept)
    sync_blocks = [
        tx.block_number
        for block in system.mainchain.blocks
        for tx in block.transactions
        if tx.label == "sync"
    ]
    assert sorted(p.tx.block_number for p in kept) == [
        b for b in sync_blocks if b >= final
    ]


def test_rollback_of_the_full_depth_restores_the_retained_pre_state():
    depth = 4
    system = _shallow_system(depth)
    system.run(num_epochs=4)
    chain = system.mainchain
    latest = max(system._confirmed_syncs, key=lambda p: p.tx.block_number)
    # Mine until the latest sync's block is the oldest a fork may reach,
    # confirming at every block so retention runs at the boundary.
    while chain.height < latest.tx.block_number + depth:
        chain.produce_blocks_until(chain.next_block_time)
        check_pending_syncs(system)
    assert chain.final_height == latest.tx.block_number
    assert latest in system._confirmed_syncs
    pre_state = latest.pre_state
    assert system.inject_mainchain_rollback(depth) == 1
    bank = system.token_bank
    assert bank.last_synced_epoch == pre_state["last_synced_epoch"]
    assert bank.deposits == pre_state["deposits"]
    assert bank.synced_epochs == pre_state["synced_epochs"]
    # No fork reaches below the final height, however many come in a row.
    with pytest.raises(RollbackError):
        system.inject_mainchain_rollback(1)
    # The next epoch's mass-sync re-covers the lost epoch; nothing leaks.
    system.run_epoch(4, inject=True)
    system.settle_syncs()
    assert bank.last_synced_epoch == 4
    for user, balance in system.executor.deposits.items():
        assert bank.deposit_of(user) == (balance[0], balance[1])
    held0 = system.token0.balance_of("tokenbank")
    deposits0 = sum(b[0] for b in bank.deposits.values())
    assert held0 == deposits0 + bank.pool_balance0
