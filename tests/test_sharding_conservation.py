"""Property suite: cross-shard token conservation under generated runs.

The invariant (the sharded generalisation of the paper's conservation
property): **total token supply across all shard deployments — working
deposits + pool reserves + pending bridge credits + value in escrow — is
constant** under any interleaving of swaps, mints/burns, cross-shard
transfers (settled or aborted), round-trip legs, and single-shard fault
plans.  ``ShardedSystem.run`` checks the invariant at every epoch
boundary and raises ``EscrowError`` on violation, so each generated case
doubles as ~8 boundary checks; the suite also asserts the end state is
fully resolved — nothing prepared, every abort refunded, every bank
escrow record terminal.

Cases are derived deterministically from their index (the fault-suite
convention), so a failing case index pinpoints its configuration.
Cases 0–23 are the original (pre-recovery) grid and must stay
byte-identical; cases 24–59 exercise the recovery layer — every
combination of per-shard mainchain ``Rollback`` forks and offline
windows, interleaved with the cross-shard traffic of the original grid.
"""

import pytest

from repro.core.system import AmmBoostConfig
from repro.faults import (
    FaultPlan,
    Rollback,
    ShardFault,
    SyncWithhold,
    ViewChangeBurst,
)
from repro.sharding import ShardedConfig, ShardedSystem
from repro.sharding.escrow import SETTLED

NUM_CASES = 60


def case_config(case: int) -> ShardedConfig:
    """Deterministically vary every protocol knob with the case index."""
    if case >= 24:
        return recovery_case_config(case - 24)
    num_shards = (2, 3, 4)[case % 3]
    num_pools = num_shards * (1 + case % 2)
    ratio = (0.0, 0.15, 0.4, 0.8)[case % 4]
    return_ratio = (0.0, 0.5, 1.0)[case % 3]
    base = AmmBoostConfig(
        committee_size=8,
        miner_population=16,
        num_users=8,
        daily_volume=250_000 + 50_000 * (case % 5),
        rounds_per_epoch=4 + case % 3,
        seed=1000 + case,
    )
    faults: tuple[ShardFault, ...] = ()
    if case % 4 == 1:
        faults = (
            ShardFault(
                shard=case % num_shards,
                offline_epochs=frozenset({1 + case % 2}),
            ),
        )
    elif case % 4 == 2:
        faults = (
            ShardFault(
                shard=case % num_shards,
                plan=FaultPlan(
                    (
                        SyncWithhold(epoch=1),
                        ViewChangeBurst(epoch=2, round_index=0, views=1),
                    )
                ),
            ),
        )
    elif case % 4 == 3:
        faults = (
            ShardFault(
                shard=case % num_shards,
                offline_epochs=frozenset({2}),
                plan=FaultPlan((SyncWithhold(epoch=0),)),
            ),
        )
    return ShardedConfig(
        num_shards=num_shards,
        num_pools=num_pools,
        base=base,
        cross_shard_ratio=ratio,
        return_ratio=return_ratio,
        shard_faults=faults,
    )


def recovery_case_config(i: int) -> ShardedConfig:
    """Cases 24–59: rollback × offline interleavings.

    Bit 0 of ``i`` switches rollback forks on, bit 2 offline windows (so
    all four combinations occur), and the high bits vary traffic shape
    and event timing.  Bit 1 switches nothing: cases that differ only
    there still run distinct trajectories, because every case seeds its
    chassis with ``2000 + i``.
    """
    rollback_on = bool(i & 1)
    offline_on = bool(i & 4)
    variant = i >> 3  # 0..4 over the 36-case grid
    num_shards = (2, 3)[i % 2]
    num_pools = num_shards * 2
    base = AmmBoostConfig(
        committee_size=8,
        miner_population=16,
        num_users=8,
        daily_volume=250_000 + 40_000 * (variant % 3),
        rounds_per_epoch=4 + variant % 2,
        seed=2000 + i,
    )
    faults: list[ShardFault] = []
    if rollback_on:
        faults.append(
            ShardFault(
                shard=0,
                plan=FaultPlan(
                    (
                        Rollback(
                            epoch=1 + variant % 2, depth=2 + variant % 3
                        ),
                    )
                ),
            )
        )
    if offline_on:
        faults.append(
            ShardFault(
                shard=num_shards - 1,
                offline_epochs=frozenset({1 + variant % 2}),
            )
        )
    return ShardedConfig(
        num_shards=num_shards,
        num_pools=num_pools,
        base=base,
        cross_shard_ratio=(0.15, 0.4, 0.7)[i % 3],
        return_ratio=(0.0, 0.5)[i % 2],
        shard_faults=tuple(faults),
    )


@pytest.mark.parametrize("case", range(NUM_CASES))
def test_supply_invariant_and_full_resolution(case):
    system = ShardedSystem(case_config(case))
    # run() asserts the supply invariant at every epoch boundary and
    # raises EscrowError if any interleaving (settle, abort, round trip,
    # offline shard) creates or destroys tokens.
    report = system.run(num_epochs=3)
    assert report.conservation_ok

    # End state fully resolved: no value in flight anywhere.
    assert report.transfers["prepared"] == 0
    assert system.registry.in_flight_value() == (0, 0)
    assert not system.registry.has_pending()

    # Every shard's ledger and mainchain escrow agree and are terminal.
    for index in range(report.num_shards):
        shard = system.scheduler.shard(index)
        counts = shard.ledger.counts()
        assert counts["prepared"] == 0
        bank = shard.system.token_bank
        assert bank.escrow_balance() == (0, 0)
        for row, status, _ in shard.ledger.records.values():
            if row[2] != index:
                continue
            bank_status = bank.escrows[row[0]][4]
            if status == SETTLED:
                assert bank_status == "settled"
            else:
                assert bank_status == "refunded"


@pytest.mark.parametrize("case", [1, 5, 9])
def test_aborted_transfers_are_refunded_to_sender(case):
    """For offline-shard cases: every abort's value returns to its user."""
    system = ShardedSystem(case_config(case))
    system.run(num_epochs=3)
    assert not system.registry.entries
    aborted = [
        transfer
        for transfer, settle, _, _ in system.registry.completed.values()
        if not settle
    ]
    for transfer in aborted:
        shard = system.scheduler.shard(transfer[2])
        escrow = shard.system.token_bank.escrows[transfer[0]]
        _, _, _, _, status, abort_reason = escrow
        assert status == "refunded"
        assert abort_reason
