"""Shard-targeted faults: partitioned committees, per-shard fault plans."""

import pytest

from repro.core.system import AmmBoostConfig
from repro.errors import ConfigurationError
from repro.faults import Crash, FaultPlan, ShardFault, ShardFaultBook, SyncWithhold
from repro.sharding import ShardedConfig, ShardedSystem
from repro.sharding.escrow import transfer_row


def small_base(seed: int = 0) -> AmmBoostConfig:
    return AmmBoostConfig(
        committee_size=8,
        miner_population=16,
        num_users=10,
        daily_volume=400_000,
        rounds_per_epoch=6,
        seed=seed,
    )


def run_with_faults(faults, num_shards=3, num_pools=6, epochs=4, ratio=0.3):
    config = ShardedConfig(
        num_shards=num_shards,
        num_pools=num_pools,
        base=small_base(),
        cross_shard_ratio=ratio,
        shard_faults=tuple(faults),
    )
    system = ShardedSystem(config)
    return system, system.run(num_epochs=epochs)


class TestOfflineShard:
    def test_others_keep_finalizing(self):
        _, report = run_with_faults(
            [ShardFault(shard=1, offline_epochs=frozenset({1, 2}))]
        )
        for index in (0, 2):
            final = report.per_shard[index]
            assert final.epochs_synced == final.epochs_run
        # The partitioned shard skipped two epochs but finalized the rest.
        assert report.per_shard[1].epochs_run == report.epochs_run - 2
        assert (
            report.per_shard[1].epochs_synced
            == report.per_shard[1].epochs_run
        )

    def test_transfers_to_it_abort_with_refunds(self):
        system, report = run_with_faults(
            [ShardFault(shard=1, offline_epochs=frozenset({1, 2}))]
        )
        assert report.transfers["aborted"] > 0
        # Every abort is a refund at its source, typed with the reason.
        assert not system.registry.entries
        aborted = [
            (transfer, reason)
            for transfer, settle, reason, _ in system.registry.completed.values()
            if not settle
        ]
        assert aborted
        assert all(transfer[3] == 1 for transfer, _ in aborted)
        reasons = {reason for _, reason in aborted}
        assert any("partitioned" in reason for reason in reasons)

    def test_conservation_holds_under_aborts(self):
        # run() raises EscrowError on any conservation violation.
        _, report = run_with_faults(
            [ShardFault(shard=2, offline_epochs=frozenset({1}))]
        )
        assert report.conservation_ok

    def test_heals_and_settles_afterwards(self):
        system, report = run_with_faults(
            [ShardFault(shard=1, offline_epochs=frozenset({1}))], epochs=5
        )
        # After healing the shard participates again: some transfers to
        # it settled in later epochs.
        assert not system.registry.entries
        settled_to_1 = [
            transfer
            for transfer, settle, _, _ in system.registry.completed.values()
            if settle and transfer[3] == 1
        ]
        assert settled_to_1


class TestPerShardFaultPlan:
    def test_sync_withhold_recovers_via_mass_sync(self):
        _, report = run_with_faults(
            [ShardFault(shard=0, plan=FaultPlan((SyncWithhold(epoch=1),)))],
            num_shards=2,
            num_pools=4,
        )
        final = report.per_shard[0]
        assert final.fault_log_len == 1
        assert final.epochs_synced == final.epochs_run
        # The unfaulted shard is untouched.
        assert report.per_shard[1].fault_log_len == 0

    def test_message_layer_plan_rejected(self):
        with pytest.raises(ConfigurationError, match="message-layer"):
            ShardFault(shard=0, plan=FaultPlan((Crash(start=0.0, node="m0"),)))

    def test_rollback_plan_runs_with_bridge_compensation(self):
        """Per-shard forks are supported now: the coordinator's bridge
        journal replays the rewound window and issues compensating
        entries, so the run completes with conservation intact (run()
        raises EscrowError at the first violated boundary)."""
        from repro.faults import Rollback

        system, report = run_with_faults(
            [ShardFault(shard=0, plan=FaultPlan((Rollback(epoch=2, depth=2),)))]
        )
        assert report.conservation_ok
        assert report.per_shard[0].fault_log_len == 1
        assert report.recovery["rollbacks"] == 1
        # The fork rewound at least one bridge write that needed repair.
        assert report.recovery["relocks"] + report.recovery["resyncs"] > 0
        # The unfaulted shards are untouched.
        assert report.per_shard[1].fault_log_len == 0


class TestShardFaultBook:
    def test_duplicate_shard_rejected(self):
        with pytest.raises(ConfigurationError, match="multiple"):
            ShardFaultBook((ShardFault(shard=0), ShardFault(shard=0)))

    def test_out_of_range_shard_rejected(self):
        book = ShardFaultBook((ShardFault(shard=5),))
        with pytest.raises(ConfigurationError, match="5"):
            book.validate(num_shards=2)

    def test_offline_queries(self):
        book = ShardFaultBook(
            (ShardFault(shard=1, offline_epochs=frozenset({2})),)
        )
        assert book.offline(1, 2)
        assert not book.offline(1, 3)
        assert book.any_offline(2) == frozenset({1})
        assert book.offline_epochs_for(0) == frozenset()


class TestMisroutedTransferAborts:
    def test_unknown_destination_shard_refunds(self):
        """A transfer aimed at a nonexistent shard aborts cleanly."""
        config = ShardedConfig(
            num_shards=2, num_pools=4, base=small_base(), cross_shard_ratio=0.0
        )
        system = ShardedSystem(config)
        scheduler = system.scheduler
        records = scheduler.run_epoch(0, True, {})
        system.registry.add_prepares(
            record for r in records.values() for record in r.prepares
        )
        shard0 = scheduler.shard(0)
        rogue = transfer_row(
            transfer_id="x0-0-999", user="ghost", source_shard=0,
            dest_shard=9, dest_pool="pool-1", amount0=5, amount1=0, epoch=0,
        )
        shard0.ledger.prepare(rogue)
        shard0.system.token_bank.escrow_lock("x0-0-999", "ghost", 5, 0)
        system.registry.add_prepares([rogue])
        instructions = system.registry.instructions_for(frozenset())
        resolve = [
            i for i in instructions.get(0, [])
            if i[0] == "resolve" and i[1] == "x0-0-999"
        ]
        assert resolve
        _, _, settle, reason, code = resolve[0]
        assert settle is False
        assert "unknown destination" in reason
        assert code == "unknown_shard"
        scheduler.run_epoch(1, False, instructions)
        assert shard0.ledger.records["x0-0-999"][1] == "aborted"
        assert shard0.system.token_bank.escrows["x0-0-999"][4] == "refunded"
