"""Unit tests for the recovery layer: bridge journal, pool migration,
scheduler healing.

End-to-end behaviour (conservation through forks, migrations under
faults, every worker kill point) lives in the sharding suites; these
tests pin the recovery components' own contracts — rewound-window
selection, handoff state machinery, respawn-or-raise — in isolation.
"""

import pytest

from repro.core.system import AmmBoostConfig
from repro.errors import PlacementError, ShardError, WorkerLostError
from repro.recovery import (
    BridgeJournal,
    DrainHottestShard,
    MigrationEngine,
    RollbackReport,
    ScheduledMigrations,
)
from repro.recovery.migration import (
    AssignmentUpdate,
    BeginPoolMigration,
    CompletePoolMigration,
)
from repro.sharding.escrow import TransferRecord
from repro.sharding.router import RETRYABLE_ABORTS, CrossShardRouter
from repro.sharding.scheduler import ShardScheduler
from repro.sharding.shard import ShardSpec


class _Entry:
    """Minimal registry-entry view for journal replay tests."""

    def __init__(self, transfer, settle=True, reason=""):
        self.transfer = transfer
        self.settle = settle
        self.reason = reason


def make_transfer(tid="x0-1-0", source=0, dest=1):
    return TransferRecord(
        transfer_id=tid,
        user="alice",
        source_shard=source,
        dest_shard=dest,
        dest_pool="pool-1",
        amount0=10,
        amount1=0,
        epoch=1,
    )


class TestBridgeJournal:
    def test_rewound_window_selection(self):
        """End-of-epoch locks rewind at >= restored; boundary writes
        (resolves, compensations) only at > restored."""
        journal = BridgeJournal()
        journal.record_lock(0, "x0-1-0", epoch=1)  # == restored -> rewound
        journal.record_lock(0, "x0-0-0", epoch=0)  # before -> safe
        journal.record_lock(0, "x0-1-9", epoch=1, at_boundary=True)  # safe
        journal.record_resolve(0, "x0-0-0", epoch=1, settle=False)  # safe
        journal.record_resolve(0, "x0-1-0", epoch=2, settle=True)  # rewound
        journal.record_credit(0, "x9-0-0", epoch=2)  # never compensated
        entries = {
            "x0-1-0": _Entry(make_transfer("x0-1-0"), settle=True),
            "x0-0-0": _Entry(make_transfer("x0-0-0"), settle=False),
            "x0-1-9": _Entry(make_transfer("x0-1-9")),
        }
        report = RollbackReport(shard=0, epoch=2, restored_epoch=1, syncs_lost=1)
        comps = journal.compensations_for(report, entries)
        assert [type(c).__name__ for c in comps] == [
            "RelockEscrow",
            "ResyncResolve",
        ]
        assert comps[0].transfer.transfer_id == "x0-1-0"
        assert comps[1].transfer_id == "x0-1-0" and comps[1].settle is True
        assert journal.counts() == {"rollbacks": 1, "relocks": 1, "resyncs": 1}

    def test_other_shards_entries_untouched(self):
        journal = BridgeJournal()
        journal.record_lock(0, "x0-2-0", epoch=2)
        journal.record_lock(1, "x1-2-0", epoch=2)
        report = RollbackReport(shard=1, epoch=2, restored_epoch=1, syncs_lost=1)
        comps = journal.compensations_for(
            report, {"x1-2-0": _Entry(make_transfer("x1-2-0", source=1))}
        )
        assert len(comps) == 1
        assert comps[0].transfer.transfer_id == "x1-2-0"

    def test_relocks_ordered_before_resyncs_in_fifo_order(self):
        """A same-inbox resync may need its relocked record, and ids
        apply in preparation (numeric), not lexicographic, order."""
        journal = BridgeJournal()
        for seq in (10, 2):
            journal.record_lock(0, f"x0-1-{seq}", epoch=1)
            journal.record_resolve(0, f"x0-1-{seq}", epoch=2, settle=False)
        entries = {
            f"x0-1-{seq}": _Entry(make_transfer(f"x0-1-{seq}"), settle=False)
            for seq in (10, 2)
        }
        report = RollbackReport(shard=0, epoch=2, restored_epoch=1, syncs_lost=1)
        comps = journal.compensations_for(report, entries)
        assert [type(c).__name__ for c in comps] == [
            "RelockEscrow",
            "RelockEscrow",
            "ResyncResolve",
            "ResyncResolve",
        ]
        assert comps[0].transfer.transfer_id == "x0-1-2"
        assert comps[2].transfer_id == "x0-1-2"


class TestMigrationEngine:
    def assignment(self):
        return {"pool-0": 0, "pool-1": 1, "pool-2": 0, "pool-3": 1}

    def engine(self, policy):
        return MigrationEngine(policy, self.assignment(), num_shards=2)

    def test_two_boundary_handoff(self):
        from repro.recovery.migration import PoolManifest

        engine = self.engine(ScheduledMigrations(moves=((1, "pool-0", 1),)))
        assert engine.directives_for(0, frozenset(), {}) == {}
        first = engine.directives_for(1, frozenset(), {})
        assert first == {0: [BeginPoolMigration("pool-0", 1)]}
        assert engine.migrating_pools == frozenset({"pool-0"})
        manifest = PoolManifest(
            pool_id="pool-0",
            from_shard=0,
            to_shard=1,
            sealed_epoch=1,
            volume_moved=100,
            book_digest="d",
        )

        class Record:
            manifests = [manifest]

        engine.collect({0: Record()})
        second = engine.directives_for(2, frozenset(), {})
        assert second[1] == [CompletePoolMigration(manifest)]
        assert second[0] == [AssignmentUpdate("pool-0", 1)]
        assert engine.assignment["pool-0"] == 1
        assert engine.idle()
        assert engine.counts()["migrations"] == 1

    def test_offline_shards_defer_every_leg(self):
        from repro.recovery.migration import PoolManifest

        engine = self.engine(ScheduledMigrations(moves=((1, "pool-0", 1),)))
        # Source offline: the begin waits.
        assert engine.directives_for(1, frozenset({0}), {}) == {}
        out = engine.directives_for(2, frozenset(), {})
        assert out == {0: [BeginPoolMigration("pool-0", 1)]}
        manifest = PoolManifest("pool-0", 0, 1, 2, 100, "d")

        class Record:
            manifests = [manifest]

        engine.collect({0: Record()})
        # Destination offline: the completion (and the flip) waits.
        assert engine.directives_for(3, frozenset({1}), {}) == {}
        assert engine.assignment["pool-0"] == 0
        done = engine.directives_for(4, frozenset(), {})
        assert done[1][0] == CompletePoolMigration(manifest)
        assert engine.assignment["pool-0"] == 1

    def test_unknown_pool_and_bad_destination_rejected(self):
        engine = self.engine(ScheduledMigrations(moves=((1, "pool-9", 1),)))
        with pytest.raises(PlacementError, match="pool-9"):
            engine.directives_for(1, frozenset(), {})
        engine = self.engine(ScheduledMigrations(moves=((1, "pool-0", 7),)))
        with pytest.raises(PlacementError, match="shard"):
            engine.directives_for(1, frozenset(), {})

    def test_drain_hottest_policy_picks_hot_to_cold(self):
        policy = DrainHottestShard(factor=2.0, min_queue=5)
        moves = policy.decide(1, {0: 20, 1: 4}, self.assignment())
        assert moves == (("pool-0", 1),)
        # Below min_queue or under the factor: no move.
        assert policy.decide(1, {0: 4, 1: 3}, self.assignment()) == ()
        assert policy.decide(1, {0: 10, 1: 9}, self.assignment()) == ()

    def test_max_moves_and_cooldown_enforced(self):
        policy = ScheduledMigrations(
            moves=((1, "pool-0", 1), (2, "pool-2", 1))
        )
        engine = MigrationEngine(policy, self.assignment(), num_shards=2)
        object.__setattr__(policy, "max_moves", 1)
        engine.directives_for(1, frozenset(), {})
        engine.directives_for(2, frozenset(), {})
        assert engine.migrating_pools == frozenset({"pool-0"})


def small_specs(num_shards=2):
    assignment = {f"pool-{i}": i for i in range(num_shards)}
    base = AmmBoostConfig(
        committee_size=8,
        miner_population=16,
        num_users=8,
        daily_volume=200_000,
        rounds_per_epoch=4,
        seed=5,
    )
    return [
        ShardSpec(
            index=i,
            num_shards=num_shards,
            chassis=base,
            pools=(f"pool-{i}",),
            assignment=dict(assignment),
            cross_shard_ratio=0.0,
            return_ratio=0.0,
        )
        for i in range(num_shards)
    ]


class TestSchedulerHealing:
    def test_transient_crash_heals_bit_identically(self, kill_worker):
        serial = ShardScheduler(small_specs(), jobs=1)
        for epoch in range(2):
            serial.run_epoch(epoch, True, {})
        expected = serial.finish()

        kill_worker(slot=1, message=1)
        healed = ShardScheduler(small_specs(), jobs=2)
        for epoch in range(2):
            healed.run_epoch(epoch, True, {})
        finals = healed.finish()
        assert {
            i: f.state_digest for i, f in finals.items()
        } == {i: f.state_digest for i, f in expected.items()}

    def test_persistent_crash_raises_when_degrade_disabled(self, kill_worker):
        """There is no degraded mode left to disable: past the respawn
        budget the scheduler always raises."""
        kill_worker(slot=1, message=0, persistent=True)
        scheduler = ShardScheduler(small_specs(), jobs=2)
        with pytest.raises(WorkerLostError, match="worker 1"):
            scheduler.run_epoch(0, True, {})
        assert WorkerLostError.concise is True

    def test_worker_exception_is_not_retried(self):
        scheduler = ShardScheduler(small_specs(), jobs=2)
        try:
            with pytest.raises(ShardError, match="worker failed"):
                # An unknown message type raises inside the worker; a
                # deterministic error must fail fast, not respawn.
                scheduler._post(0, ("bogus",))
                scheduler._collect(0)
        finally:
            scheduler.close()


class TestRouterAbortCodes:
    def test_classification_codes(self):
        router = CrossShardRouter({"pool-0": 0, "pool-1": 1}, num_shards=2)
        t = make_transfer()
        assert router.classify(t, frozenset()) == (True, "", "")
        _, _, code = router.classify(t, frozenset({1}))
        assert code == "dest_partitioned"
        _, _, code = router.classify(
            t, frozenset(), migrating=frozenset({"pool-1"})
        )
        assert code == "pool_migrating"
        stale = make_transfer(dest=0)  # pool-1 lives on shard 1
        _, _, code = router.classify(stale, frozenset())
        assert code == "stale_route"
        lost = make_transfer(dest=9)
        _, _, code = router.classify(lost, frozenset())
        assert code == "unknown_shard"

    def test_retryable_set(self):
        assert RETRYABLE_ABORTS == {
            "dest_partitioned",
            "pool_migrating",
            "stale_route",
        }
