"""Unit tests for the recovery layer: bridge journal, scheduler healing.

End-to-end behaviour (conservation through forks under faults, every
worker kill point) lives in the sharding suites; these tests pin the
recovery components' own contracts — rewound-window selection,
respawn-or-raise — in isolation.
"""

import pytest
from hypothesis import example, given, strategies as st

from repro.core.system import AmmBoostConfig
from repro.errors import ShardError, WorkerLostError
from repro.sharding.escrow import transfer_row
from repro.sharding.journal import BridgeJournal, RollbackReport
from repro.sharding.router import RETRYABLE_ABORTS, CrossShardRouter
from repro.sharding.scheduler import ShardScheduler
from repro.sharding.shard import ShardSpec
from tests.journal_reference import ReferenceJournal


def outcome(transfer, settle=True, reason=""):
    """A registry outcome row, as the journal's lookup returns it."""
    return (transfer, settle, reason, "")


def make_transfer(tid="x0-1-0", source=0, dest=1):
    """A prepared transfer's wire row, as the registry holds it."""
    return transfer_row(
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
            "x0-1-0": outcome(make_transfer("x0-1-0"), settle=True),
            "x0-0-0": outcome(make_transfer("x0-0-0"), settle=False),
            "x0-1-9": outcome(make_transfer("x0-1-9")),
        }
        report = RollbackReport(shard=0, epoch=2, restored_epoch=1, syncs_lost=1)
        comps = journal.compensations_for(report, entries.get)
        assert [type(c).__name__ for c in comps] == [
            "RelockEscrow",
            "ResyncResolve",
        ]
        assert comps[0].transfer == entries["x0-1-0"][0]
        assert comps[1].transfer_id == "x0-1-0" and comps[1].settle is True
        assert journal.counts() == {"rollbacks": 1, "relocks": 1, "resyncs": 1}

    def test_other_shards_entries_untouched(self):
        journal = BridgeJournal()
        journal.record_lock(0, "x0-2-0", epoch=2)
        journal.record_lock(1, "x1-2-0", epoch=2)
        report = RollbackReport(shard=1, epoch=2, restored_epoch=1, syncs_lost=1)
        comps = journal.compensations_for(
            report, {"x1-2-0": outcome(make_transfer("x1-2-0", source=1))}.get
        )
        assert len(comps) == 1
        assert comps[0].transfer[0] == "x1-2-0"
        assert comps[0].transfer[2] == 1

    def test_relocks_ordered_before_resyncs_in_fifo_order(self):
        """A same-inbox resync may need its relocked record, and ids
        apply in preparation (numeric), not lexicographic, order."""
        journal = BridgeJournal()
        for seq in (10, 2):
            journal.record_lock(0, f"x0-1-{seq}", epoch=1)
            journal.record_resolve(0, f"x0-1-{seq}", epoch=2, settle=False)
        entries = {
            f"x0-1-{seq}": outcome(make_transfer(f"x0-1-{seq}"), settle=False)
            for seq in (10, 2)
        }
        report = RollbackReport(shard=0, epoch=2, restored_epoch=1, syncs_lost=1)
        comps = journal.compensations_for(report, entries.get)
        assert [type(c).__name__ for c in comps] == [
            "RelockEscrow",
            "RelockEscrow",
            "ResyncResolve",
            "ResyncResolve",
        ]
        assert comps[0].transfer[0] == "x0-1-2"
        assert comps[2].transfer_id == "x0-1-2"


# Small spaces, so writes, rollbacks and registry entries collide.
SHARDS = st.integers(0, 1)
EPOCHS = st.integers(0, 3)
#: Well-formed ids (including double-digit sequences) and malformed ones.
ALL_IDS = [
    f"x{shard}-{epoch}-{seq}"
    for shard in range(2)
    for epoch in range(4)
    for seq in (0, 1, 2, 10)
] + ["weird", "x0-a-1"]
TRANSFER_IDS = st.sampled_from(ALL_IDS)
JOURNAL_OPS = st.one_of(
    st.tuples(st.just("lock"), SHARDS, TRANSFER_IDS, EPOCHS, st.booleans()),
    st.tuples(st.just("resolve"), SHARDS, TRANSFER_IDS, EPOCHS, st.booleans()),
    st.tuples(st.just("credit"), SHARDS, TRANSFER_IDS, EPOCHS),
    # (shard, epoch the fork fired at, restored epoch)
    st.tuples(st.just("rollback"), SHARDS, EPOCHS, EPOCHS),
)


@given(
    ops=st.lists(JOURNAL_OPS, max_size=60),
    aborted=st.sets(TRANSFER_IDS),
    # Ids the registry never saw have no outcome to compensate with.
    unregistered=st.sets(TRANSFER_IDS, max_size=4),
)
@example(
    # FIFO by sequence number, malformed ids last, in both groups.
    ops=[
        (kind, 0, tid, 2, True)
        for tid in ("weird", "x0-1-10", "x0-1-2")
        for kind in ("lock", "resolve")
    ] + [("rollback", 0, 2, 1)],
    aborted={"x0-1-2"},
    unregistered=set(),
)
def test_compact_journal_matches_the_reference(ops, aborted, unregistered):
    """Keyed id lists replay forks exactly as one tuple per write did:
    the same compensations in the same order, the same counters and the
    same length after every step."""
    registry = {
        tid: (
            make_transfer(tid),
            tid not in aborted,
            "dest offline" if tid in aborted else "",
            "",
        )
        for tid in ALL_IDS
        if tid not in unregistered
    }
    compact, reference = BridgeJournal(), ReferenceJournal()
    for op in ops:
        if op[0] == "rollback":
            _, shard, epoch, restored = op
            report = RollbackReport(
                shard=shard, epoch=epoch, restored_epoch=restored, syncs_lost=1
            )
            assert compact.compensations_for(
                report, registry.get
            ) == reference.compensations_for(report, registry.get)
        else:
            for journal in (compact, reference):
                getattr(journal, f"record_{op[0]}")(*op[1:])
        assert compact.counts() == reference.counts()
        assert len(compact) == len(reference)


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
        stale = make_transfer(dest=0)  # pool-1 lives on shard 1
        _, _, code = router.classify(stale, frozenset())
        assert code == "stale_route"
        lost = make_transfer(dest=9)
        _, _, code = router.classify(lost, frozenset())
        assert code == "unknown_shard"

    def test_retryable_set(self):
        # A misroute never clears under a fixed assignment: not retryable.
        assert RETRYABLE_ABORTS == {"dest_partitioned"}
