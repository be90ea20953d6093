"""The bridge journal as one tuple per write: the reference the compact
journal is tested against.

This was ``repro.sharding.journal.BridgeJournal``'s storage until the
journal kept transfer ids in one list per ``(kind, shard, epoch,
at_boundary)`` key.  It keeps every write as a :data:`JournalEntry` in
one list and replays a fork by scanning all of it, every shard's writes
included.  Only the registry lookup changed: it takes the same
``outcome_of`` callable as the production journal.
"""

from __future__ import annotations

from repro.sharding.journal import (
    CREDIT,
    LOCK,
    REFUND,
    RELEASE,
    RelockEscrow,
    ResyncResolve,
    RollbackReport,
)
from repro.sharding.escrow import transfer_sort_key

#: One bank-touching bridge write on one shard: ``(kind, shard,
#: transfer_id, epoch, at_boundary)``.
JournalEntry = tuple[str, int, str, int, bool]


class ReferenceJournal:
    """Per-run log of bridge writes, one entry per write."""

    def __init__(self) -> None:
        self.entries: list[JournalEntry] = []
        self.rollbacks: list[RollbackReport] = []
        self.relocks_issued = 0
        self.resyncs_issued = 0

    def __len__(self) -> int:
        return len(self.entries)

    def record_lock(self, shard, transfer_id, epoch, at_boundary=False) -> None:
        self.entries.append((LOCK, shard, transfer_id, epoch, at_boundary))

    def record_resolve(self, shard, transfer_id, epoch, settle) -> None:
        kind = RELEASE if settle else REFUND
        self.entries.append((kind, shard, transfer_id, epoch, True))

    def record_credit(self, shard, transfer_id, epoch) -> None:
        self.entries.append((CREDIT, shard, transfer_id, epoch, True))

    def compensations_for(self, report, outcome_of):
        self.rollbacks.append(report)
        relock_ids: set[str] = set()
        resync_ids: set[str] = set()
        restored = report.restored_epoch
        for kind, shard, transfer_id, epoch, at_boundary in self.entries:
            if shard != report.shard:
                continue
            if kind == LOCK:
                rewound = (
                    epoch > restored if at_boundary else epoch >= restored
                )
                if rewound:
                    relock_ids.add(transfer_id)
            elif kind in (RELEASE, REFUND):
                if epoch > restored:
                    resync_ids.add(transfer_id)

        out: list[RelockEscrow | ResyncResolve] = []
        for tid in sorted(relock_ids, key=transfer_sort_key):
            outcome = outcome_of(tid)
            if outcome is not None:
                out.append(RelockEscrow(transfer=outcome[0]))
        for tid in sorted(resync_ids, key=transfer_sort_key):
            outcome = outcome_of(tid)
            if outcome is not None:
                out.append(
                    ResyncResolve(
                        transfer_id=tid, settle=outcome[1], reason=outcome[2]
                    )
                )
        self.relocks_issued += len(relock_ids)
        self.resyncs_issued += len(resync_ids)
        return out

    def counts(self) -> dict[str, int]:
        return {
            "rollbacks": len(self.rollbacks),
            "relocks": self.relocks_issued,
            "resyncs": self.resyncs_issued,
        }
