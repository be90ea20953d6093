"""Bridge journal: deterministic fork compensation for cross-shard value.

A shard's mainchain fork (:class:`~repro.faults.plan.Rollback`) restores
its token bank to the snapshot preceding the earliest lost summary sync —
mid-epoch ``restored_epoch``.  Everything the bridge wrote to that bank
after the snapshot is silently erased: escrow locks recorded at epoch
ends, release/refund statuses applied at boundaries, ``credit_external``
deposit events.  The sidechain executor is *not* rewound (the paper's
model: the committee's working state survives a mainchain reorg), so the
erased writes fall into exactly three classes:

* **erased lock** — the bank forgets a transfer the sender already paid
  for (the executor debit survives); a later release/refund would raise
  ``unknown transfer``.
* **erased resolve** — a release/refund status reverts to ``prepared``;
  the record is stuck non-terminal.  The *value* moved by the resolve is
  safe: a refund's ``credit_external`` was merged into the executor
  during the delivery epoch, before any epoch-end fork could fire.
* **erased credit event** — the deposit event is truncated but its merge
  into the executor survives; only the merge cursor needs repair (done
  in ``inject_mainchain_rollback`` itself).

The journal records every bank-touching bridge action as it is
delivered, keyed by shard and epoch, as one plain :data:`JournalEntry`
tuple each: a transfer journals up to three entries, so a long run keeps
tens of thousands, and tuples of atomics leave the cyclic GC's working
set.  When a shard reports a rollback,
:meth:`BridgeJournal.compensations_for` replays the journal over the
rewound window and emits compensating entries for the next boundary:

* :class:`RelockEscrow` — recreate an erased escrow lock (idempotent:
  applied only if the bank has no record for the transfer);
* :class:`ResyncResolve` — re-apply an erased terminal status
  (idempotent: applied only while the record is still ``prepared``).
  **Status-only**: the original refund credit already reached the
  executor, so re-running ``escrow_refund`` would double-mint.

Compensation deliveries are journaled too (``at_boundary=True``), so a
second fork that rewinds a compensation simply gets it re-issued.

The rewound window is an over-approximation made safe by idempotence:
end-of-epoch locks are rewound iff ``epoch >= restored_epoch`` (the
snapshot is taken mid-epoch, before epoch-end locks), boundary-delivered
writes iff ``epoch > restored_epoch`` (boundary writes precede the
snapshot of the same epoch).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Protocol

if TYPE_CHECKING:  # imported lazily at runtime to keep the packages acyclic
    from repro.sharding.escrow import TransferRow

#: One bank-touching bridge action on one shard: ``(kind, shard,
#: transfer_id, epoch, at_boundary)``.  ``kind`` is one of :data:`LOCK`
#: (escrow lock for an outbound transfer), :data:`RELEASE` /
#: :data:`REFUND` (source-side resolve), or :data:`CREDIT`
#: (``credit_external`` on the destination).  ``at_boundary`` marks
#: writes applied at a boundary, *before* the epoch's bank snapshot —
#: end-of-epoch locks carry ``False`` and sit *after* it, which shifts
#: their rewound window by one epoch.
JournalEntry = tuple[str, int, str, int, bool]
LOCK = "lock"
RELEASE = "release"
REFUND = "refund"
CREDIT = "credit"


@dataclass(frozen=True)
class RollbackReport:
    """A shard's account of one mainchain fork it just executed.

    ``restored_epoch`` is the signer epoch of the earliest lost summary
    sync — the bank was restored to the snapshot taken mid-way through
    that epoch.  ``epoch`` is the epoch whose end the fork fired at.
    """

    shard: int
    epoch: int
    restored_epoch: int
    syncs_lost: int


@dataclass(frozen=True)
class RelockEscrow:
    """Compensation: recreate an escrow lock the fork erased.

    The sender's executor debit survived the fork, so the value is still
    in flight; only the bank-side record is missing.  Applied only if
    the bank has no record for the transfer (idempotent under window
    over-approximation and double forks).
    """

    transfer: TransferRow


@dataclass(frozen=True)
class ResyncResolve:
    """Compensation: re-apply a release/refund status the fork erased.

    Status-only by design — the resolve's value movement (a refund's
    ``credit_external``) was merged into the executor before the fork
    and survived it.  Applied only while the bank record is still
    ``prepared``.
    """

    transfer_id: str
    settle: bool
    reason: str = ""


class _EntryView(Protocol):
    """The slice of the registry's in-flight entry the journal reads."""

    @property
    def transfer(self) -> TransferRow: ...

    @property
    def settle(self) -> bool: ...

    @property
    def reason(self) -> str: ...


@dataclass
class BridgeJournal:
    """Per-run log of bridge writes, replayed to compensate forks."""

    entries: list[JournalEntry] = field(default_factory=list)
    rollbacks: list[RollbackReport] = field(default_factory=list)
    relocks_issued: int = 0
    resyncs_issued: int = 0

    def record_lock(
        self,
        shard: int,
        transfer_id: str,
        epoch: int,
        at_boundary: bool = False,
    ) -> None:
        self.entries.append((LOCK, shard, transfer_id, epoch, at_boundary))

    def record_resolve(
        self, shard: int, transfer_id: str, epoch: int, settle: bool
    ) -> None:
        kind = RELEASE if settle else REFUND
        self.entries.append((kind, shard, transfer_id, epoch, True))

    def record_credit(
        self, shard: int, transfer_id: str, epoch: int
    ) -> None:
        self.entries.append((CREDIT, shard, transfer_id, epoch, True))

    def compensations_for(
        self,
        report: RollbackReport,
        registry_entries: Mapping[str, _EntryView],
    ) -> list[RelockEscrow | ResyncResolve]:
        """Replay the journal over the fork's rewound window.

        Returns the forked shard's compensations for the next boundary,
        relocks first (a resync for the same transfer must find its
        record), each group in transfer-id order for determinism.
        ``registry_entries`` is the registry's full transfer map
        (active and completed) — the durable coordinator-side record a
        fork cannot erase.
        """
        from repro.sharding.escrow import transfer_sort_key

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
            # CREDIT entries need no compensation: the credit merged
            # into the executor before the fork; the rollback hook
            # repairs the merge cursor over the truncated event log.

        out: list[RelockEscrow | ResyncResolve] = []
        for tid in sorted(relock_ids, key=transfer_sort_key):
            entry_view = registry_entries.get(tid)
            if entry_view is not None:
                out.append(RelockEscrow(transfer=entry_view.transfer))
        for tid in sorted(resync_ids, key=transfer_sort_key):
            entry_view = registry_entries.get(tid)
            if entry_view is not None:
                out.append(
                    ResyncResolve(
                        transfer_id=tid,
                        settle=entry_view.settle,
                        reason=entry_view.reason,
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
