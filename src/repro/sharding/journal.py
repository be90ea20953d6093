"""Bridge journal: deterministic fork compensation for cross-shard value.

The coordinator journals every bank-touching bridge action (escrow lock,
release, refund, ``credit_external``) per shard and per epoch, so when a
shard's mainchain forks it can replay the journal over the rewound window
and issue deterministic compensating entries.  This is what lets
per-shard :class:`~repro.faults.plan.Rollback` fault plans run with
global supply conservation intact.  A fault-free run records journal
entries but never draws randomness, never perturbs a counter, and
produces byte-identical output to a run that journals nothing.

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
delivered.  It keeps no entry per write: each shard has one index from
``(kind, epoch, at_boundary)`` to the transfer ids written under that
key, in write order.  A transfer journals up to three writes, so a long
run writes tens of thousands, and what the index adds per write is one
list slot referencing a transfer-id string the registry already holds.
When a shard reports a rollback,
:meth:`BridgeJournal.compensations_for` walks that shard's keys over
the rewound window and emits compensating entries for the next
boundary:

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

from dataclasses import dataclass
from typing import Callable

from repro.sharding.escrow import TransferRow, transfer_sort_key
from repro.sharding.router import OutcomeRow

#: Kinds of bank-touching bridge write: :data:`LOCK` (escrow lock for an
#: outbound transfer), :data:`RELEASE` / :data:`REFUND` (source-side
#: resolve), :data:`CREDIT` (``credit_external`` on the destination).
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


class BridgeJournal:
    """Per-run log of bridge writes, replayed to compensate forks.

    ``len(journal)`` is the number of writes recorded.
    """

    def __init__(self) -> None:
        self.rollbacks: list[RollbackReport] = []
        self.relocks_issued = 0
        self.resyncs_issued = 0
        #: shard -> ``(kind, epoch, at_boundary)`` -> transfer ids.
        #: ``at_boundary`` marks writes applied at a boundary, *before*
        #: the epoch's bank snapshot — end-of-epoch locks carry
        #: ``False`` and sit *after* it, which shifts their rewound
        #: window by one epoch.
        self._ids: dict[int, dict[tuple[str, int, bool], list[str]]] = {}

    def __len__(self) -> int:
        return sum(
            len(ids) for keys in self._ids.values() for ids in keys.values()
        )

    def _record(
        self,
        kind: str,
        shard: int,
        transfer_id: str,
        epoch: int,
        at_boundary: bool,
    ) -> None:
        keys = self._ids.setdefault(shard, {})
        key = (kind, epoch, at_boundary)
        ids = keys.get(key)
        if ids is None:
            keys[key] = [transfer_id]
        else:
            ids.append(transfer_id)

    def record_lock(
        self,
        shard: int,
        transfer_id: str,
        epoch: int,
        at_boundary: bool = False,
    ) -> None:
        self._record(LOCK, shard, transfer_id, epoch, at_boundary)

    def record_resolve(
        self, shard: int, transfer_id: str, epoch: int, settle: bool
    ) -> None:
        kind = RELEASE if settle else REFUND
        self._record(kind, shard, transfer_id, epoch, True)

    def record_credit(
        self, shard: int, transfer_id: str, epoch: int
    ) -> None:
        self._record(CREDIT, shard, transfer_id, epoch, True)

    def compensations_for(
        self,
        report: RollbackReport,
        outcome_of: Callable[[str], OutcomeRow | None],
    ) -> list[RelockEscrow | ResyncResolve]:
        """Replay the journal over the fork's rewound window.

        Returns the forked shard's compensations for the next boundary,
        relocks first (a resync for the same transfer must find its
        record), each group in transfer-id order for determinism.
        ``outcome_of`` looks a transfer up in the registry (active or
        completed) — the durable coordinator-side record a fork cannot
        erase — and returns ``(transfer, settle, reason, code)``, or
        ``None`` for an id it never registered.
        """
        self.rollbacks.append(report)
        relock_ids: set[str] = set()
        resync_ids: set[str] = set()
        restored = report.restored_epoch
        for (kind, epoch, at_boundary), ids in self._ids.get(
            report.shard, {}
        ).items():
            if kind == LOCK:
                rewound = (
                    epoch > restored if at_boundary else epoch >= restored
                )
                if rewound:
                    relock_ids.update(ids)
            elif kind in (RELEASE, REFUND):
                if epoch > restored:
                    resync_ids.update(ids)
            # CREDIT writes need no compensation: the credit merged
            # into the executor before the fork; the rollback hook
            # repairs the merge cursor over the truncated event log.

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
                        transfer_id=tid,
                        settle=outcome[1],
                        reason=outcome[2],
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
