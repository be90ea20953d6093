"""The cross-shard router: leg routing and two-phase-commit resolution.

Splitting happens at the edges (the shard ingest converts a swap into a
transfer leg; the shard executor escrows round-trip outputs); this module
owns the *coordinator* half: which shard serves which pool (fixed when
the deployment is built), and — at every epoch boundary — which
prepared transfers settle, which abort, and which must wait because an
endpoint shard is partitioned.

Resolution rules, per prepared transfer at the boundary into epoch ``b``:

* destination shard unknown (``unknown_shard``), or destination pool
  not owned by it (``stale_route``) → **abort** (typed reason, refunded
  at the source).  Shards route from the same fixed assignment the
  router holds, so either is a misroute — a malformed row arriving from
  a worker process — and resubmitting the same leg fails the same way;
* destination shard offline in ``b`` → **abort** ("cross-shard swaps to
  a partitioned shard abort cleanly");
* otherwise → **settle**: the credit is delivered to the destination in
  ``b`` and the source's escrow release follows as soon as the source is
  online (a source partitioned after preparing cannot release, but the
  value has already landed exactly once at the destination — the
  registry tracks delivery so nothing is duplicated or lost).

Every abort carries a machine-readable ``code`` next to its prose
reason; codes in :data:`RETRYABLE_ABORTS` mark transient conditions (a
partitioned destination) a sender can simply retry.

The registry is also the conservation authority: every in-flight
transfer's value is counted exactly once — here — until it lands on a
shard (destination credit for settles, source refund for aborts).

The registry holds transfers as the shards report them, in their wire
form (:data:`~repro.sharding.escrow.TransferRow` tuples), and emits the
tagged :data:`~repro.sharding.escrow.Instruction` tuples the shards
apply; neither is ever unpacked into a dataclass on this side.  Only a
transfer with work left has an :class:`InFlightTransfer`; a completed
one is kept as an :data:`OutcomeRow`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.errors import EscrowError
from repro.sharding.escrow import Instruction, TransferRow, transfer_sort_key

#: Abort codes marking transient conditions: the sender can resubmit
#: the same trade and expect it to go through once the condition clears.
#: A misroute (``stale_route``, ``unknown_shard``) never clears.
RETRYABLE_ABORTS = frozenset({"dest_partitioned"})

#: A registered transfer and how it resolved: ``(transfer, settle,
#: reason, code)`` — its :data:`~repro.sharding.escrow.TransferRow`, the
#: settle/abort decision, the prose abort reason and the abort code
#: (both "" for settles).  The registry's ``completed`` map holds these.
OutcomeRow = tuple[TransferRow, bool, str, str]


@dataclass
class InFlightTransfer:
    """Registry entry: one prepared transfer awaiting resolution."""

    transfer: TransferRow
    decided: bool = False
    settle: bool = False
    reason: str = ""
    #: Machine-readable abort code ("" for settles).
    code: str = ""
    #: Settle credit delivered to the destination (value landed).
    credit_delivered: bool = False
    #: Source-side release/refund delivered (abort value lands here).
    resolve_delivered: bool = False

    @property
    def value_landed(self) -> bool:
        if not self.decided:
            return False
        if self.settle:
            return self.credit_delivered
        return self.resolve_delivered

    @property
    def complete(self) -> bool:
        return self.decided and self.resolve_delivered and (
            self.credit_delivered or not self.settle
        )


class CrossShardRouter:
    """Routing table plus the boundary resolution engine."""

    def __init__(
        self, assignment: Mapping[str, int], num_shards: int
    ) -> None:
        self.assignment = dict(assignment)
        self.num_shards = num_shards

    def owner_of(self, pool_id: str) -> int | None:
        return self.assignment.get(pool_id)

    def classify(
        self, transfer: TransferRow, offline: frozenset[int]
    ) -> tuple[bool, str, str]:
        """(settle?, abort reason, abort code) at this boundary."""
        dest_shard = transfer[3]
        dest_pool = transfer[4]
        if not 0 <= dest_shard < self.num_shards:
            return (
                False,
                f"unknown destination shard {dest_shard}",
                "unknown_shard",
            )
        if dest_pool:
            owner = self.owner_of(dest_pool)
            if owner != dest_shard:
                return (
                    False,
                    f"pool {dest_pool} is not on shard {dest_shard}",
                    "stale_route",
                )
        if dest_shard in offline:
            return (
                False,
                f"destination shard {dest_shard} is partitioned",
                "dest_partitioned",
            )
        return True, "", ""


@dataclass
class TransferRegistry:
    """Coordinator-side 2PC state for every cross-shard transfer.

    ``entries`` holds only transfers with work left (undecided, or with
    undelivered resolutions); completed ones move to ``completed`` as
    :data:`OutcomeRow` tuples, so the per-boundary sort/scan cost is
    proportional to what is actually in flight, not to the deployment's
    whole transfer history, and the history holds nothing the cyclic GC
    must scan.  Decisions are tallied as they are made, so
    :meth:`counts` and :meth:`abort_codes` never read the history.
    """

    router: CrossShardRouter
    entries: dict[str, InFlightTransfer] = field(default_factory=dict)
    completed: dict[str, OutcomeRow] = field(default_factory=dict)
    #: Transfers decided so far: settles, and aborts by machine-readable
    #: code ("other" for none).
    settled: int = 0
    aborts_by_code: dict[str, int] = field(default_factory=dict)

    def add_prepares(self, prepares: Iterable[TransferRow]) -> None:
        for transfer in prepares:
            transfer_id = transfer[0]
            if transfer_id in self.entries or transfer_id in self.completed:
                raise EscrowError(f"transfer {transfer_id} prepared twice")
            self.entries[transfer_id] = InFlightTransfer(transfer)

    def outcome(self, transfer_id: str) -> OutcomeRow | None:
        """A registered transfer's row and resolution, looked up by id.

        An active entry answers with the same fields (an undecided one
        reads as an abort with no reason).  ``None`` if the id was never
        registered.
        """
        row = self.completed.get(transfer_id)
        if row is not None:
            return row
        entry = self.entries.get(transfer_id)
        if entry is None:
            return None
        return (entry.transfer, entry.settle, entry.reason, entry.code)

    def instructions_for(
        self, offline: frozenset[int]
    ) -> dict[int, list[Instruction]]:
        """Build every shard's settlement inbox for the coming epoch.

        Decides undecided transfers, delivers whatever each online shard
        can apply, and defers the rest.  Mutates the registry state.
        """
        instructions: dict[int, list[Instruction]] = {}

        def deliver(shard: int, item: Instruction) -> None:
            instructions.setdefault(shard, []).append(item)

        for transfer_id in sorted(self.entries, key=transfer_sort_key):
            entry = self.entries[transfer_id]
            transfer = entry.transfer
            if not entry.decided:
                settle, reason, code = self.router.classify(transfer, offline)
                entry.decided = True
                entry.settle = settle
                entry.reason = reason
                entry.code = code
                if settle:
                    self.settled += 1
                    # Destination is online by construction of classify.
                    deliver(transfer[3], ("credit", transfer))
                    entry.credit_delivered = True
                else:
                    key = code or "other"
                    self.aborts_by_code[key] = (
                        self.aborts_by_code.get(key, 0) + 1
                    )
            source_shard = transfer[2]
            if not entry.resolve_delivered and source_shard not in offline:
                deliver(
                    source_shard,
                    (
                        "resolve",
                        transfer_id,
                        entry.settle,
                        entry.reason,
                        entry.code,
                    ),
                )
                entry.resolve_delivered = True
            if entry.complete:
                del self.entries[transfer_id]
                self.completed[transfer_id] = (
                    transfer,
                    entry.settle,
                    entry.reason,
                    entry.code,
                )
        return instructions

    # -- accounting ------------------------------------------------------------

    def in_flight_value(self) -> tuple[int, int]:
        """Value escrowed but not yet landed on any shard.

        Completed transfers landed by definition, so only the active
        entries need scanning.
        """
        total0 = total1 = 0
        for entry in self.entries.values():
            if not entry.value_landed:
                total0 += entry.transfer[5]
                total1 += entry.transfer[6]
        return total0, total1

    def has_pending(self) -> bool:
        """Any transfer with work left?"""
        return bool(self.entries)

    def counts(self) -> dict[str, int]:
        undecided = sum(
            1 for entry in self.entries.values() if not entry.decided
        )
        return {
            "prepared": undecided,
            "settled": self.settled,
            "aborted": sum(self.aborts_by_code.values()),
        }

    def abort_codes(self) -> dict[str, int]:
        """Aborted-transfer totals bucketed by machine-readable code."""
        return dict(sorted(self.aborts_by_code.items()))
