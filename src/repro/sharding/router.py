"""The cross-shard router: leg routing and two-phase-commit resolution.

Splitting happens at the edges (the shard ingest converts a swap into a
transfer leg; the shard executor escrows round-trip outputs); this module
owns the *coordinator* half: which shard serves which pool, and — at
every epoch boundary — which prepared transfers settle, which abort, and
which must wait because an endpoint shard is partitioned.

Resolution rules, per prepared transfer at the boundary into epoch ``b``:

* destination shard unknown, or destination pool not owned by it →
  **abort** (typed reason, refunded at the source);
* destination pool mid-migration → **abort** (``pool_migrating``,
  retryable: resubmit once the handoff completes);
* destination shard offline in ``b`` → **abort** ("cross-shard swaps to
  a partitioned shard abort cleanly");
* otherwise → **settle**: the credit is delivered to the destination in
  ``b`` and the source's escrow release follows as soon as the source is
  online (a source partitioned after preparing cannot release, but the
  value has already landed exactly once at the destination — the
  registry tracks delivery so nothing is duplicated or lost).

Every abort carries a machine-readable ``code`` next to its prose
reason; codes in :data:`RETRYABLE_ABORTS` mark transient conditions
(partition, migration window, stale route) a sender can simply retry.

The registry is also the conservation authority: every in-flight
transfer's value is counted exactly once — here — until it lands on a
shard (destination credit for settles, source refund for aborts).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.sharding.escrow import (
    SettleCredit,
    ShardInstructions,
    SourceResolve,
    TransferRecord,
    transfer_sort_key,
)

#: Abort codes marking transient conditions: the sender can resubmit
#: the same trade and expect it to go through once the condition clears.
RETRYABLE_ABORTS = frozenset(
    {"dest_partitioned", "pool_migrating", "stale_route"}
)


@dataclass
class InFlightTransfer:
    """Registry entry: one prepared transfer awaiting resolution."""

    transfer: TransferRecord
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
        self,
        transfer: TransferRecord,
        offline: frozenset[int],
        migrating: frozenset[str] = frozenset(),
    ) -> tuple[bool, str, str]:
        """(settle?, abort reason, abort code) at this boundary."""
        if not 0 <= transfer.dest_shard < self.num_shards:
            return (
                False,
                f"unknown destination shard {transfer.dest_shard}",
                "unknown_shard",
            )
        if transfer.dest_pool and transfer.dest_pool in migrating:
            return (
                False,
                f"pool {transfer.dest_pool} is migrating; retry after "
                "the handoff",
                "pool_migrating",
            )
        if transfer.dest_pool:
            owner = self.owner_of(transfer.dest_pool)
            if owner != transfer.dest_shard:
                return (
                    False,
                    f"pool {transfer.dest_pool} is not on shard "
                    f"{transfer.dest_shard}",
                    "stale_route",
                )
        if transfer.dest_shard in offline:
            return (
                False,
                f"destination shard {transfer.dest_shard} is partitioned",
                "dest_partitioned",
            )
        return True, "", ""


@dataclass
class TransferRegistry:
    """Coordinator-side 2PC state for every cross-shard transfer.

    ``entries`` holds only transfers with work left (undecided, or with
    undelivered resolutions); completed ones move to ``completed``, so
    the per-boundary sort/scan cost is proportional to what is actually
    in flight, not to the deployment's whole transfer history.
    """

    router: CrossShardRouter
    entries: dict[str, InFlightTransfer] = field(default_factory=dict)
    completed: dict[str, InFlightTransfer] = field(default_factory=dict)

    def add_prepares(self, prepares: Iterable[TransferRecord]) -> None:
        for transfer in prepares:
            if (
                transfer.transfer_id in self.entries
                or transfer.transfer_id in self.completed
            ):
                raise ValueError(
                    f"transfer {transfer.transfer_id} prepared twice"
                )
            self.entries[transfer.transfer_id] = InFlightTransfer(transfer)

    def all_entries(self) -> dict[str, InFlightTransfer]:
        """Every transfer ever registered (tests, reports, audits)."""
        return {**self.completed, **self.entries}

    def instructions_for(
        self,
        offline: frozenset[int],
        migrating: frozenset[str] = frozenset(),
    ) -> dict[int, ShardInstructions]:
        """Build every shard's settlement inbox for the coming epoch.

        Decides undecided transfers, delivers whatever each online shard
        can apply, and defers the rest.  Mutates the registry state.
        """
        instructions: dict[int, ShardInstructions] = {}

        def deliver(
            shard: int, item: SettleCredit | SourceResolve
        ) -> None:
            instructions.setdefault(shard, []).append(item)

        for transfer_id in sorted(self.entries, key=transfer_sort_key):
            entry = self.entries[transfer_id]
            transfer = entry.transfer
            if not entry.decided:
                settle, reason, code = self.router.classify(
                    transfer, offline, migrating=migrating
                )
                entry.decided = True
                entry.settle = settle
                entry.reason = reason
                entry.code = code
                if settle:
                    # Destination is online by construction of classify.
                    deliver(transfer.dest_shard, SettleCredit(transfer))
                    entry.credit_delivered = True
            if (
                not entry.resolve_delivered
                and transfer.source_shard not in offline
            ):
                deliver(
                    transfer.source_shard,
                    SourceResolve(
                        transfer_id=transfer.transfer_id,
                        settle=entry.settle,
                        reason=entry.reason,
                        code=entry.code,
                    ),
                )
                entry.resolve_delivered = True
            if entry.complete:
                self.completed[transfer_id] = self.entries.pop(transfer_id)
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
                total0 += entry.transfer.amount0
                total1 += entry.transfer.amount1
        return total0, total1

    def has_pending(self) -> bool:
        """Any transfer with work left?"""
        return bool(self.entries)

    def counts(self) -> dict[str, int]:
        out = {"prepared": 0, "settled": 0, "aborted": 0}
        for entry in self.all_entries().values():
            if not entry.decided:
                out["prepared"] += 1
            elif entry.settle:
                out["settled"] += 1
            else:
                out["aborted"] += 1
        return out

    def abort_codes(self) -> dict[str, int]:
        """Aborted-transfer totals bucketed by machine-readable code."""
        out: dict[str, int] = {}
        for entry in self.all_entries().values():
            if entry.decided and not entry.settle:
                key = entry.code or "other"
                out[key] = out.get(key, 0) + 1
        return dict(sorted(out.items()))
