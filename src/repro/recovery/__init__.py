"""Cross-shard recovery: fork compensation and pool migration.

Two failure modes of the shard engine, closed:

* :mod:`repro.recovery.journal` — the coordinator's **bridge journal**:
  every bank-touching bridge action (escrow lock, release, refund,
  ``credit_external``) is journaled per shard and per epoch, so when a
  shard's mainchain forks the coordinator can replay the journal over
  the rewound window and issue deterministic compensating entries.
  This is what lets per-shard :class:`~repro.faults.plan.Rollback`
  fault plans run with global supply conservation intact.
* :mod:`repro.recovery.migration` — **live pool migration**: a logical
  pool moves between shards at an epoch boundary through a two-step
  handoff (seal a manifest at the source, activate at the destination)
  riding the same settlement inboxes escrow instructions use; the
  :class:`~repro.recovery.migration.DrainHottestShard` policy drives
  migrations off observed queue pressure.

A lost scheduler worker is not a deployment failure: the shard
scheduler (:mod:`repro.sharding.scheduler`) respawns and replays it, or
fails the run with :class:`~repro.errors.WorkerLostError`.

Everything here is opt-in or no-op by default: a fault-free,
migration-free run records journal entries but never draws randomness,
never perturbs a counter, and produces byte-identical output to a
deployment without the recovery layer.
"""

from repro.recovery.journal import (
    BridgeJournal,
    JournalEntry,
    RelockEscrow,
    ResyncResolve,
    RollbackReport,
)
from repro.recovery.migration import (
    AssignmentUpdate,
    BeginPoolMigration,
    CompletePoolMigration,
    DrainHottestShard,
    MigrationDirective,
    MigrationEngine,
    PoolManifest,
    RebalancePolicy,
    ScheduledMigrations,
)

__all__ = [
    "AssignmentUpdate",
    "BeginPoolMigration",
    "BridgeJournal",
    "CompletePoolMigration",
    "DrainHottestShard",
    "JournalEntry",
    "MigrationDirective",
    "MigrationEngine",
    "PoolManifest",
    "RebalancePolicy",
    "RelockEscrow",
    "ResyncResolve",
    "RollbackReport",
    "ScheduledMigrations",
]
