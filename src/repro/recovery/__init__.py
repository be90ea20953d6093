"""Cross-shard recovery: fork compensation.

:mod:`repro.recovery.journal` holds the coordinator's **bridge
journal**: every bank-touching bridge action (escrow lock, release,
refund, ``credit_external``) is journaled per shard and per epoch, so
when a shard's mainchain forks the coordinator can replay the journal
over the rewound window and issue deterministic compensating entries.
This is what lets per-shard :class:`~repro.faults.plan.Rollback` fault
plans run with global supply conservation intact.

A lost scheduler worker is not a deployment failure: the shard
scheduler (:mod:`repro.sharding.scheduler`) respawns and replays it, or
fails the run with :class:`~repro.errors.WorkerLostError`.

A fault-free run records journal entries but never draws randomness,
never perturbs a counter, and produces byte-identical output to a
deployment without the recovery layer.
"""

from repro.recovery.journal import (
    BridgeJournal,
    RelockEscrow,
    ResyncResolve,
    RollbackReport,
)

__all__ = [
    "BridgeJournal",
    "RelockEscrow",
    "ResyncResolve",
    "RollbackReport",
]
