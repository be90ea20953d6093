"""Declarative fault injection across the network, PBFT and epoch layers.

A :class:`FaultPlan` is a typed timeline of fault events; the engine
compiles it onto each layer it targets:

* the Δ-bounded message :class:`~repro.simulation.network.Network` (via
  :class:`FaultDriver` installed with ``Network.install_faults``);
* the message-level :class:`~repro.sidechain.pbft.PbftRound` (crashes,
  recoveries, member corruption);
* the epoch-level :class:`~repro.core.system.AmmBoostSystem` (interrupted
  rounds, withheld syncs, mainchain forks), whose default epoch phases
  (:mod:`repro.core.phases`) consult its :class:`FaultSession`.

See ``src/repro/faults/README.md`` for the fault model, its mapping to
the paper's Section III adversary, and how to register a fault scenario.
"""

from repro.faults.driver import FaultDriver, node_of
from repro.faults.plan import (
    EMPTY_PLAN,
    Corrupt,
    Crash,
    Delay,
    Drop,
    FaultEvent,
    FaultPlan,
    FaultRecord,
    FaultSession,
    Partition,
    Rollback,
    SyncWithhold,
    ViewChangeBurst,
)
from repro.faults.shard import ShardFault, ShardFaultBook

__all__ = [
    "EMPTY_PLAN",
    "Corrupt",
    "Crash",
    "Delay",
    "Drop",
    "FaultDriver",
    "FaultEvent",
    "FaultPlan",
    "FaultRecord",
    "FaultSession",
    "Partition",
    "Rollback",
    "ShardFault",
    "ShardFaultBook",
    "SyncWithhold",
    "ViewChangeBurst",
    "node_of",
]
