"""Recovery scenario: mainchain forks under bridge traffic.

``fork_recovery`` — a per-shard mainchain :class:`Rollback` fires while
cross-shard escrows are in flight: the coordinator's bridge journal
replays the rewound window and issues compensating relocks / status
resyncs at the next boundary, so settled value stays settled and total
supply is conserved (the run fails loudly otherwise).  The depth-0 point
is the fault-free control — its recovery counters must be zero and its
numbers match the plain shard engine.

All points run their shard schedulers serially (grid points are already
process-parallel) and derive seeds from runner substreams, so tables
are bit-identical across runs and ``--jobs`` counts.
"""

from __future__ import annotations

from repro.faults.plan import FaultPlan, Rollback
from repro.faults.shard import ShardFault
from repro.scenarios.shard import sharded_config
from repro.scenarios.spec import ScenarioSpec
from repro.sharding.system import ShardedSystem

EPOCHS = 4


# ---------------------------------------------------------------------------
# fork_recovery
# ---------------------------------------------------------------------------


def fork_recovery_point(params) -> dict:
    depth = params["depth"]
    fork_epoch = params.get("epoch", 1)
    offline = params.get("offline", False)
    num_shards = 3
    faults: list[ShardFault] = []
    if depth:
        faults.append(
            ShardFault(
                shard=0,
                plan=FaultPlan((Rollback(epoch=fork_epoch, depth=depth),)),
            )
        )
    if offline:
        faults.append(
            ShardFault(shard=2, offline_epochs=frozenset({fork_epoch}))
        )
    config, _ = sharded_config(
        num_shards, params["seed"], params.get("scale"),
        cross_shard_ratio=0.3,
        shard_faults=tuple(faults),
    )
    report = ShardedSystem(config).run(num_epochs=EPOCHS)
    label = f"depth {depth} @e{fork_epoch}" if depth else "no fork"
    if offline:
        label += " +offline"
    row = [
        label,
        report.aggregate_processed,
        report.transfers["settled"],
        report.transfers["aborted"],
        report.recovery["rollbacks"],
        report.recovery["relocks"],
        report.recovery["resyncs"],
        "yes" if report.conservation_ok else "NO",
    ]
    return {"rows": [row]}


def fork_recovery_spec() -> ScenarioSpec:
    return ScenarioSpec(
        name="fork_recovery",
        experiment_id="Extra: Fork recovery",
        title="Per-shard mainchain forks under cross-shard escrow traffic",
        headers=("fork", "processed txs", "settled", "aborted",
                 "rollbacks", "relocks", "resyncs", "conserved"),
        grid=(
            {"depth": 0},
            {"depth": 2, "epoch": 1},
            {"depth": 4, "epoch": 2},
            {"depth": 2, "epoch": 2, "offline": True},
        ),
        point=fork_recovery_point,
        notes=(
            "a fork rewinds shard 0's mainchain bank past bridge writes; "
            "the coordinator replays its journal and compensates at the "
            "next boundary (relocks for erased escrow locks, status-only "
            "resyncs for erased releases/refunds), so conservation holds "
            "at every boundary — the run raises on the first violation"
        ),
        group="extra",
        accepts_scale=True,
        derive_seeds=True,
        description="mainchain forks vs bridge journal compensation, 3 shards",
    )


RECOVERY_SPEC_BUILDERS = (
    fork_recovery_spec,
)
