"""Recovery scenarios: mainchain forks under bridge traffic, rebalancing.

* ``fork_recovery`` — a per-shard mainchain :class:`Rollback` fires
  while cross-shard escrows are in flight: the coordinator's bridge
  journal replays the rewound window and issues compensating relocks /
  status resyncs at the next boundary, so settled value stays settled
  and total supply is conserved (the run fails loudly otherwise).  The
  depth-0 point is the fault-free control — its recovery counters must
  be zero and its numbers match the plain shard engine.
* ``shard_rebalance`` — the same skewed load twice: static placement vs
  the :class:`DrainHottestShard` policy, which live-migrates a pool off
  the hottest shard mid-run.  The drain point must show a lower hot
  peak queue than static placement; in-window legs abort with typed
  retryable reasons and are refunded, so conservation holds through
  the handoff.

All points run their shard schedulers serially (grid points are already
process-parallel) and derive seeds from runner substreams, so tables
are bit-identical across runs and ``--jobs`` counts.
"""

from __future__ import annotations

from repro.faults.plan import FaultPlan, Rollback
from repro.faults.shard import ShardFault
from repro.recovery.migration import DrainHottestShard
from repro.scenarios.shard import sharded_config
from repro.scenarios.spec import ScenarioSpec
from repro.sharding.system import ShardedSystem
from repro.workload.shard_mix import HotShardLoad

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


# ---------------------------------------------------------------------------
# shard_rebalance
# ---------------------------------------------------------------------------


def shard_rebalance_point(params) -> dict:
    drain = params["policy"] == "drain"
    num_shards = 3
    config, scale = sharded_config(
        num_shards, params["seed"], params.get("scale"),
        cross_shard_ratio=0.2,
        load_profile=HotShardLoad(hot_shard=0, factor=6.0),
        rebalance=DrainHottestShard() if drain else None,
    )
    report = ShardedSystem(config).run(num_epochs=EPOCHS)
    queues = [
        report.per_shard[i].metrics["peak_queue_depth"]
        for i in range(num_shards)
    ]
    retryable = sum(
        count
        for code, count in report.abort_codes.items()
        if code in ("pool_migrating", "stale_route")
    )
    row = [
        params["policy"],
        report.aggregate_processed,
        round(report.aggregate_throughput * scale, 2),
        queues[0],
        max(queues[1:]),
        len(report.migrations),
        retryable,
        "yes" if report.conservation_ok else "NO",
    ]
    return {"rows": [row]}


def shard_rebalance_spec() -> ScenarioSpec:
    return ScenarioSpec(
        name="shard_rebalance",
        experiment_id="Extra: Shard rebalance",
        title="Live pool migration off a hot shard vs static placement",
        headers=("policy", "processed txs", "agg tput tx/s",
                 "hot peak queue", "cold peak queue", "migrations",
                 "retryable aborts", "conserved"),
        grid=({"policy": "static"}, {"policy": "drain"}),
        point=shard_rebalance_point,
        notes=(
            "the drain policy migrates a pool off the hottest shard "
            "mid-run (two-boundary handoff riding the settlement "
            "inboxes); its hot peak queue must come in below the static "
            "point's, and legs caught in the window abort with typed "
            "retryable reasons and are refunded"
        ),
        group="extra",
        accepts_scale=True,
        derive_seeds=True,
        description="DrainHottestShard live migration vs static placement, skewed load",
    )


RECOVERY_SPEC_BUILDERS = (
    fork_recovery_spec,
    shard_rebalance_spec,
)
