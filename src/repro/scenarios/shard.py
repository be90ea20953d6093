"""Sharding scenarios: scaling, hot shards, and cross-shard traffic.

* ``shard_scaling`` — aggregate sidechain throughput as the shard count
  grows with per-shard volume held constant: every shard is a full
  paper deployment, so the deployment's simulated tx/s should scale
  near-linearly (cross-shard settlement is the only coupling);
* ``hot_shard`` — a :class:`~repro.workload.shard_mix.HotShardLoad` skew
  concentrates traffic on one shard: its queue grows and its share of
  the processed volume rises while the cold shards idle — congestion
  that the fixed round-robin placement leaves in place;
* ``cross_shard_ratio`` — sweeps the fraction of trades that cross
  shards, including a point with the destination shard partitioned:
  transfers to it abort cleanly (refunds, typed reasons) and token
  conservation holds throughout (the run fails loudly otherwise).

All points derive their seeds from runner substreams and run their
shard schedulers serially (grid points are already process-parallel),
so tables are bit-identical across runs and ``--jobs`` counts.
"""

from __future__ import annotations

from repro.faults.plan import FaultPlan, SyncWithhold
from repro.faults.shard import ShardFault
from repro.scenarios.scaling import scaled_ammboost_config
from repro.scenarios.spec import ScenarioSpec
from repro.sharding.system import ShardedConfig, ShardedSystem
from repro.workload.shard_mix import HotShardLoad

#: Simulated daily volume per shard (scaled by REPRO_FAST / ``--scale``).
PER_SHARD_VOLUME = 400_000
EPOCHS = 3


def sharded_config(
    num_shards: int,
    seed: int,
    scale: int | None,
    cross_shard_ratio: float,
    **overrides,
) -> tuple[ShardedConfig, int]:
    """A small ``num_shards`` deployment with ``2 * num_shards`` pools at
    :data:`PER_SHARD_VOLUME` per shard; returns it with its scale."""
    base, actual_scale = scaled_ammboost_config(
        PER_SHARD_VOLUME * num_shards,
        scale=scale,
        committee_size=8,
        miner_population=16,
        num_users=10,
        rounds_per_epoch=6,
        seed=seed,
    )
    config = ShardedConfig(
        num_shards=num_shards,
        num_pools=2 * num_shards,
        base=base,
        cross_shard_ratio=cross_shard_ratio,
        **overrides,
    )
    return config, actual_scale


# ---------------------------------------------------------------------------
# shard_scaling
# ---------------------------------------------------------------------------


def shard_scaling_point(params) -> dict:
    num_shards = params["num_shards"]
    config, scale = sharded_config(
        num_shards, params["seed"], params.get("scale"),
        cross_shard_ratio=0.1,
    )
    report = ShardedSystem(config).run(num_epochs=EPOCHS)
    row = [
        num_shards,
        report.num_pools,
        report.aggregate_processed,
        round(report.aggregate_throughput * scale, 2),
        report.transfers["settled"],
        report.transfers["aborted"],
        "yes" if report.conservation_ok else "NO",
    ]
    return {"rows": [row]}


def shard_scaling_spec() -> ScenarioSpec:
    return ScenarioSpec(
        name="shard_scaling",
        experiment_id="Extra: Shard scaling",
        title="Aggregate sidechain throughput vs shard count",
        headers=("shards", "pools", "processed txs", "agg tput tx/s",
                 "settled", "aborted", "conserved"),
        grid=tuple({"num_shards": s} for s in (1, 2, 4)),
        point=shard_scaling_point,
        notes=(
            "per-shard volume held constant: each shard is a full "
            "committee-operated deployment, so aggregate tx/s scales "
            "with the shard count"
        ),
        group="extra",
        accepts_scale=True,
        derive_seeds=True,
        description="aggregate tx/s for 1/2/4 committee shards, 2 pools each",
    )


# ---------------------------------------------------------------------------
# hot_shard
# ---------------------------------------------------------------------------


def hot_shard_point(params) -> dict:
    factor = params["factor"]
    num_shards = 4
    config, scale = sharded_config(
        num_shards, params["seed"], params.get("scale"),
        cross_shard_ratio=0.05,
        load_profile=HotShardLoad(hot_shard=0, factor=factor),
    )
    report = ShardedSystem(config).run(num_epochs=EPOCHS)
    processed = [
        report.per_shard[i].metrics["processed_txs"]
        for i in range(num_shards)
    ]
    queues = [
        report.per_shard[i].metrics["peak_queue_depth"]
        for i in range(num_shards)
    ]
    hot_share = processed[0] / max(1, sum(processed))
    row = [
        factor,
        report.aggregate_processed,
        round(report.aggregate_throughput * scale, 2),
        processed[0],
        round(hot_share, 3),
        queues[0],
        max(queues[1:]),
        "yes" if report.conservation_ok else "NO",
    ]
    return {"rows": [row]}


def hot_shard_spec() -> ScenarioSpec:
    return ScenarioSpec(
        name="hot_shard",
        experiment_id="Extra: Hot shard",
        title="Skewed load on one of four shards (volume-conserving)",
        headers=("hot factor", "processed txs", "agg tput tx/s",
                 "hot processed", "hot share", "hot peak queue",
                 "cold peak queue", "conserved"),
        grid=tuple({"factor": f} for f in (1.0, 2.0, 4.0, 8.0)),
        point=hot_shard_point,
        notes=(
            "total volume is conserved while shard 0 takes a growing "
            "multiple of the others' share; its queue depth is the "
            "congestion signal placement policies exist to fix"
        ),
        group="extra",
        accepts_scale=True,
        derive_seeds=True,
        description="one of 4 shards takes 1-8x the others' traffic share",
    )


# ---------------------------------------------------------------------------
# cross_shard_ratio
# ---------------------------------------------------------------------------


def cross_shard_ratio_point(params) -> dict:
    ratio = params["ratio"]
    faulted = params.get("faulted", False)
    num_shards = 2
    faults: tuple[ShardFault, ...] = ()
    if faulted:
        faults = (
            ShardFault(
                shard=1,
                offline_epochs=frozenset({1}),
                plan=FaultPlan((SyncWithhold(epoch=2),)),
            ),
        )
    config, scale = sharded_config(
        num_shards, params["seed"], params.get("scale"),
        cross_shard_ratio=ratio,
        shard_faults=faults,
    )
    report = ShardedSystem(config).run(num_epochs=EPOCHS)
    label = f"{ratio:.2f}" + (" +fault" if faulted else "")
    row = [
        label,
        report.aggregate_processed,
        round(report.aggregate_throughput * scale, 2),
        report.transfers["settled"],
        report.transfers["aborted"],
        min(
            report.per_shard[i].epochs_synced
            for i in range(num_shards)
        ),
        "yes" if report.conservation_ok else "NO",
    ]
    return {"rows": [row]}


def cross_shard_ratio_spec() -> ScenarioSpec:
    return ScenarioSpec(
        name="cross_shard_ratio",
        experiment_id="Extra: Cross-shard ratio",
        title="Cross-shard trade fraction: settles, aborts, conservation",
        headers=("ratio", "processed txs", "agg tput tx/s", "settled",
                 "aborted", "min epochs synced", "conserved"),
        grid=(
            {"ratio": 0.0},
            {"ratio": 0.1},
            {"ratio": 0.3},
            {"ratio": 0.3, "faulted": True},
        ),
        point=cross_shard_ratio_point,
        notes=(
            "the +fault point partitions shard 1 for an epoch and makes "
            "its leader withhold a sync: transfers to it abort with "
            "refunds, the healthy shard keeps finalizing, and total "
            "supply stays conserved (the run fails loudly otherwise)"
        ),
        group="extra",
        accepts_scale=True,
        derive_seeds=True,
        description="0-30% cross-shard trades via 2-phase escrow, incl. a partitioned shard",
    )


SHARD_SPEC_BUILDERS = (
    shard_scaling_spec,
    hot_shard_spec,
    cross_shard_ratio_spec,
)
