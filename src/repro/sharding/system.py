"""The sharded deployment: many committee-operated sidechains, one market.

A :class:`ShardedSystem` partitions logical pools across ``S`` shards.
Each shard is a complete :class:`~repro.core.system.AmmBoostSystem`
(committee election, DKG, PBFT-timed rounds, token bank, epoch phases)
built from a deterministic per-shard substream seed; pool ``i`` is
dealt to shard ``i % S`` when the deployment is built
(:mod:`repro.sharding.placement`) and stays there; a cross-shard router
(:mod:`repro.sharding.router`) settles escrowed transfers between shard
banks with a two-phase commit; and the shard scheduler
(:mod:`repro.sharding.scheduler`) fans per-shard epochs across worker
processes with bit-identical results to a serial run.

Epochs advance in lock-step: every shard runs its epoch *e*
(parallelisable — shards only interact at boundaries), then the
coordinator folds the epoch's prepared transfers into the registry,
checks token conservation across the whole deployment, and computes the
settlement instructions each shard applies at the start of *e + 1*.
After the configured traffic epochs the deployment drains: epochs keep
running until every queue is empty and no transfer is in flight.

Fork recovery threads through the same boundary exchange: every
bank-touching delivery is recorded in a
:class:`~repro.sharding.journal.BridgeJournal` so a shard's mainchain
fork can be compensated deterministically at the next boundary, and
the scheduler respawns crashed workers and replays them to the lost
boundary (or fails the run with ``WorkerLostError``).  With no faults
and no crashes both are no-ops and runs are byte-identical to the plain
sharded engine.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace

from repro import constants
from repro.core.system import AmmBoostConfig
from repro.errors import ConfigurationError, EscrowError
from repro.faults.shard import ShardFault, ShardFaultBook
from repro.sharding.placement import pools_of, round_robin
from repro.sharding.escrow import ShardInstructions
from repro.sharding.journal import (
    BridgeJournal,
    RelockEscrow,
    ResyncResolve,
)
from repro.sharding.router import CrossShardRouter, TransferRegistry
from repro.sharding.scheduler import ShardScheduler
from repro.sharding.shard import ShardEpochRecord, ShardFinal, ShardSpec
from repro.simulation.rng import DeterministicRng
from repro.workload.shard_mix import ShardLoadProfile, UniformLoad


def shard_substream_seed(base_seed: int | str, shard_index: int) -> int:
    """Per-shard chassis seed, following the scenario-runner discipline."""
    return DeterministicRng(f"{base_seed}/shard/{shard_index}").randbits(63)


@dataclass
class ShardedConfig:
    """Deployment parameters for a sharded ammBoost system."""

    num_shards: int = 2
    #: Logical pools partitioned across the shards (default: one each).
    num_pools: int | None = None
    #: Per-shard chassis template; ``seed`` is re-derived per shard and
    #: ``daily_volume`` is split by pool count and load profile.
    base: AmmBoostConfig = field(default_factory=AmmBoostConfig)
    #: Fraction of generated swaps converted into cross-shard trades.
    cross_shard_ratio: float = 0.05
    #: Fraction of cross-shard trades that round-trip their output home.
    return_ratio: float = 0.5
    load_profile: ShardLoadProfile = field(default_factory=UniformLoad)
    #: Worker processes for the shard scheduler (1 = serial).
    jobs: int = 1
    shard_faults: tuple[ShardFault, ...] = ()

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ConfigurationError(
                f"need at least one shard, got {self.num_shards}"
            )
        if self.num_pools is None:
            self.num_pools = self.num_shards
        if self.num_pools < 1:
            raise ConfigurationError(
                f"need at least one pool, got {self.num_pools}"
            )
        if not 0.0 <= self.cross_shard_ratio <= 1.0:
            raise ConfigurationError("cross_shard_ratio must be in [0, 1]")
        if not 0.0 <= self.return_ratio <= 1.0:
            raise ConfigurationError("return_ratio must be in [0, 1]")
        if self.jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {self.jobs}")

    @property
    def pool_ids(self) -> tuple[str, ...]:
        assert self.num_pools is not None
        return tuple(f"pool-{i}" for i in range(self.num_pools))


@dataclass
class ShardedRunReport:
    """Aggregated outcome of one sharded run."""

    num_shards: int
    num_pools: int
    epochs_run: int
    injected_epochs: int
    aggregate_processed: int
    aggregate_rejected: int
    #: Sum of per-shard simulated throughputs (tx per simulated second):
    #: shards run concurrently, so the deployment's rate is the sum.
    aggregate_throughput: float
    transfers: dict[str, int]
    conservation_ok: bool
    supply0: int
    supply1: int
    assignment: dict[str, int]
    per_shard: dict[int, ShardFinal]
    #: Aborted-transfer totals bucketed by machine-readable code.
    abort_codes: dict[str, int] = field(default_factory=dict)
    #: Bridge-journal counters: rollbacks compensated, relocks, resyncs.
    recovery: dict[str, int] = field(default_factory=dict)
    #: Always empty: a lost worker is respawned or the run raises
    #: ``WorkerLostError``, so no shard is ever left behind.  Kept only
    #: because ``bench/workloads.py`` still checks it.
    degraded_shards: tuple[int, ...] = ()

    def digest(self) -> str:
        """One digest over every shard's state digest (bit-identity)."""
        blob = "|".join(
            f"{index}:{self.per_shard[index].state_digest}"
            for index in sorted(self.per_shard)
        )
        return hashlib.sha256(blob.encode()).hexdigest()


class ShardedSystem:
    """Coordinator over ``S`` independent shard deployments."""

    def __init__(self, config: ShardedConfig | None = None) -> None:
        self.config = config or ShardedConfig()
        self.assignment = round_robin(
            self.config.pool_ids, self.config.num_shards
        )
        self.faults = ShardFaultBook(tuple(self.config.shard_faults))
        self.faults.validate(self.config.num_shards)
        self.router = CrossShardRouter(
            self.assignment, self.config.num_shards
        )
        self.registry = TransferRegistry(self.router)
        self.journal = BridgeJournal()
        #: Fork compensations queued for a shard's next online boundary.
        self._compensations: dict[int, list[RelockEscrow | ResyncResolve]] = {}
        self.specs = self._build_specs()
        self._scheduler: ShardScheduler | None = None
        self._ran = False
        self.epoch_records: list[dict[int, ShardEpochRecord]] = []

    # -- construction ----------------------------------------------------------

    def _build_specs(self) -> list[ShardSpec]:
        config = self.config
        multipliers = config.load_profile.multipliers(config.num_shards)
        pool_counts = [
            len(pools_of(self.assignment, shard))
            for shard in range(config.num_shards)
        ]
        weights = [
            count * mult for count, mult in zip(pool_counts, multipliers)
        ]
        total_weight = sum(weights)
        if total_weight <= 0:
            raise ConfigurationError("no shard carries any traffic weight")
        population_seed = config.base.resolved_population_seed
        specs = []
        for shard in range(config.num_shards):
            volume = round(
                config.base.daily_volume * weights[shard] / total_weight
            )
            chassis = replace(
                config.base,
                seed=shard_substream_seed(config.base.seed, shard),
                population_seed=population_seed,
                daily_volume=volume,
            )
            specs.append(
                ShardSpec(
                    index=shard,
                    num_shards=config.num_shards,
                    chassis=chassis,
                    assignment=dict(self.assignment),
                    cross_shard_ratio=config.cross_shard_ratio,
                    return_ratio=config.return_ratio,
                    fault_plan=self.faults.plan_for(shard),
                    offline_epochs=self.faults.offline_epochs_for(shard),
                )
            )
        return specs

    # -- running ---------------------------------------------------------------

    @property
    def scheduler(self) -> ShardScheduler:
        if self._scheduler is None:
            self._scheduler = ShardScheduler(self.specs, jobs=self.config.jobs)
        return self._scheduler

    def run(self, num_epochs: int = 3) -> ShardedRunReport:
        """Run ``num_epochs`` of traffic plus drain; return the report.

        One-shot: the shards' books are closed by ``finish`` at the end
        (final mass-syncs, metrics folding), so a second run would start
        from finalized state.  Build a fresh system instead.
        """
        if num_epochs < 1:
            raise ConfigurationError("num_epochs must be >= 1")
        if self._ran:
            raise ConfigurationError(
                "ShardedSystem.run is one-shot; build a fresh system"
            )
        self._ran = True
        scheduler = self.scheduler
        baseline: tuple[int, int] | None = None
        epoch = 0
        try:
            while True:
                inject = epoch < num_epochs
                offline = self.faults.any_offline(epoch)
                instructions = self._boundary_instructions(epoch, offline)
                records = scheduler.run_epoch(epoch, inject, instructions)
                self.epoch_records.append(records)
                self._fold_records(records)
                baseline = self._check_conservation(records, baseline, epoch)
                queue_depth = sum(r.queue_depth for r in records.values())
                epoch += 1
                if (
                    not inject
                    and queue_depth == 0
                    and not self.registry.has_pending()
                    and not self._compensations_pending()
                ):
                    break
                if epoch > num_epochs + constants.MAX_DRAIN_EPOCHS:
                    raise ConfigurationError(
                        "sharded drain did not complete within "
                        f"{constants.MAX_DRAIN_EPOCHS} epochs"
                    )
            finals = scheduler.finish()
        except BaseException:
            # The fail-loudly paths (conservation violation, drain
            # timeout, a worker crash) must not abandon forked workers.
            scheduler.close()
            raise
        return self._report(
            finals, epochs_run=epoch, injected=num_epochs, baseline=baseline
        )

    def _boundary_instructions(
        self, epoch: int, offline: frozenset[int]
    ) -> dict[int, ShardInstructions]:
        """Assemble every shard's boundary inbox, journaling as it goes.

        Delivery order per shard: fork compensations first (a resolve
        landing in the same inbox may need its relocked escrow), then
        escrow settlements.
        """
        inboxes: dict[int, ShardInstructions] = {}
        for shard in sorted(self._compensations):
            if shard in offline:
                continue  # deferred until the shard is back
            for comp in self._compensations.pop(shard):
                if isinstance(comp, RelockEscrow):
                    self.journal.record_lock(
                        shard, comp.transfer[0], epoch, at_boundary=True
                    )
                else:
                    self.journal.record_resolve(
                        shard, comp.transfer_id, epoch, comp.settle
                    )
                inboxes.setdefault(shard, []).append(comp)
        settlements = self.registry.instructions_for(offline)
        for shard in sorted(settlements):
            for item in settlements[shard]:
                if item[0] == "credit":
                    row = item[1]
                    self.journal.record_credit(shard, row[0], epoch)
                else:
                    _, transfer_id, settle, _, _ = item
                    self.journal.record_resolve(shard, transfer_id, epoch, settle)
            inboxes.setdefault(shard, []).extend(settlements[shard])
        return inboxes

    def _fold_records(
        self, records: dict[int, ShardEpochRecord]
    ) -> None:
        """Registry and journal bookkeeping for one epoch."""
        for index in sorted(records):
            record = records[index]
            self.registry.add_prepares(record.prepares)
            for prepare in record.prepares:
                self.journal.record_lock(index, prepare[0], record.epoch)
        # Replay rollbacks only after every lock is journaled and every
        # prepare is registered — compensation lookups need both.
        for index in sorted(records):
            for rollback in records[index].rollbacks:
                compensations = self.journal.compensations_for(
                    rollback, self.registry.outcome
                )
                if compensations:
                    self._compensations.setdefault(index, []).extend(
                        compensations
                    )

    def _compensations_pending(self) -> bool:
        """Compensations left to deliver?"""
        return any(bool(comps) for comps in self._compensations.values())

    def _check_conservation(
        self,
        records: dict[int, ShardEpochRecord],
        baseline: tuple[int, int] | None,
        epoch: int,
    ) -> tuple[int, int]:
        in_flight = self.registry.in_flight_value()
        total0 = sum(r.supply0 for r in records.values()) + in_flight[0]
        total1 = sum(r.supply1 for r in records.values()) + in_flight[1]
        if baseline is None:
            return (total0, total1)
        if (total0, total1) != baseline:
            raise EscrowError(
                f"token conservation violated at epoch {epoch}: "
                f"({total0}, {total1}) != baseline {baseline}"
            )
        return baseline

    def _report(
        self,
        finals: dict[int, ShardFinal],
        epochs_run: int,
        injected: int,
        baseline: tuple[int, int] | None,
    ) -> ShardedRunReport:
        processed = sum(f.metrics["processed_txs"] for f in finals.values())
        rejected = sum(f.metrics["rejected_txs"] for f in finals.values())
        throughput = round(
            sum(f.metrics["throughput_tps"] for f in finals.values()), 2
        )
        supply0 = sum(f.supply0 for f in finals.values())
        supply1 = sum(f.supply1 for f in finals.values())
        # Per-epoch checks already raised on any violation; this is the
        # end-of-run restatement over the *final* shard states (after
        # the finish-time recovery epochs), so the reported flag is a
        # real measurement, not a constant.
        in_flight = self.registry.in_flight_value()
        conserved = baseline is None or (
            supply0 + in_flight[0],
            supply1 + in_flight[1],
        ) == baseline
        assert self.config.num_pools is not None
        return ShardedRunReport(
            num_shards=self.config.num_shards,
            num_pools=self.config.num_pools,
            epochs_run=epochs_run,
            injected_epochs=injected,
            aggregate_processed=processed,
            aggregate_rejected=rejected,
            aggregate_throughput=throughput,
            transfers=self.registry.counts(),
            conservation_ok=conserved,
            supply0=supply0,
            supply1=supply1,
            assignment=dict(self.assignment),
            per_shard=finals,
            abort_codes=self.registry.abort_codes(),
            recovery=self.journal.counts(),
        )
