"""One shard: a full ammBoost deployment plus cross-shard machinery.

A shard *is* an :class:`~repro.core.system.AmmBoostSystem` — its own
committee election, DKG, key hand-over, meta-block rounds, epoch
summaries, TSQC-authenticated syncs, mainchain with TokenBank, and
metrics — wrapped with three shard-aware pieces:

* :class:`ShardExecutor` — the chassis executor subclassed to process
  cross-shard transaction types: a :class:`CrossShardTransferTx` debits
  the sender and prepares an escrow; a round-trip
  :class:`CrossShardSwapTx` escrows its swap output straight back to the
  sender's home shard.
* :class:`ShardIngestPhase` — the workload phase subclassed to convert a
  deterministic fraction of generated swaps into cross-shard transfers
  aimed at pools other shards own.
* the epoch driver (:meth:`Shard.run_epoch`) — applies the coordinator's
  settlement instructions at the epoch boundary, runs the chassis epoch,
  locks the epoch's fresh prepares into the mainchain TokenBank escrow,
  and reports a picklable :class:`ShardEpochRecord` back to the
  coordinator.

Beyond escrow settlement the boundary inbox carries the recovery
layer's instructions (:mod:`repro.recovery`): fork compensations
(:class:`~repro.recovery.journal.RelockEscrow` /
:class:`~repro.recovery.journal.ResyncResolve`, both idempotent) and
pool-migration directives — a shard sheds a pool and its volume share
on :class:`~repro.recovery.migration.BeginPoolMigration`, sealing a
manifest into its epoch record, and gains them on
:class:`~repro.recovery.migration.CompletePoolMigration` one boundary
later.  Routing state (assignment, owned pools, arrival volume) is
therefore *live* per shard; absent migrations it never changes and the
shard's trajectory is byte-identical to a fixed-placement run.

A shard numbers its transactions from its own deployment's id space,
moved to :func:`stage_base` at the start of every stage (setup, each
epoch, the finish), and draws randomness only from shard-local
substreams, so a shard's trajectory is bit-identical whether it runs in
the coordinator's process or in any scheduler worker.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any

from repro.core.executor import SidechainExecutor
from repro.core.phases import WorkloadIngestPhase, default_epoch_phases
from repro.core.system import AmmBoostConfig, AmmBoostSystem
from repro.core.transactions import SwapTx
from repro.errors import DepositError, EscrowError, PlacementError
from repro.faults.plan import FaultPlan
from repro.recovery.journal import (
    RelockEscrow,
    ResyncResolve,
    RollbackReport,
)
from repro.recovery.migration import (
    AssignmentUpdate,
    BeginPoolMigration,
    CompletePoolMigration,
    PoolManifest,
)
from repro.sharding.escrow import (
    CrossShardSwapTx,
    CrossShardTransferTx,
    EscrowLedger,
    SettleCredit,
    ShardInstructions,
    SourceResolve,
    TransferRecord,
)
from repro.simulation.rng import DeterministicRng
from repro.telemetry import trace

#: Extra wire bytes a transfer carries over a plain swap (routing
#: metadata: destination shard, pool, transfer id).
TRANSFER_EXTRA_BYTES = 64

#: Ids reserved per shard / per stage within a shard: 10^9 per epoch is
#: far beyond the thousands of transactions an epoch processes.
SHARD_ID_SPACE = 10**12
STAGE_ID_SPACE = 10**9


def stage_base(shard_index: int, stage: int) -> int:
    """First id of ``stage`` in ``shard_index``'s id space.

    Stage 0 is setup; stage ``e + 1`` is epoch ``e``.  A shard's id space
    is its own whichever worker hosts it; seeking to these bases keeps
    the ids (and so the position ids and shard digests) of earlier runs.
    """
    return 1 + (shard_index + 1) * SHARD_ID_SPACE + stage * STAGE_ID_SPACE


@dataclass(frozen=True)
class ShardSpec:
    """Everything needed to build one shard, picklable into workers."""

    index: int
    num_shards: int
    chassis: AmmBoostConfig
    #: Pools this shard owns (sorted pool ids).
    pools: tuple[str, ...]
    #: The full deployment assignment ``pool_id -> shard``.
    assignment: dict[str, int]
    #: Fraction of generated exact-input swaps converted to cross-shard
    #: transfers (0 disables).
    cross_shard_ratio: float = 0.0
    #: Fraction of cross-shard trades that round-trip their output home.
    return_ratio: float = 0.5
    fault_plan: FaultPlan | None = None
    offline_epochs: frozenset[int] = frozenset()


@dataclass
class ShardEpochRecord:
    """One shard's epoch outcome, shipped back to the coordinator."""

    shard: int
    epoch: int
    online: bool
    #: Transfers prepared (mined) during this epoch.
    prepares: list[TransferRecord] = field(default_factory=list)
    queue_depth: int = 0
    processed_txs: int = 0
    rejected_txs: int = 0
    #: Epochs synced to the mainchain so far (finalization signal).
    epochs_synced: int = 0
    supply0: int = 0
    supply1: int = 0
    #: Mainchain forks this shard executed during the epoch — the
    #: coordinator replays its bridge journal over each one.
    rollbacks: list[RollbackReport] = field(default_factory=list)
    #: Pool handoffs sealed this epoch (migration protocol, step one).
    manifests: list[PoolManifest] = field(default_factory=list)
    #: Cumulative peak queue depth — the rebalancing pressure signal.
    peak_queue_depth: int = 0


@dataclass
class ShardFinal:
    """A shard's end-of-run report."""

    shard: int
    metrics: dict[str, Any]
    ledger_counts: dict[str, int]
    supply0: int = 0
    supply1: int = 0
    epochs_synced: int = 0
    epochs_run: int = 0
    fault_log_len: int = 0
    state_digest: str = ""


class ShardExecutor(SidechainExecutor):
    """Chassis executor that understands cross-shard transaction types.

    No dispatch is overridden: the cross-shard classes are registered
    with the chassis block builder — a :class:`CrossShardTransferTx` gets
    its own handler, a :class:`CrossShardSwapTx` executes as a swap
    (sharing the open batch with its neighbours) and has its return leg
    escrowed once accepted.
    """

    REJECTS = (*SidechainExecutor.REJECTS, EscrowError)

    def __init__(self, pool: Any, shard: "Shard") -> None:
        super().__init__(pool)
        self.shard = shard
        self._handlers[CrossShardTransferTx] = self._process_transfer
        self._swap_hooks[CrossShardSwapTx] = self._escrow_return_leg

    def process(self, tx: Any, current_round: int = 0) -> bool:
        """The chassis ``process``; defined here only so the benchmark's
        layer bill can wrap the shard executor's entry point by name."""
        return super().process(tx, current_round)

    def _process_transfer(self, tx: CrossShardTransferTx) -> None:
        """Prepare: debit the sender; record the escrow (leg 1)."""
        if tx.amount <= 0:
            raise EscrowError("transfer amount must be positive")
        in_index = 0 if tx.zero_for_one else 1
        balance = self.deposit_of(tx.user)
        if balance[in_index] < tx.amount:
            raise DepositError(
                f"deposit {balance[in_index]} cannot cover cross-shard "
                f"transfer of {tx.amount}"
            )
        amount0 = tx.amount if tx.zero_for_one else 0
        amount1 = 0 if tx.zero_for_one else tx.amount
        # prepare() is the last call that can raise (duplicate transfer
        # id) — it must run before the debit so a rejection leaves all
        # state untouched, like every other executor rejection.
        self.shard.ledger.prepare(
            TransferRecord(
                transfer_id=tx.transfer_id,
                user=tx.user,
                source_shard=self.shard.index,
                dest_shard=tx.dest_shard,
                dest_pool=tx.dest_pool,
                amount0=amount0,
                amount1=amount1,
                epoch=self.shard.current_epoch,
                zero_for_one=tx.zero_for_one,
                exact_input=tx.exact_input,
                swap_amount=tx.amount,
                return_output=tx.return_output,
            )
        )
        balance[in_index] -= tx.amount
        tx.effects = {"delta0": -amount0, "delta1": -amount1, "fee": 0}
        trace.async_begin(
            "xfer.transfer",
            tx.transfer_id,
            self.shard.system.clock.now,
            source_shard=self.shard.index,
            dest_shard=tx.dest_shard,
            amount=tx.amount,
        )

    def _escrow_return_leg(self, tx: CrossShardSwapTx) -> None:
        """Round trip: escrow an executed swap's output back home."""
        if not tx.return_output:
            return
        delta0 = int(tx.effects.get("delta0", 0))
        delta1 = int(tx.effects.get("delta1", 0))
        out0 = max(delta0, 0)
        out1 = max(delta1, 0)
        if out0 == 0 and out1 == 0:
            return  # rounding left nothing to return
        balance = self.deposit_of(tx.user)
        balance[0] -= out0
        balance[1] -= out1
        tx.effects["delta0"] = delta0 - out0
        tx.effects["delta1"] = delta1 - out1
        shard = self.shard
        return_id = shard.ledger.next_transfer_id(shard.current_epoch)
        shard.ledger.prepare(
            TransferRecord(
                transfer_id=return_id,
                user=tx.user,
                source_shard=shard.index,
                dest_shard=tx.home_shard,
                dest_pool="",
                amount0=out0,
                amount1=out1,
                epoch=shard.current_epoch,
                swap_amount=0,
            )
        )
        trace.async_begin(
            "xfer.transfer",
            return_id,
            shard.system.clock.now,
            source_shard=shard.index,
            dest_shard=tx.home_shard,
            leg="return",
        )


class ShardIngestPhase(WorkloadIngestPhase):
    """Workload ingest that skims off cross-shard trades.

    The arrival rate derives from the *shard's* live daily volume, not
    the frozen chassis config: pool migrations move volume between
    shards mid-run, and the shed/gained share must show up in the very
    next epoch's arrivals.  Without migrations the two are equal and the
    computation is bit-identical to the chassis phase.
    """

    def __init__(self, shard: "Shard") -> None:
        self.shard = shard

    def run(self, system: Any, ctx: Any) -> None:
        from repro.workload.generator import arrival_rate_per_round

        ctx.rho = (
            arrival_rate_per_round(
                self.shard.daily_volume, system.config.round_duration
            )
            if ctx.inject
            else 0
        )

    def inject_traffic(  # type: ignore[override]
        self, system: Any, count: int, submitted_at: float
    ) -> None:
        if count <= 0:
            return
        txs = system.generator.generate_round(
            count, submitted_at, system.pool.tick
        )
        system.queue.extend(
            self.shard.maybe_cross_shard(tx) for tx in txs
        )


class Shard:
    """A live shard: chassis system + escrow ledger + routing state."""

    def __init__(self, spec: ShardSpec) -> None:
        self.spec = spec
        self.index = spec.index
        self.ledger = EscrowLedger(spec.index)
        self.current_epoch = 0
        self.epochs_run = 0
        # Live routing state: seeded from the spec, mutated only by
        # migration directives (fixed placements never touch it).
        self.assignment: dict[str, int] = dict(spec.assignment)
        self.owned_pools: set[str] = {
            p for p, s in self.assignment.items() if s == spec.index
        }
        self.daily_volume: int = spec.chassis.daily_volume
        #: Pools owned by *other* shards, in deterministic order.
        self.remote_pools: tuple[str, ...] = tuple(
            sorted(p for p, s in self.assignment.items() if s != spec.index)
        )
        self._sealed_manifests: list[PoolManifest] = []
        self._rewind_cursor = 0
        self.xrng = DeterministicRng(f"{spec.chassis.seed}/xshard")
        # The chassis pipeline with the shard-aware ingest swapped in; a
        # per-shard fault plan applies through it exactly as on a
        # single-system deployment.
        self.system = AmmBoostSystem(
            spec.chassis,
            epoch_phases=default_epoch_phases(ShardIngestPhase(self)),
            fault_plan=spec.fault_plan,
            executor_factory=lambda pool: ShardExecutor(pool, self),
        )
        self.system.ids.seek(stage_base(self.index, 0))
        self.system.setup()

    # -- traffic ---------------------------------------------------------------

    def maybe_cross_shard(self, tx: Any) -> Any:
        """Convert a fraction of plain swaps into cross-shard transfers.

        Only exact-input base swaps are converted; the draw comes from
        the shard's own substream so the conversion pattern is stable
        across job counts and sibling shards.
        """
        if (
            type(tx) is not SwapTx
            or not tx.exact_input
            or not self.remote_pools
            or self.spec.cross_shard_ratio <= 0.0
            or self.xrng.random() >= self.spec.cross_shard_ratio
        ):
            return tx
        dest_pool = self.xrng.choice(self.remote_pools)
        transfer = CrossShardTransferTx(
            user=tx.user,
            zero_for_one=tx.zero_for_one,
            exact_input=True,
            amount=tx.amount,
            size_bytes=tx.size_bytes + TRANSFER_EXTRA_BYTES,
            tx_id=self.system.ids(),
            transfer_id=self.ledger.next_transfer_id(self.current_epoch),
            dest_shard=self.assignment[dest_pool],
            dest_pool=dest_pool,
            return_output=self.xrng.random() < self.spec.return_ratio,
        )
        transfer.submitted_at = tx.submitted_at
        return transfer

    # -- epoch driving ---------------------------------------------------------

    def offline(self, epoch: int) -> bool:
        return epoch in self.spec.offline_epochs

    def run_epoch(
        self,
        epoch: int,
        instructions: ShardInstructions,
        inject: bool,
    ) -> ShardEpochRecord:
        """Apply boundary instructions, run the chassis epoch, report.

        An offline epoch (partitioned committee) runs nothing: no
        meta-blocks, no summary, no sync, no escrow transitions; the
        coordinator defers this shard's instructions until it heals.
        """
        self.current_epoch = epoch
        if self.offline(epoch):
            if instructions:
                raise EscrowError(
                    f"shard {self.index} received instructions while "
                    f"offline in epoch {epoch}"
                )
            return self._record(epoch, online=False)
        traced = trace.enabled()
        prev_track = trace.set_track(f"shard{self.index}") if traced else ""
        try:
            self.system.ids.seek(stage_base(self.index, epoch + 1))
            self._apply_instructions(instructions)
            self.system.run_epoch(epoch, inject=inject)
            self.epochs_run += 1
            rollbacks = self._drain_rewinds(epoch)
            prepares = self.ledger.prepared_in(epoch)
            for record in prepares:
                self.system.token_bank.escrow_lock(
                    record.transfer_id,
                    record.user,
                    record.amount0,
                    record.amount1,
                )
                trace.async_instant(
                    "xfer.lock",
                    record.transfer_id,
                    self.system.clock.now,
                    shard=self.index,
                    epoch=epoch,
                )
            return self._record(
                epoch, online=True, prepares=prepares, rollbacks=rollbacks
            )
        finally:
            if traced:
                trace.set_track(prev_track)

    def _apply_instructions(self, instructions: ShardInstructions) -> None:
        bank = self.system.token_bank
        now = self.system.clock.now
        for instruction in instructions:
            if isinstance(instruction, SourceResolve):
                if instruction.settle:
                    bank.escrow_release(instruction.transfer_id)
                    self.ledger.mark_settled(instruction.transfer_id)
                    trace.async_end(
                        "xfer.transfer",
                        instruction.transfer_id,
                        now,
                        outcome="settled",
                        shard=self.index,
                    )
                else:
                    bank.escrow_refund(
                        instruction.transfer_id, now, instruction.reason
                    )
                    self.ledger.mark_aborted(
                        instruction.transfer_id, instruction.reason
                    )
                    self.system.metrics.record_refund(instruction.reason)
                    trace.async_end(
                        "xfer.transfer",
                        instruction.transfer_id,
                        now,
                        outcome="refunded",
                        reason=instruction.reason,
                        shard=self.index,
                    )
            elif isinstance(instruction, RelockEscrow):
                self._apply_relock(instruction.transfer)
            elif isinstance(instruction, ResyncResolve):
                self._apply_resync(instruction)
            elif isinstance(instruction, BeginPoolMigration):
                self._begin_migration(instruction)
            elif isinstance(instruction, CompletePoolMigration):
                self._complete_migration(instruction.manifest)
            elif isinstance(instruction, AssignmentUpdate):
                self.assignment[instruction.pool_id] = instruction.shard
                self._refresh_remote_pools()
            else:
                self._apply_settle_credit(instruction, now)

    def _apply_settle_credit(
        self, credit: SettleCredit, now: float
    ) -> None:
        """Inbound settle: bridge the value in; enqueue the next leg."""
        transfer = credit.transfer
        self.system.token_bank.credit_external(
            transfer.user, transfer.amount0, transfer.amount1, now
        )
        trace.async_instant(
            "xfer.credit",
            transfer.transfer_id,
            now,
            dest_shard=self.index,
        )
        if transfer.swap_amount > 0:
            leg = CrossShardSwapTx(
                user=transfer.user,
                zero_for_one=transfer.zero_for_one,
                exact_input=transfer.exact_input,
                amount=transfer.swap_amount,
                transfer_id=transfer.transfer_id,
                home_shard=transfer.source_shard,
                return_output=transfer.return_output,
                tx_id=self.system.ids(),
            )
            leg.submitted_at = now
            self.system.queue.append(leg)

    # -- fork compensation -----------------------------------------------------

    def _apply_relock(self, transfer: TransferRecord) -> None:
        """Recreate an escrow lock a mainchain fork erased.

        Idempotent — a lock the fork did not actually reach (the
        coordinator's rewound window is an over-approximation) or one a
        previous compensation already restored is left alone.
        """
        bank = self.system.token_bank
        if transfer.transfer_id in bank.escrows:
            return
        bank.escrow_lock(
            transfer.transfer_id,
            transfer.user,
            transfer.amount0,
            transfer.amount1,
        )

    def _apply_resync(self, resync: ResyncResolve) -> None:
        """Re-apply a release/refund status a fork erased — status only.

        The resolve's value movement (a refund's bridge credit) merged
        into the executor before the fork and survived it; re-running
        ``escrow_refund`` would mint the refund a second time, so only
        the record's terminal status is restored.  Idempotent: a record
        that is already terminal is left alone.
        """
        record = self.system.token_bank.escrows.get(resync.transfer_id)
        if record is None or record.status != record.PREPARED:
            return
        if resync.settle:
            record.status = record.SETTLED
        else:
            record.status = record.REFUNDED
            record.abort_reason = resync.reason

    def _drain_rewinds(self, epoch: int) -> list[RollbackReport]:
        """Turn the chassis' fork log into reports for the coordinator."""
        rewinds = self.system.bridge_rewinds
        reports = [
            RollbackReport(
                shard=self.index,
                epoch=epoch,
                restored_epoch=rewind["restored_epoch"],
                syncs_lost=rewind["syncs_lost"],
            )
            for rewind in rewinds[self._rewind_cursor:]
        ]
        self._rewind_cursor = len(rewinds)
        return reports

    # -- pool migration --------------------------------------------------------

    def _begin_migration(self, begin: BeginPoolMigration) -> None:
        """Shed a pool and its volume share; seal the handoff manifest."""
        if begin.pool_id not in self.owned_pools:
            raise PlacementError(
                f"shard {self.index} cannot shed pool {begin.pool_id!r} "
                "it does not own"
            )
        volume_moved = self.daily_volume // len(self.owned_pools)
        self.owned_pools.discard(begin.pool_id)
        self.daily_volume -= volume_moved
        self.assignment[begin.pool_id] = begin.to_shard
        self._refresh_remote_pools()
        self._sealed_manifests.append(
            PoolManifest(
                pool_id=begin.pool_id,
                from_shard=self.index,
                to_shard=begin.to_shard,
                sealed_epoch=self.current_epoch,
                volume_moved=volume_moved,
                book_digest=self._book_digest(),
            )
        )
        # Async key matches the sealed manifest so the completing shard's
        # end event stitches to this begin across tracks.
        trace.async_begin(
            "migration.pool",
            f"{begin.pool_id}@{self.current_epoch}",
            self.system.clock.now,
            pool=begin.pool_id,
            from_shard=self.index,
            to_shard=begin.to_shard,
            volume_moved=volume_moved,
        )

    def _complete_migration(self, manifest: PoolManifest) -> None:
        """Activate a migrated pool: gain its label and volume share."""
        if manifest.to_shard != self.index:
            raise PlacementError(
                f"shard {self.index} received a migration manifest "
                f"addressed to shard {manifest.to_shard}"
            )
        self.owned_pools.add(manifest.pool_id)
        self.daily_volume += manifest.volume_moved
        self.assignment[manifest.pool_id] = self.index
        self._refresh_remote_pools()
        trace.async_end(
            "migration.pool",
            f"{manifest.pool_id}@{manifest.sealed_epoch}",
            self.system.clock.now,
            pool=manifest.pool_id,
            to_shard=self.index,
        )

    def _refresh_remote_pools(self) -> None:
        self.remote_pools = tuple(
            sorted(p for p, s in self.assignment.items() if s != self.index)
        )

    def _book_digest(self) -> str:
        """Fingerprint of the AMM book, sealed into pool manifests."""
        blob = json.dumps(
            self.system.pool.snapshot(), sort_keys=True
        ).encode()
        return hashlib.sha256(blob).hexdigest()

    def finish(self) -> ShardFinal:
        """Close the shard's books: ``run()``'s tail plus recovery epochs.

        Drain epochs compress wall time, so the shard's last sync can
        race its predecessor into the same mainchain block and revert on
        a stale hand-over chain — the interruption the paper recovers by
        mass-syncing in the following epoch.  ``finish`` applies exactly
        that recovery between ``settle_syncs`` and ``finalize_metrics``:
        while summaries remain unsynced (at most three times), run one
        more (empty) epoch whose sync mass-covers them.
        """
        traced = trace.enabled()
        prev_track = trace.set_track(f"shard{self.index}") if traced else ""
        try:
            system = self.system
            system.ids.seek(stage_base(self.index, self.current_epoch + 2))
            system.settle_syncs()
            recoveries = 0
            while system._unsynced and recoveries < 3:
                recoveries += 1
                self.current_epoch += 1
                system.run_epoch(self.current_epoch, inject=False)
                self.epochs_run += 1
                system.settle_syncs()
            system.finalize_metrics()
        finally:
            if traced:
                trace.set_track(prev_track)
        supply0, supply1 = self.supply()
        return ShardFinal(
            shard=self.index,
            metrics=self.system.metrics.summary(),
            ledger_counts=self.ledger.counts(),
            supply0=supply0,
            supply1=supply1,
            epochs_synced=self._epochs_synced(),
            epochs_run=self.epochs_run,
            fault_log_len=len(self.system.faults.log),
            state_digest=self.state_digest(),
        )

    # -- accounting ------------------------------------------------------------

    def supply(self) -> tuple[int, int]:
        """This shard's conservation terms: working + pool + unmerged.

        Escrowed (in-flight) value is *not* counted here — the
        coordinator counts each in-flight transfer exactly once in its
        own registry until the value lands on a shard.
        """
        system = self.system
        total0 = system.pool.balance0
        total1 = system.pool.balance1
        for balance in system.executor.deposits.values():
            total0 += balance[0]
            total1 += balance[1]
        for event in system.token_bank.deposit_events[system._deposit_cursor:]:
            total0 += event[2]
            total1 += event[3]
        return total0, total1

    def queue_depth(self) -> int:
        return len(self.system.queue)

    def _epochs_synced(self) -> int:
        return sum(
            1
            for epoch in range(self.current_epoch + 1)
            if self.system.ledger.is_synced(epoch)
        )

    def _record(
        self,
        epoch: int,
        online: bool,
        prepares: list[TransferRecord] | None = None,
        rollbacks: list[RollbackReport] | None = None,
    ) -> ShardEpochRecord:
        supply0, supply1 = self.supply()
        manifests = self._sealed_manifests
        self._sealed_manifests = []
        return ShardEpochRecord(
            shard=self.index,
            epoch=epoch,
            online=online,
            prepares=list(prepares or []),
            queue_depth=self.queue_depth(),
            processed_txs=self.system.metrics.processed_txs,
            rejected_txs=self.system.metrics.rejected_txs,
            epochs_synced=self._epochs_synced(),
            supply0=supply0,
            supply1=supply1,
            rollbacks=list(rollbacks or []),
            manifests=manifests,
            peak_queue_depth=self.system.metrics.peak_queue_depth,
        )

    def state_digest(self) -> str:
        """A stable digest of shard state, for bit-identity tests."""
        system = self.system
        payload = {
            "deposits": sorted(
                (user, balance[0], balance[1])
                for user, balance in system.executor.deposits.items()
            ),
            "pool": system.pool.snapshot(),
            "bank_deposits": sorted(
                (user, balance[0], balance[1])
                for user, balance in system.token_bank.deposits.items()
            ),
            "escrows": sorted(
                (r.transfer_id, r.status, r.amount0, r.amount1)
                for r in system.token_bank.escrows.values()
            ),
            "ledger": sorted(
                (r.transfer_id, r.status, r.amount0, r.amount1)
                for r in self.ledger.records.values()
            ),
            "processed": system.metrics.processed_txs,
            "rejected": system.metrics.rejected_txs,
            "syncs": system.metrics.num_syncs,
        }
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()
