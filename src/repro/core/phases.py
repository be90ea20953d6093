"""The epoch loop as composable phases.

:class:`~repro.core.system.AmmBoostSystem` used to run each epoch as one
monolithic method; the scenario engine needs the loop to be *composable* —
new experiments swap, wrap or extend individual stages instead of editing
the monolith.  Each stage of the paper's epoch (Section IV) is now a phase
object operating on the system plus a per-epoch :class:`EpochContext`:

1. :class:`CommitteeHandoverPhase` — elect + key the next committee and
   certify the key hand-over (Section IV-C);
2. :class:`DepositMergePhase` — fold deposits confirmed since the last
   boundary (and NFT ownership changes) into the executor's snapshot;
3. :class:`WorkloadIngestPhase` — derive the epoch's arrival rate
   ``rho`` and inject each round's transactions through the configured
   :class:`~repro.workload.arrivals.ArrivalProcess`;
4. :class:`RoundExecutionPhase` — mine the ``omega - 1`` meta-blocks,
   packing the queue by byte capacity;
5. :class:`SummarySyncPhase` — mine the summary-block and submit the
   TSQC-authenticated Sync call;
6. :class:`PruneRecoveryPhase` — confirm pending syncs (pruning covered
   epochs, recording payout latencies) and rotate the committee.

Phases are stateless: all mutable state lives on the system and the
context, so one phase tuple can be shared by every epoch and system.  The
default pipeline reproduces the monolithic loop *byte-identically* — same
call order, same RNG streams, same clock arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import constants
from repro.core.summary import summarize_epoch
from repro.core.sync import create_tx_sync
from repro.core.transactions import BurnTx, MintTx, SidechainTx
from repro.crypto.dkg import simulate_dkg
from repro.crypto.hashing import keccak256
from repro.core.sync import SyncPayload, TsqcAuthenticator
from repro.mainchain.transactions import TxStatus
from repro.sidechain.blocks import MetaBlock, SummaryBlock
from repro.sidechain.election import elect_committee
from repro.telemetry import trace


@dataclass
class EpochContext:
    """Everything one epoch's phases share beyond the system itself."""

    epoch: int
    inject: bool
    epoch_start: float
    #: Base arrival rate (tx/round) set by :class:`WorkloadIngestPhase`.
    rho: int = 0
    #: Executor deposit balances at the epoch boundary (for the summary).
    initial_deposits: dict = field(default_factory=dict)
    #: Meta-block rounds actually mined (drain epochs may close early).
    rounds_used: int = 0
    #: Wall-clock end of the summary round, set by :class:`SummarySyncPhase`.
    summary_end: float = 0.0
    #: Seconds of consensus time faults cost this epoch so far; the
    #: fault-aware phases (:mod:`repro.faults.phases`) accumulate it and
    #: shift later rounds by it.  Always 0.0 on the default pipeline.
    fault_delay: float = 0.0


class EpochPhase:
    """One composable stage of the epoch loop."""

    def run(self, system, ctx: EpochContext) -> None:
        raise NotImplementedError


_TRACE_NAMES: dict[type, str] = {}


def phase_trace_name(phase: EpochPhase) -> str:
    """Span name for a phase: ``RoundExecutionPhase`` → ``phase.round_execution``.

    Cached per class; fault-aware subclasses get their own name so a
    trace shows which pipeline variant actually ran.
    """
    cls = type(phase)
    name = _TRACE_NAMES.get(cls)
    if name is None:
        base = cls.__name__.removesuffix("Phase")
        snake = "".join(
            ("_" + ch.lower()) if ch.isupper() and i else ch.lower()
            for i, ch in enumerate(base)
        )
        name = _TRACE_NAMES[cls] = f"phase.{snake}"
    return name


# -- 1. committee election, DKG and key hand-over -----------------------------


def elect_and_key(system, epoch: int):
    """Elect a committee by sortition and run its (fast-path) DKG.

    Also records the result as the system's "next" committee, which the
    boundary rotation installs.
    """
    seed = keccak256(b"epoch-seed", system.config.seed, epoch)
    committee = elect_committee(
        miners=system._miner_keys,
        stakes=system._stakes,
        epoch=epoch,
        seed=seed,
        committee_size=system.config.committee_size,
    )
    threshold = constants.committee_quorum(system.config.committee_size)
    dkg = simulate_dkg(
        system.config.committee_size, threshold, system.rng.child(f"dkg{epoch}")
    )
    auth = TsqcAuthenticator(
        threshold=threshold,
        group_vk=dkg.group_vk,
        shares={member: dkg.shares[i] for i, member in enumerate(committee.members)},
    )
    system._next_committee, system._next_auth = committee, auth
    return committee, auth


class CommitteeHandoverPhase(EpochPhase):
    """Elect + key epoch ``e + 1`` and certify the hand-over (IV-C).

    With ``committee_reuse_epochs`` > 1 the election/DKG output is
    amortized: the sitting committee is carried into epoch ``e + 1``
    (same members, same group key, so no hand-over certificate is needed
    — the TokenBank's chain-of-custody verification starts from its
    stored key and an unchanged key verifies with an empty chain) and a
    fresh election + DKG + certified hand-over happens only at window
    boundaries.  The default window of 1 re-keys every epoch, which is
    byte-identical to the original pipeline: ``elect_and_key`` draws the
    DKG randomness from the ``dkg{epoch}`` named substream, so skipped
    epochs do not shift any other consumer of the system RNG.
    """

    def run(self, system, ctx: EpochContext) -> None:
        committee, auth = system._committee, system._auth
        assert committee is not None and auth is not None
        if (ctx.epoch + 1) % system.config.committee_reuse_epochs != 0:
            # Inside the reuse window: carry the committee and its keys
            # forward; the boundary rotation then installs them as-is.
            system._next_committee, system._next_auth = committee, auth
            return
        next_committee, next_auth = elect_and_key(system, ctx.epoch + 1)
        signers = committee.members[: auth.threshold]
        system._handover_certs[ctx.epoch + 1] = auth.certify_handover(
            ctx.epoch + 1, next_auth.group_vk, signers
        )


# -- 2. deposit (and ownership) merge at the boundary -------------------------


def merge_new_deposits(system) -> None:
    """Credit deposits confirmed since the last boundary to the executor."""
    events = system.token_bank.deposit_events
    for timestamp, user, amount0, amount1 in events[system._deposit_cursor:]:
        balance = system.executor.deposit_of(user)
        balance[0] += amount0
        balance[1] += amount1
    system._deposit_cursor = len(events)
    if system.nft_registry is not None:
        merge_ownership_changes(system)


def merge_ownership_changes(system) -> None:
    """Apply mainchain NFT transfers to the sidechain at epoch start.

    Remark 3: position transfers happen on the mainchain, so the
    sidechain only honours the new owner from the next epoch on.
    """
    for position_id, new_owner in system.nft_registry.drain_ownership_events():
        record = system.executor.positions.get(position_id)
        if record is None:
            continue
        system.population.on_position_deleted(record.owner, position_id)
        record.owner = new_owner
        system.population.on_position_created(new_owner, position_id)


class DepositMergePhase(EpochPhase):
    """SnapshotBank: load (epoch 0) or merge the confirmed deposits."""

    def run(self, system, ctx: EpochContext) -> None:
        if ctx.epoch == 0:
            snapshot = system.snapshot_bank.take(ctx.epoch)
            system.executor.begin_epoch(snapshot.deposits)
            system._deposit_cursor = len(system.token_bank.deposit_events)
        else:
            merge_new_deposits(system)
        ctx.initial_deposits = {
            user: list(bal) for user, bal in system.executor.deposits.items()
        }
        system._epoch_txs[ctx.epoch] = []


# -- 3. workload ingest --------------------------------------------------------


class WorkloadIngestPhase(EpochPhase):
    """Derive the epoch's base arrival rate; inject each round's traffic.

    The per-round count comes from the system's
    :class:`~repro.workload.arrivals.ArrivalProcess` (constant by
    default, reproducing the paper's ``rho`` exactly).
    """

    def run(self, system, ctx: EpochContext) -> None:
        # Imported here: workload.generator itself imports core modules.
        from repro.workload.generator import arrival_rate_per_round

        ctx.rho = (
            arrival_rate_per_round(
                system.config.daily_volume, system.config.round_duration
            )
            if ctx.inject
            else 0
        )

    def ingest_round(self, system, ctx: EpochContext, round_start: float) -> None:
        """Enqueue one round's arrivals (and the one-off bootstrap LP)."""
        if ctx.inject:
            count = system.arrivals.rate_for_round(
                ctx.rho, system._global_round, round_start
            )
            self.inject_traffic(system, count, round_start)
        if not system._bootstrap_done:
            self.enqueue_bootstrap(system, round_start)
        depth = len(system.queue)
        if depth > system.metrics.peak_queue_depth:
            system.metrics.peak_queue_depth = depth

    @staticmethod
    def inject_traffic(system, count: int, submitted_at: float) -> None:
        if count <= 0:
            return
        txs = system.generator.generate_round(count, submitted_at, system.pool.tick)
        system.queue.extend(txs)

    @staticmethod
    def enqueue_bootstrap(system, submitted_at: float) -> None:
        """A dedicated wide LP position so swaps have liquidity from round 1."""
        system._bootstrap_done = True
        spacing = system.pool.config.tick_spacing
        width = 1000 * spacing
        tx = MintTx(
            user="bootstrap-lp",
            tick_lower=-width,
            tick_upper=width,
            amount0_desired=system.config.bootstrap_amount,
            amount1_desired=system.config.bootstrap_amount,
            tx_id=system.ids(),
        )
        tx.submitted_at = submitted_at
        system.queue.appendleft(tx)


# -- 4. meta-block rounds ------------------------------------------------------


class RoundExecutionPhase(EpochPhase):
    """Mine the epoch's ``omega - 1`` meta-block rounds.

    Every round but the last of an epoch mines a meta-block packed by
    byte capacity; drain epochs close as soon as the backlog is gone
    (the committee proceeds straight to the summary round rather than
    mining empty meta-blocks).
    """

    def __init__(self, ingest: WorkloadIngestPhase) -> None:
        self.ingest = ingest

    def run(self, system, ctx: EpochContext) -> None:
        for round_index in range(system.config.rounds_per_epoch - 1):
            if not ctx.inject and not system.queue:
                break
            round_start, round_end = self.round_bounds(system, ctx, round_index)
            if system.clock.now < round_start:
                system.clock.advance_to(round_start)
            self.ingest.ingest_round(system, ctx, round_start)
            self.mine_meta_block(system, ctx.epoch, round_index, round_end)
            system._global_round += 1
            system.mainchain.produce_blocks_until(round_end)
            check_pending_syncs(system)
            ctx.rounds_used += 1

    def round_bounds(
        self, system, ctx: EpochContext, round_index: int
    ) -> tuple[float, float]:
        """Wall-clock (start, end) of one meta-block round.

        The hook subclasses override to stretch or shift rounds — the
        fault-aware phase (:mod:`repro.faults.phases`) charges view-change
        penalties here — while the loop body stays shared.
        """
        round_start = ctx.epoch_start + round_index * system.config.round_duration
        return round_start, round_start + system.config.round_duration

    @staticmethod
    def mine_meta_block(
        system, epoch: int, round_index: int, round_end: float
    ) -> None:
        block = MetaBlock(
            epoch=epoch,
            round_index=round_index,
            timestamp=round_end,
            proposer=system._committee.leader() if system._committee else "",
        )
        accepted, rejected = system.executor.fill_block(
            system.queue, system.config.meta_block_size, system._global_round
        )
        metrics = system.metrics
        metrics.processed_txs += len(accepted)
        metrics.rejected_txs += rejected
        record_latency = metrics.sidechain_latency.record
        track_ownership = RoundExecutionPhase.track_position_ownership
        for tx in accepted:
            tx.included_round = round_index
            tx.included_epoch = epoch
            tx.included_at = round_end
            record_latency(round_end - tx.submitted_at)
            track_ownership(system, tx)
        block.transactions = accepted
        system._epoch_txs.setdefault(epoch, []).extend(accepted)
        block.seal()
        system.ledger.append_meta_block(block)

    @staticmethod
    def track_position_ownership(system, tx: SidechainTx) -> None:
        if isinstance(tx, MintTx):
            system.population.on_position_created(tx.user, tx.effects["position_id"])
        elif isinstance(tx, BurnTx) and tx.effects.get("deleted"):
            system.population.on_position_deleted(tx.user, tx.effects["position_id"])


# -- 5. summary-block and TSQC-authenticated sync ------------------------------


def estimate_sync_gas(payload: SyncPayload) -> int:
    """Upper-bound the Sync call's gas so its limit never truncates it."""
    payouts = sum(len(s.payouts) for s in payload.summaries)
    positions = sum(len(s.positions) for s in payload.summaries)
    estimate = (
        payouts * constants.GAS_PAYOUT_ENTRY
        + positions * 6 * constants.GAS_SSTORE_WORD
        + len(payload.summaries) * 4 * constants.GAS_SSTORE_WORD
        + (2 + len(payload.handovers)) * constants.GAS_BLS_PAIRING_CHECK
        + 200_000
    )
    return max(2_000_000, 2 * estimate)


def build_sync_payload(system, epoch: int) -> SyncPayload:
    """CreateTxSync: unsynced summaries + hand-over chain + next key."""
    assert system._auth is not None
    next_auth = system._next_auth
    handovers = [
        system._handover_certs[e]
        for e in range(system._onchain_vkc_epoch + 1, epoch + 1)
        if e in system._handover_certs
    ]
    payload = create_tx_sync(
        list(system._unsynced), vkc_next=next_auth.group_vk, handovers=handovers
    )
    signers = system._committee.members[: system._auth.threshold]
    return system._auth.sign_payload(payload, signers)


class SummarySyncPhase(EpochPhase):
    """Mine the summary-block; submit the epoch's Sync call (unless failed)."""

    def run(self, system, ctx: EpochContext) -> None:
        ctx.summary_end = (
            ctx.epoch_start + (ctx.rounds_used + 1) * system.config.round_duration
        )
        self.mine_summary_and_sync(system, ctx.epoch, ctx.initial_deposits, ctx.summary_end)
        system._global_round += 1

    @staticmethod
    def mine_summary_and_sync(
        system,
        epoch: int,
        epoch_initial_deposits: dict[str, list[int]],
        round_end: float,
    ) -> None:
        from repro.core.system import _PendingSync

        summary = summarize_epoch(
            epoch=epoch,
            meta_blocks=system.ledger.live_meta_blocks(epoch),
            initial_deposits=epoch_initial_deposits,
            pool_balance0=system.pool.balance0,
            pool_balance1=system.pool.balance1,
            pool_sqrt_price_x96=system.pool.sqrt_price_x96,
        )
        summary_block = SummaryBlock.from_meta_blocks(
            epoch=epoch,
            meta_blocks=system.ledger.live_meta_blocks(epoch),
            payouts=summary.payouts,
            positions=summary.positions,
            pool_state={
                "balance0": system.pool.balance0,
                "balance1": system.pool.balance1,
            },
            timestamp=round_end,
            payout_entry_size=constants.SIZE_PAYOUT_ENTRY_SIDECHAIN,
            position_entry_size=constants.SIZE_POSITION_ENTRY_SIDECHAIN,
        )
        system.ledger.append_summary_block(summary_block)
        system._unsynced.append(summary)

        if epoch in system.config.fail_sync_epochs:
            return  # malicious leader withholds the sync; mass-sync recovers

        payload = build_sync_payload(system, epoch)
        leader = system._committee.leader() if system._committee else "leader"
        tx = system.mainchain.submit_call(
            leader,
            "tokenbank",
            "sync",
            payload,
            size_bytes=payload.size_bytes,
            gas_limit=estimate_sync_gas(payload),
            label="sync",
        )
        system._pending_syncs.append(
            _PendingSync(
                tx=tx,
                payload=payload,
                epochs=list(payload.epochs),
                signer_epoch=epoch,
                pre_state=system.token_bank.state_snapshot(),
                pre_vkc_epoch=system._onchain_vkc_epoch,
            )
        )


# -- 6. sync confirmation, pruning, committee rotation -------------------------


def check_pending_syncs(system) -> None:
    """Confirm / drop submitted Sync calls; prune epochs they covered."""
    still_pending = []
    for pending in system._pending_syncs:
        if system.mainchain.is_confirmed(pending.tx):
            on_sync_confirmed(system, pending)
        elif pending.tx.status in (TxStatus.DROPPED, TxStatus.REVERTED):
            # Lost to a rollback (or rejected): the summaries stay in
            # system._unsynced and the next epoch mass-syncs them.
            pass
        else:
            still_pending.append(pending)
    system._pending_syncs = still_pending


def on_sync_confirmed(system, pending) -> None:
    confirm_time = pending.tx.included_at or system.clock.now
    trace.instant(
        "sync.confirmed",
        confirm_time,
        epochs=list(pending.epochs),
        signer_epoch=pending.signer_epoch,
    )
    system._confirmed_syncs.append(pending)
    system.metrics.num_syncs += 1
    if pending.tx.latency is not None:
        system.metrics.mainchain_latency.record(pending.tx.latency)
    for epoch in pending.epochs:
        if system.ledger.is_synced(epoch):
            continue
        system.ledger.mark_synced(epoch)
        system.ledger.prune_epoch(epoch)
        for tx in system._epoch_txs.pop(epoch, []):
            system.metrics.payout_latency.record(confirm_time - tx.submitted_at)
    max_epoch = max(pending.epochs)
    system._unsynced = [s for s in system._unsynced if s.epoch > max_epoch]
    system._onchain_vkc_epoch = max(system._onchain_vkc_epoch, pending.signer_epoch + 1)


class PruneRecoveryPhase(EpochPhase):
    """Let the boundary's mainchain blocks land, confirm syncs, rotate.

    The committee hands over at the epoch boundary whether or not its
    leader issued the sync (a failed leader is exactly the case the
    next committee's mass-sync recovers from).
    """

    def run(self, system, ctx: EpochContext) -> None:
        system.mainchain.produce_blocks_until(ctx.summary_end)
        check_pending_syncs(system)
        system._committee = system._next_committee
        system._auth = system._next_auth


# -- run-level metrics finalisation --------------------------------------------


class MetricsFinalizePhase(EpochPhase):
    """Fold run-wide measurements into the collector (after the last epoch)."""

    def run(self, system, ctx: EpochContext | None = None) -> None:
        system.metrics.elapsed_seconds = system.clock.now - system._traffic_start
        for block in system.mainchain.blocks:
            for tx in block.transactions:
                system.metrics.record_gas(tx.gas_breakdown)
        system.metrics.mainchain_growth_bytes = system.mainchain.growth.tx_bytes
        system.metrics.sidechain_growth_bytes = (
            system.ledger.growth.total_bytes_appended
        )
        system.metrics.sidechain_live_bytes = system.ledger.current_bytes
        system.metrics.sidechain_pruned_bytes = system.ledger.growth.pruned_bytes


def default_epoch_phases() -> tuple[EpochPhase, ...]:
    """The paper's epoch pipeline, in execution order."""
    ingest = WorkloadIngestPhase()
    return (
        CommitteeHandoverPhase(),
        DepositMergePhase(),
        ingest,
        RoundExecutionPhase(ingest),
        SummarySyncPhase(),
        PruneRecoveryPhase(),
    )
