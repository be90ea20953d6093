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
call order, same RNG streams, same clock arithmetic.  Phases cover one
epoch only: :meth:`~repro.core.system.AmmBoostSystem.run_epoch` runs them
(each inside a ``phase.*`` trace span), and the run-level steps around
the epochs — setup, the final sync settle, metrics folding — are the
system's own methods.

Section IV-C interruptions apply inside phases 4-6 through the system's
:class:`~repro.faults.plan.FaultSession` (view-change bursts, withheld
syncs, mainchain forks), so any pipeline built from these phases applies
a fault plan whole.  Under the empty plan each check is a dict miss and
the run is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import constants
from repro.core.summary import summarize_epoch
from repro.core.sync import create_tx_sync
from repro.core.transactions import BurnTx, MintTx, SidechainTx, SwapTx
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
    #: Seconds of consensus time planned view changes cost this epoch so
    #: far; :meth:`RoundExecutionPhase.round_bounds` accumulates it and
    #: every later round (and the summary round) shifts by it.  Stays 0.0
    #: under the empty fault plan.
    fault_delay: float = 0.0


class EpochPhase:
    """One composable stage of the epoch loop."""

    def run(self, system, ctx: EpochContext) -> None:
        raise NotImplementedError


_TRACE_NAMES: dict[type, str] = {}


def phase_trace_name(phase: EpochPhase) -> str:
    """Span name for a phase: ``RoundExecutionPhase`` → ``phase.round_execution``.

    Cached per class, so a custom phase gets its own name in the trace.
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
    boundary rotation installs.  Neither step does work for members that
    never act: sortition proves only the winners, and the authenticator
    maps each member to its share on demand, so an epoch computes the
    shares of the quorum that signs and no others.
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
        shares=dkg.member_shares(committee.members),
    )
    system._next_committee, system._next_auth = committee, auth
    return committee, auth


class CommitteeHandoverPhase(EpochPhase):
    """Elect + key epoch ``e + 1`` and certify the hand-over (IV-C).

    Every boundary re-keys: ``elect_and_key`` draws the DKG randomness
    from the ``dkg{epoch}`` named substream, so the committee's keys shift
    no other consumer of the system RNG.
    """

    def run(self, system, ctx: EpochContext) -> None:
        committee, auth = system._committee, system._auth
        assert committee is not None and auth is not None
        _, next_auth = elect_and_key(system, ctx.epoch + 1)
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
    mining empty meta-blocks).  Planned view-change bursts stretch the
    round they hit (:meth:`round_bounds`).
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

        A round hit by a :class:`~repro.faults.plan.ViewChangeBurst` runs
        ``views`` leader replacements, each charged one agreement time of
        the committee through the system's timing model.  The penalty
        extends the round (its meta-block lands late) and accumulates in
        ``ctx.fault_delay``, which shifts every later round.
        """
        duration = system.config.round_duration
        round_start = ctx.epoch_start + round_index * duration + ctx.fault_delay
        views = system.faults.view_changes(ctx.epoch, round_index)
        if not views:
            return round_start, round_start + duration
        penalty = views * system.timing.agreement_time(system.config.committee_size)
        ctx.fault_delay += penalty
        system.faults.record(
            ctx.epoch,
            "view_change",
            round_index=round_index,
            detail=f"{views} view change(s)",
            delay=penalty,
        )
        return round_start, round_start + duration + penalty

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
        track_ownership = RoundExecutionPhase.track_position_ownership
        for tx in accepted:
            tx.included_round = round_index
            tx.included_epoch = epoch
            tx.included_at = round_end
            if type(tx) is not SwapTx:
                track_ownership(system, tx)
        record_latencies(metrics.sidechain_latency, round_end, accepted)
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


def record_latencies(stats, end: float, txs: list[SidechainTx]) -> None:
    """Record ``end - tx.submitted_at`` for every transaction, in order.

    A generated round stamps all its transactions with one
    ``submitted_at``, so each run of equal stamps is one
    :meth:`~repro.telemetry.metrics.LogHistogram.record_run` — the same
    histogram, bit for bit, as one ``record`` per transaction.
    """
    if not txs:
        return
    run_at, n = txs[0].submitted_at, 0
    for tx in txs:
        at = tx.submitted_at
        if at != run_at:
            stats.record_run(end - run_at, n)
            run_at, n = at, 0
        n += 1
    stats.record_run(end - run_at, n)


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
    """Mine the summary-block; submit the epoch's Sync call (unless withheld).

    The summary round starts after the epoch's meta-block rounds, so it
    shifts by the view-change delay they accumulated.
    """

    def run(self, system, ctx: EpochContext) -> None:
        ctx.summary_end = (
            ctx.epoch_start
            + (ctx.rounds_used + 1) * system.config.round_duration
            + ctx.fault_delay
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

        if system.faults.sync_withheld(epoch):
            # A malicious leader withholds the sync; the next epoch's
            # mass-sync recovers it (Section IV-C).
            system.faults.record(
                epoch, "sync_withheld", detail="leader withheld the Sync call"
            )
            return

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
    """Confirm / drop submitted Sync calls; prune epochs they covered.

    A confirmed sync's record (payload and TokenBank ``pre_state``) is
    kept only while a rollback could still abandon its block; below the
    mainchain's final height, or once a fork has dropped it, it goes.
    """
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
    final = system.mainchain.final_height
    system._confirmed_syncs = [
        p
        for p in system._confirmed_syncs
        if p.tx.block_number is not None and p.tx.block_number >= final
    ]


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
        record_latencies(
            system.metrics.payout_latency, confirm_time, system._epoch_txs.pop(epoch, [])
        )
    max_epoch = max(pending.epochs)
    system._unsynced = [s for s in system._unsynced if s.epoch > max_epoch]
    system._onchain_vkc_epoch = max(system._onchain_vkc_epoch, pending.signer_epoch + 1)


class PruneRecoveryPhase(EpochPhase):
    """Let the boundary's mainchain blocks land, confirm syncs, rotate.

    The committee hands over at the epoch boundary whether or not its
    leader issued the sync (a failed leader is exactly the case the
    next committee's mass-sync recovers from).  A planned
    :class:`~repro.faults.plan.Rollback` then forks the mainchain.
    """

    def run(self, system, ctx: EpochContext) -> None:
        system.mainchain.produce_blocks_until(ctx.summary_end)
        check_pending_syncs(system)
        system._committee = system._next_committee
        system._auth = system._next_auth
        rollback = system.faults.rollback_for(ctx.epoch)
        if rollback is None:
            return
        depth = self._resolve_depth(system, rollback)
        if depth < 1:
            system.faults.record(
                ctx.epoch, "rollback", detail="no blocks to abandon; skipped"
            )
            return
        synced_before = set(system.token_bank.synced_epochs)
        affected = system.inject_mainchain_rollback(depth)
        system.faults.record(
            ctx.epoch,
            "rollback",
            detail=f"depth {depth}, {affected} sync(s) abandoned",
        )
        # A deep fork can abandon earlier epochs' syncs too; log each
        # casualty so no unfinalized epoch goes unaccounted for.
        for epoch in sorted(synced_before - system.token_bank.synced_epochs):
            if epoch != ctx.epoch:
                system.faults.record(
                    epoch,
                    "sync_abandoned",
                    detail=f"fork at epoch {ctx.epoch} abandoned this sync",
                )

    @staticmethod
    def _resolve_depth(system, rollback) -> int:
        """A safe, meaningful depth for the planned fork.

        ``depth=None`` targets the epoch's own sync: let it confirm, then
        fork to just before its block.  Explicit depths are clamped to
        what :meth:`Mainchain.rollback` accepts.
        """
        chain = system.mainchain
        if rollback.depth is None:
            # Give the pending sync a few blocks to land, as the recovery
            # experiments do, then abandon everything from its block on.
            system.settle_syncs()
            sync_blocks = [
                tx.block_number
                for block in chain.blocks
                for tx in block.transactions
                if tx.label == "sync" and tx.block_number is not None
            ]
            if not sync_blocks:
                return 0
            depth = chain.height - max(sync_blocks)
        else:
            depth = rollback.depth
        return min(depth, chain.height - chain.final_height)


def default_epoch_phases(
    ingest: WorkloadIngestPhase | None = None,
) -> tuple[EpochPhase, ...]:
    """The paper's epoch pipeline, in execution order.

    ``ingest`` replaces the stock :class:`WorkloadIngestPhase` (a shard
    converts some swaps into cross-shard transfers; the serving gateway
    drains its admission queue); the round phase pulls each round's
    traffic from the same object.
    """
    if ingest is None:
        ingest = WorkloadIngestPhase()
    return (
        CommitteeHandoverPhase(),
        DepositMergePhase(),
        ingest,
        RoundExecutionPhase(ingest),
        SummarySyncPhase(),
        PruneRecoveryPhase(),
    )
