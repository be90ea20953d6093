"""The ammBoost deployment orchestrator (epoch-level fidelity).

Wires every substrate together — the mainchain with TokenBank and the
ERC20 pair, the AMM engine, the sidechain ledger, per-epoch committee
election + DKG + key hand-over, TSQC-authenticated syncing, pruning, and
metric collection — and runs the paper's experiment loop:

* rounds of fixed duration; transactions arrive at the round start at the
  paper's rate ``rho = ceil(V_D * bt / 86400)``;
* every round but the last of an epoch mines a meta-block packed by byte
  capacity; the last round mines the summary-block (which is why measured
  throughput approaches ``capacity * (omega - 1) / omega`` — the shape of
  Table X);
* the epoch's Sync call is submitted to the mainchain, and once confirmed
  the epoch's meta-blocks are pruned and payout latencies recorded;
* after the configured epochs the queue is drained (the paper's "empty
  the transaction queues after the end of each run").

This class owns the substrates and a run's lifecycle.  Four public
methods are the only way any driver (``run``, a shard, a serving run, a
scenario) moves a deployment: :meth:`~AmmBoostSystem.setup` deploys and
starts the traffic clock, :meth:`~AmmBoostSystem.run_epoch` runs one
epoch, :meth:`~AmmBoostSystem.settle_syncs` lets submitted syncs land and
:meth:`~AmmBoostSystem.finalize_metrics` folds the run-wide measurements.
The epoch itself is decomposed into composable phase objects
(:mod:`repro.core.phases`): each :class:`~repro.core.phases.EpochPhase`
owns one stage of the loop, and an
:class:`~repro.core.phases.EpochContext` carries the per-epoch state
between them.  Custom pipelines (extra phases, swapped stages) can be
passed via ``epoch_phases``; the default pipeline is byte-identical to
the historical monolithic loop.

Interruptions (Section IV-C) are declared as a
:class:`~repro.faults.plan.FaultPlan` passed as ``fault_plan`` — withheld
syncs, view-change bursts, mainchain forks; see :mod:`repro.faults` —
and applied by the default phases through ``system.faults``.  Ad-hoc
forks go through :meth:`AmmBoostSystem.inject_mainchain_rollback`.
Both are recovered by mass-syncing with key hand-over certificates.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Sequence

from repro import constants
from repro.amm.fixed_point import encode_price_sqrt
from repro.amm.pool import Pool, PoolConfig
from repro.core import phases as epoch_phases_mod
from repro.core.executor import SidechainExecutor
from repro.core.phases import (
    EpochContext,
    EpochPhase,
    default_epoch_phases,
    phase_trace_name,
)
from repro.core.snapshot import SnapshotBank
from repro.core.summary import EpochSummary
from repro.core.sync import KeyHandover, SyncPayload, TsqcAuthenticator
from repro.core.token_bank import TokenBank
from repro.core.transactions import IdSpace, SidechainTx
from repro.crypto.vrf import vrf_keygen
from repro.errors import ConfigurationError
from repro.faults.plan import EMPTY_PLAN, FaultPlan, FaultSession, ViewChangeBurst
from repro.mainchain.chain import Mainchain
from repro.mainchain.contracts.erc20 import ERC20Token
from repro.mainchain.transactions import MainchainTransaction
from repro.metrics.collector import MetricsCollector
from repro.sidechain.chain import SidechainLedger
from repro.sidechain.election import Committee
from repro.sidechain.timing import AgreementTimeModel
from repro.simulation.clock import SimClock
from repro.telemetry import trace
from repro.simulation.rng import DeterministicRng
from repro.workload.arrivals import ArrivalProcess, ConstantArrivals
# Imported lazily inside __init__ to avoid a package-import cycle
# (workload.generator uses repro.core.transactions).
from repro.workload.distribution import TrafficDistribution


@dataclass
class AmmBoostConfig:
    """Deployment parameters (defaults are the paper's Section VI-A)."""

    round_duration: float = constants.DEFAULT_ROUND_DURATION_S
    rounds_per_epoch: int = constants.DEFAULT_ROUNDS_PER_EPOCH
    meta_block_size: int = constants.DEFAULT_META_BLOCK_SIZE
    committee_size: int = constants.DEFAULT_COMMITTEE_SIZE
    num_users: int = constants.DEFAULT_NUM_USERS
    daily_volume: int = constants.DEFAULT_DAILY_VOLUME
    seed: int = 0
    fee_pips: int = 3000
    #: Miner population the committee is drawn from.
    miner_population: int | None = None
    #: Per-user epoch deposit (both tokens).  Large enough that the default
    #: experiments never reject for coverage, matching the paper's setup.
    initial_deposit: int = 10**24
    #: Bootstrap LP position so swaps have liquidity from round one.
    bootstrap_amount: int = 10**22
    #: Remark-3 extension: wrap synced positions in transferable NFTs.
    enable_nft_positions: bool = False
    #: Seed for the user population only (default: ``seed``).  A sharded
    #: deployment gives every shard its own ``seed`` (independent
    #: committees, DKG and traffic streams) while sharing one
    #: ``population_seed`` so user addresses are identical across shards
    #: and cross-shard settles can credit the same identities.
    population_seed: int | None = None

    @property
    def resolved_population_seed(self) -> int:
        """The seed the user population is actually built from."""
        return (
            self.population_seed
            if self.population_seed is not None
            else self.seed
        )

    def __post_init__(self) -> None:
        if self.rounds_per_epoch < 2:
            raise ConfigurationError("an epoch needs at least 2 rounds")
        if self.round_duration <= 0:
            raise ConfigurationError("round duration must be positive")
        if self.meta_block_size < 2000:
            raise ConfigurationError("meta-block size too small for any tx")
        if self.miner_population is None:
            self.miner_population = max(2 * self.committee_size, 16)
        if self.miner_population < self.committee_size:
            raise ConfigurationError("miner population smaller than committee")


@dataclass
class _PendingSync:
    """A submitted Sync transaction awaiting mainchain confirmation."""

    tx: MainchainTransaction
    payload: SyncPayload
    epochs: list[int]
    signer_epoch: int
    #: TokenBank state and key-epoch captured before submission, restored
    #: if the sync's block is abandoned by a rollback.
    pre_state: dict = field(default_factory=dict)
    pre_vkc_epoch: int = 0


class AmmBoostSystem:
    """A complete ammBoost deployment over simulated substrates.

    The system is a thin orchestrator: it owns the substrates (mainchain,
    AMM pool, sidechain ledger, miner population, metrics) and delegates
    each epoch to the phase pipeline (:mod:`repro.core.phases`).
    """

    TOKEN0 = "TKA"
    TOKEN1 = "TKB"

    def __init__(
        self,
        config: AmmBoostConfig | None = None,
        distribution: TrafficDistribution | None = None,
        arrivals: ArrivalProcess | None = None,
        epoch_phases: Sequence[EpochPhase] | None = None,
        fault_plan: FaultPlan | None = None,
        executor_factory=None,
    ) -> None:
        from repro.workload.generator import TrafficGenerator
        from repro.workload.users import UserPopulation

        self.config = config or AmmBoostConfig()
        self.distribution = distribution or TrafficDistribution.uniswap_2023()
        self.arrivals = arrivals or ConstantArrivals()

        self.epoch_phases: tuple[EpochPhase, ...] = tuple(
            epoch_phases if epoch_phases is not None else default_epoch_phases()
        )
        self.rng = DeterministicRng(self.config.seed)
        self.clock = SimClock()
        self.timing = AgreementTimeModel()
        # The plan's epoch events apply inside the default phases; its
        # message-layer events cannot (the epoch-level system has no
        # message network — consensus cost flows through the timing model).
        plan = fault_plan or EMPTY_PLAN
        if not plan.is_empty() and not plan.epoch_events():
            raise ConfigurationError(
                "fault_plan contains only message-layer events, which "
                "the epoch-level system cannot apply (it has no message "
                "network) — install them on a Network / PbftRound "
                "instead (see repro.faults)"
            )
        last_meta_round = self.config.rounds_per_epoch - 2
        for burst in plan.of_type(ViewChangeBurst):
            if burst.round_index > last_meta_round:
                raise ConfigurationError(
                    f"{burst} would never fire: the last meta-block round "
                    f"of a {self.config.rounds_per_epoch}-round epoch is "
                    f"{last_meta_round} (the summary round has no view changes)"
                )
        self.faults = FaultSession(plan, self.clock)

        # -- mainchain side ---------------------------------------------------
        self.mainchain = Mainchain(clock=self.clock)
        self.token0 = ERC20Token("erc20:TKA", self.TOKEN0)
        self.token1 = ERC20Token("erc20:TKB", self.TOKEN1)
        self.token_bank = TokenBank("tokenbank", self.token0, self.token1)
        self.mainchain.deploy(self.token0)
        self.mainchain.deploy(self.token1)
        self.mainchain.deploy(self.token_bank)
        self.nft_registry = None
        if self.config.enable_nft_positions:
            from repro.core.nft import PositionNftRegistry

            self.nft_registry = PositionNftRegistry(self.token_bank)
            self.mainchain.deploy(self.nft_registry)
            self.token_bank.nft_registry = self.nft_registry

        # -- AMM engine shared by the sidechain executor ------------------------
        self.pool = Pool(
            PoolConfig(
                token0=self.TOKEN0, token1=self.TOKEN1, fee_pips=self.config.fee_pips
            )
        )
        self.pool.initialize(encode_price_sqrt(1, 1))
        # A shard-aware deployment swaps in an executor that routes
        # transaction types the single-pool executor does not know
        # (e.g. cross-shard transfer legs); the default is unchanged.
        self.executor = (
            executor_factory(self.pool)
            if executor_factory is not None
            else SidechainExecutor(self.pool)
        )
        self.snapshot_bank = SnapshotBank(self.token_bank)
        self.ledger = SidechainLedger()

        # -- users and traffic ---------------------------------------------------
        #: Where every sidechain transaction this deployment builds takes
        #: its id (they feed position ids and meta-block leaves).
        self.ids = IdSpace()
        self.population = UserPopulation(
            self.config.num_users, seed=self.config.resolved_population_seed
        )
        self.generator = TrafficGenerator(
            population=self.population,
            distribution=self.distribution,
            rng=self.rng.child("traffic"),
            ids=self.ids,
            tick_spacing=self.pool.config.tick_spacing,
        )
        self.queue: deque[SidechainTx] = deque()

        # -- miners / committees ----------------------------------------------------
        self._miner_keys = {
            f"miner{i}": vrf_keygen(f"{self.config.seed}/miner{i}")
            for i in range(self.config.miner_population)
        }
        self._stakes = {m: 1.0 for m in self._miner_keys}
        self._committee: Committee | None = None
        self._auth: TsqcAuthenticator | None = None
        self._handover_certs: dict[int, KeyHandover] = {}
        self._onchain_vkc_epoch = 0

        # -- run state ----------------------------------------------------------------
        self.metrics = MetricsCollector()
        self._unsynced: list[EpochSummary] = []
        self._pending_syncs: list[_PendingSync] = []
        self._confirmed_syncs: list[_PendingSync] = []
        self._epoch_txs: dict[int, list[SidechainTx]] = {}
        self._global_round = 0
        self._traffic_start: float | None = None
        self._deposit_cursor = 0
        self._next_epoch = 0
        self._bootstrap_done = False
        self._setup_done = False
        #: One entry per executed mainchain rollback that rewound bank
        #: state: ``{"restored_epoch": ..., "syncs_lost": ...}``.  The
        #: sharded coordinator drains this to drive bridge compensation.
        self.bridge_rewinds: list[dict[str, int]] = []

    # ------------------------------------------------------------------------
    # Setup (Figure 2)
    # ------------------------------------------------------------------------

    def setup(self) -> None:
        """Deploy-time system setup: pool, deposits, genesis committee.

        Ends by starting the traffic clock that ``elapsed_seconds`` (and
        so throughput) is measured from.
        """
        if self._setup_done:
            raise ConfigurationError("setup already ran")
        self._setup_done = True

        # Elect and key the first epoch committee; its vk_c goes into the
        # genesis configuration of TokenBank (SystemSetup, Figure 2).
        self._committee, self._auth = epoch_phases_mod.elect_and_key(self, epoch=0)
        self.token_bank.set_genesis_committee(self._auth.group_vk)

        # createPool on the mainchain.
        deployer = "system-designer"
        self.mainchain.submit_call(
            deployer, "tokenbank", "create_pool", size_bytes=100, label="create_pool"
        )

        # Fund users (faucet — not metered, it is outside the evaluation)
        # and have every user approve + deposit for the coming epochs.
        supply = self.config.initial_deposit * 4
        for user in self.population.addresses:
            self.token0.balances[user] = supply
            self.token1.balances[user] = supply
            self._submit_deposit(
                user, self.config.initial_deposit, self.config.initial_deposit
            )

        # Bootstrap LP: a dedicated user whose wide position gives swaps
        # liquidity from the first round.
        bootstrap = "bootstrap-lp"
        self.token0.balances[bootstrap] = supply
        self.token1.balances[bootstrap] = supply
        self._submit_deposit(
            bootstrap, self.config.bootstrap_amount * 2, self.config.bootstrap_amount * 2
        )

        # Let the deposit pipeline confirm (~4 blocks, Table II).
        blocks_needed = constants.DEPOSIT_CONFIRMATION_BLOCKS + 2
        self.mainchain.produce_blocks_until(
            self.clock.now + blocks_needed * self.mainchain.config.block_interval
        )
        self._traffic_start = self.clock.now

    def _submit_deposit(self, user: str, amount0: int, amount1: int) -> None:
        """The deposit pipeline: two sequential approvals, then Deposit.

        Users submit each step after the previous confirms, which is why
        the paper measures ~4 blocks for a two-token deposit (Table II).
        """
        big = amount0 * 1000 + amount1 * 1000 + 10**30
        approve0 = self.mainchain.submit_call(
            user, "erc20:TKA", "approve", "tokenbank", big,
            size_bytes=120, label="approve",
        )
        approve1 = self.mainchain.submit_call(
            user, "erc20:TKB", "approve", "tokenbank", big,
            size_bytes=120, depends_on=[approve0], label="approve",
        )
        self.mainchain.submit_call(
            user, "tokenbank", "deposit", amount0, amount1,
            size_bytes=200, depends_on=[approve1], label="deposit",
        )
        self.metrics.num_deposits += 1

    # ------------------------------------------------------------------------
    # The experiment loop
    # ------------------------------------------------------------------------

    def run(self, num_epochs: int = constants.DEFAULT_NUM_EPOCHS) -> MetricsCollector:
        """Run ``num_epochs`` of traffic, drain the queue, return metrics.

        Resumable: calling ``run`` again continues from the next epoch
        (with ``num_epochs=0`` it just drains whatever is queued).
        """
        if not self._setup_done:
            self.setup()
        target = self._next_epoch + num_epochs
        while True:
            inject = self._next_epoch < target
            if not inject and not self.queue:
                break
            self.run_epoch(self._next_epoch, inject=inject)
            self._next_epoch += 1
            if self._next_epoch >= target + constants.MAX_DRAIN_EPOCHS:
                raise ConfigurationError(
                    f"drain did not complete within {constants.MAX_DRAIN_EPOCHS} epochs"
                )
        self.settle_syncs()
        return self.finalize_metrics()

    def run_epoch(self, epoch: int, inject: bool) -> EpochContext:
        """Run one epoch through the phase pipeline; returns its context.

        Every phase runs inside a ``phase.*`` trace span (the shared no-op
        span while tracing is off).  Spans only *observe* — clock reads
        and wall-time stamps — and never alter simulation state.
        """
        ctx = EpochContext(epoch=epoch, inject=inject, epoch_start=self.clock.now)
        clock = lambda: self.clock.now  # noqa: E731 - span endpoint reader
        with trace.span("epoch.run", clock, epoch=epoch, inject=inject):
            for phase in self.epoch_phases:
                with trace.span(phase_trace_name(phase), clock, epoch=epoch):
                    phase.run(self, ctx)
        return ctx

    def settle_syncs(self) -> None:
        """Let submitted syncs land: three block intervals, then confirm."""
        self.mainchain.produce_blocks_until(
            self.clock.now + 3 * self.mainchain.config.block_interval
        )
        # Through the module attribute, so a rebinding wrapper sees the call.
        epoch_phases_mod.check_pending_syncs(self)

    def finalize_metrics(self) -> MetricsCollector:
        """Fold run-wide measurements into the collector and return it.

        Gas is re-folded from zero over the whole chain, so a resumed
        ``run`` reports the chain's gas instead of counting blocks twice.
        """
        metrics = self.metrics
        metrics.elapsed_seconds = self.clock.now - self._traffic_start
        metrics.gas_by_label = {}
        metrics.total_gas = 0
        for block in self.mainchain.blocks:
            for tx in block.transactions:
                metrics.record_gas(tx.gas_breakdown)
        metrics.mainchain_growth_bytes = self.mainchain.growth.tx_bytes
        metrics.sidechain_growth_bytes = self.ledger.growth.total_bytes_appended
        metrics.sidechain_live_bytes = self.ledger.current_bytes
        metrics.sidechain_pruned_bytes = self.ledger.growth.pruned_bytes
        return metrics

    # -- fault injection ------------------------------------------------------------------

    def inject_mainchain_rollback(self, depth: int) -> int:
        """Roll the mainchain back ``depth`` blocks (fork switch).

        Sync transactions in the abandoned blocks are lost and TokenBank's
        state is rewound to before the earliest lost sync (real rollback
        semantics — the simulated chain itself does not rewind contract
        storage).  Recovery happens through the next epoch's mass-sync,
        whose hand-over certificates re-authenticate against the rewound
        committee key.  Returns the number of sync transactions affected.
        """
        evicted = self.mainchain.rollback(depth)
        lost_sync_ids = {tx.tx_id for tx in evicted if tx.label == "sync"}
        if not lost_sync_ids:
            return 0
        # Find the records of the lost syncs; restore to the earliest one.
        affected = [
            p
            for p in self._all_sync_records()
            if p.tx.tx_id in lost_sync_ids
        ]
        affected.sort(key=lambda p: min(p.epochs))
        earliest = affected[0]
        self.token_bank.restore_state(earliest.pre_state)
        self._onchain_vkc_epoch = earliest.pre_vkc_epoch
        # The restore may truncate deposit_events below the merge cursor
        # (every truncated event was already merged into the executor, so
        # no value is lost); clamp the cursor so events appended after
        # the fork are not hidden from the next deposit merge.
        self._deposit_cursor = min(
            self._deposit_cursor, len(self.token_bank.deposit_events)
        )
        self.bridge_rewinds.append(
            {
                "restored_epoch": earliest.signer_epoch,
                "syncs_lost": len(affected),
            }
        )
        # Resurrect the lost summaries so the next sync mass-covers them.
        for record in affected:
            for summary in record.payload.summaries:
                if all(s.epoch != summary.epoch for s in self._unsynced):
                    self._unsynced.append(summary)
        self._unsynced.sort(key=lambda s: s.epoch)
        self._pending_syncs = [
            p for p in self._pending_syncs if p.tx.tx_id not in lost_sync_ids
        ]
        return len(affected)

    def _all_sync_records(self) -> list[_PendingSync]:
        """Pending plus already-confirmed sync records (for rollbacks)."""
        return self._pending_syncs + self._confirmed_syncs
