"""The L1 baseline: Uniswap V3 deployed directly on the mainchain.

Runs the same traffic as an ammBoost experiment, but every swap, mint,
burn and collect is a mainchain transaction with the measured Uniswap
gas cost and wire size — the comparison target of Figure 5 and Tables
III/IV.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import constants
from repro.amm.fixed_point import encode_price_sqrt
from repro.core.transactions import BurnTx, CollectTx, IdSpace, MintTx, SidechainTx, SwapTx
from repro.errors import ConfigurationError
from repro.mainchain.chain import Mainchain
from repro.mainchain.contracts.erc20 import ERC20Token
from repro.mainchain.transactions import TxStatus
from repro.metrics.collector import MetricsCollector
from repro.simulation.clock import SimClock
from repro.simulation.rng import DeterministicRng
from repro.uniswap.contracts import PoolFactory, PositionManager, SwapRouterContract
from repro.workload.distribution import TrafficDistribution
from repro.workload.generator import TrafficGenerator, arrival_rate_per_round
from repro.workload.users import UserPopulation


@dataclass
class UniswapL1Config:
    """Baseline run parameters (mirrors the ammBoost defaults)."""

    daily_volume: int = 500_000
    num_users: int = constants.DEFAULT_NUM_USERS
    seed: int = 0
    #: Traffic is injected on the same cadence as the ammBoost rounds so
    #: the two systems see identical arrival processes.
    round_duration: float = constants.DEFAULT_ROUND_DURATION_S
    rounds_per_epoch: int = constants.DEFAULT_ROUNDS_PER_EPOCH
    bootstrap_amount: int = 10**22
    #: Which measured size table to use for chain growth ("sepolia" is the
    #: paper's primary baseline; "ethereum" gives the 97.60% comparison).
    size_profile: str = "sepolia"

    @property
    def sizes(self) -> dict[str, float]:
        if self.size_profile == "ethereum":
            return constants.SIZE_UNISWAP_ETHEREUM
        return constants.SIZE_UNISWAP_SEPOLIA


class UniswapL1Baseline:
    """A Uniswap-on-mainchain deployment fed by the shared generator."""

    TOKEN0 = "TKA"
    TOKEN1 = "TKB"

    def __init__(
        self,
        config: UniswapL1Config | None = None,
        distribution: TrafficDistribution | None = None,
    ) -> None:
        self.config = config or UniswapL1Config()
        self.distribution = distribution or TrafficDistribution.uniswap_2023()
        self.rng = DeterministicRng(self.config.seed)
        self.clock = SimClock()
        self.mainchain = Mainchain(clock=self.clock)
        self.token0 = ERC20Token("erc20:TKA", self.TOKEN0)
        self.token1 = ERC20Token("erc20:TKB", self.TOKEN1)
        self.mainchain.deploy(self.token0)
        self.mainchain.deploy(self.token1)
        self.factory = self.mainchain.deploy(PoolFactory())

        # Deploy the pool through the factory, then the periphery.
        self.factory.pools[(self.TOKEN0, self.TOKEN1, 3000)] = _make_pool(
            self.TOKEN0, self.TOKEN1
        )
        self.pool = self.factory.get_pool(self.TOKEN0, self.TOKEN1)
        self.router = self.mainchain.deploy(SwapRouterContract(self.pool))
        self.nfpm = self.mainchain.deploy(PositionManager(self.pool))

        self.population = UserPopulation(self.config.num_users, seed=self.config.seed)
        self.ids = IdSpace()
        self.generator = TrafficGenerator(
            population=self.population,
            distribution=self.distribution,
            rng=self.rng.child("traffic"),
            ids=self.ids,
            tick_spacing=self.pool.config.tick_spacing,
        )
        self.metrics = MetricsCollector()
        #: Maps generator position ids to NFPM token ids.
        self._nft_by_position: dict[str, int] = {}
        self._bootstrap_done = False
        self._pending: list = []

    # -- run loop ------------------------------------------------------------------

    def run(self, num_epochs: int = constants.DEFAULT_NUM_EPOCHS) -> MetricsCollector:
        """Inject the workload for ``num_epochs`` and drain the mempool."""
        start = self.clock.now
        rho = arrival_rate_per_round(
            self.config.daily_volume, self.config.round_duration
        )
        total_rounds = num_epochs * self.config.rounds_per_epoch
        for round_index in range(total_rounds):
            round_start = start + round_index * self.config.round_duration
            if self.clock.now < round_start:
                self.clock.advance_to(round_start)
            if not self._bootstrap_done:
                self._submit_bootstrap()
            for tx in self.generator.generate_round(rho, round_start, self.pool.tick):
                self._submit(tx)
            self.mainchain.produce_blocks_until(
                round_start + self.config.round_duration
            )
            self._harvest()
        drained = 0
        while self.mainchain.mempool:
            if drained >= constants.MAX_DRAIN_EPOCHS:
                raise ConfigurationError(
                    "L1 drain did not complete within "
                    f"{constants.MAX_DRAIN_EPOCHS} block intervals"
                )
            self.mainchain.produce_blocks_until(
                self.clock.now + self.mainchain.config.block_interval
            )
            self._harvest()
            drained += 1
        self._finalize(start)
        return self.metrics

    # -- submission ------------------------------------------------------------------

    def _submit_bootstrap(self) -> None:
        self._bootstrap_done = True
        spacing = self.pool.config.tick_spacing
        width = 1000 * spacing
        tx = MintTx(
            user="bootstrap-lp",
            tick_lower=-width,
            tick_upper=width,
            amount0_desired=self.config.bootstrap_amount,
            amount1_desired=self.config.bootstrap_amount,
            tx_id=self.ids(),
        )
        tx.submitted_at = self.clock.now
        self._submit(tx)

    def _submit(self, tx: SidechainTx) -> None:
        """Map a workload transaction onto a mainchain contract call."""
        sizes = self.config.sizes
        if isinstance(tx, SwapTx):
            function = "exact_input" if tx.exact_input else "exact_output"
            mc_tx = self.mainchain.submit_call(
                tx.user,
                "uniswap:router",
                function,
                tx.zero_for_one,
                tx.amount,
                size_bytes=round(sizes["swap"]),
                label="swap",
            )
        elif isinstance(tx, MintTx):
            mc_tx = self.mainchain.submit_call(
                tx.user,
                "uniswap:nfpm",
                "mint",
                tx.tick_lower,
                tx.tick_upper,
                tx.amount0_desired,
                tx.amount1_desired,
                size_bytes=round(sizes["mint"]),
                label="mint",
            )
        elif isinstance(tx, BurnTx):
            token_id = self._nft_by_position.get(tx.position_id, 0)
            mc_tx = self.mainchain.submit_call(
                tx.user,
                "uniswap:nfpm",
                "burn",
                token_id,
                size_bytes=round(sizes["burn"]),
                label="burn",
            )
        elif isinstance(tx, CollectTx):
            token_id = self._nft_by_position.get(tx.position_id, 0)
            mc_tx = self.mainchain.submit_call(
                tx.user,
                "uniswap:nfpm",
                "collect",
                token_id,
                size_bytes=round(sizes["collect"]),
                label="collect",
            )
        else:
            return
        mc_tx.submitted_at = tx.submitted_at or self.clock.now
        self._pending.append((tx, mc_tx))

    def _harvest(self) -> None:
        """Record outcomes of newly included transactions."""
        still_pending = []
        for workload_tx, mc_tx in self._pending:
            if mc_tx.included_at is None:
                still_pending.append((workload_tx, mc_tx))
                continue
            if mc_tx.status is TxStatus.CONFIRMED:
                self.metrics.processed_txs += 1
                self.metrics.mainchain_latency.record(mc_tx.latency or 0.0)
                # On L1 there is no separate payout step: confirmation *is*
                # token finality.
                self.metrics.payout_latency.record(mc_tx.latency or 0.0)
                self._track_positions(workload_tx, mc_tx)
            else:
                self.metrics.rejected_txs += 1
        self._pending = still_pending

    def _track_positions(self, workload_tx, mc_tx) -> None:
        if isinstance(workload_tx, MintTx) and isinstance(mc_tx.result, tuple):
            token_id = mc_tx.result[0]
            position_id = f"nft:{token_id}"
            self._nft_by_position[position_id] = token_id
            self.population.on_position_created(workload_tx.user, position_id)
        elif isinstance(workload_tx, BurnTx):
            nft = self.nfpm.positions.get(
                self._nft_by_position.get(workload_tx.position_id, 0)
            )
            if nft is None:
                self.population.on_position_deleted(
                    workload_tx.user, workload_tx.position_id
                )

    def _finalize(self, start: float) -> None:
        self.metrics.elapsed_seconds = self.clock.now - start
        for block in self.mainchain.blocks:
            for tx in block.transactions:
                self.metrics.record_gas(tx.gas_breakdown)
        self.metrics.mainchain_growth_bytes = self.mainchain.growth.tx_bytes


def _make_pool(token0: str, token1: str):
    from repro.amm.pool import Pool, PoolConfig

    pool = Pool(PoolConfig(token0=token0, token1=token1, fee_pips=3000))
    pool.initialize(encode_price_sqrt(1, 1))
    return pool
