"""Traffic generation (Section V / VI-A).

Transactions arrive at a constant per-round rate
``rho = ceil(V_D * bt / 86400)`` where ``V_D`` is the configured daily
volume and ``bt`` the sidechain round duration — the paper's arrival
formula.  Types follow the configured distribution; parameters (amounts,
ranges) are drawn from seeded streams so runs are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.transactions import BurnTx, CollectTx, IdSpace, MintTx, SidechainTx, SwapTx
from repro.workload.distribution import TrafficDistribution
from repro.workload.users import UserPopulation


def arrival_rate_per_round(daily_volume: int, round_duration: float) -> int:
    """``rho = ceil(V_D * bt / (3600 * 24))`` — transactions per round."""
    if daily_volume < 0:
        raise ValueError(f"daily volume must be non-negative: {daily_volume}")
    if round_duration <= 0:
        raise ValueError(f"round duration must be positive: {round_duration}")
    return math.ceil(daily_volume * round_duration / 86_400)


@dataclass
class AmountModel:
    """Ranges the generator draws trade/liquidity amounts from.

    Defaults keep individual transactions small relative to the bootstrap
    deposits (1e24) and pool liquidity, like real Uniswap flow where a
    single trade rarely moves the pool price materially.
    """

    swap_min: int = 10**14
    swap_max: int = 10**17
    liquidity_min: int = 10**16
    liquidity_max: int = 10**18
    #: Half-width (in tick-spacing units) of generated position ranges.
    range_min_spacings: int = 2
    range_max_spacings: int = 50


class TrafficGenerator:
    """Produces each round's batch of sidechain transactions, numbered
    from ``ids`` (the owning deployment's id space)."""

    def __init__(
        self,
        population: UserPopulation,
        distribution: TrafficDistribution,
        rng,
        ids: IdSpace,
        tick_spacing: int = 60,
        amounts: AmountModel | None = None,
    ) -> None:
        self.population = population
        self.distribution = distribution
        self.rng = rng
        self.ids = ids
        self.tick_spacing = tick_spacing
        self.amounts = amounts or AmountModel()
        self.generated_counts = {"swap": 0, "mint": 0, "burn": 0, "collect": 0}

    def generate_round(
        self, count: int, submitted_at: float, current_tick: int = 0
    ) -> list[SidechainTx]:
        """Generate ``count`` transactions timestamped ``submitted_at``."""
        types, weights = self.distribution.as_weights()
        chosen = self.rng.choices(types, weights=weights, k=count)
        txs = []
        for tx_type in chosen:
            tx = self._generate_one(tx_type, current_tick)
            tx.submitted_at = submitted_at
            txs.append(tx)
        return txs

    def _generate_one(self, tx_type: str, current_tick: int) -> SidechainTx:
        if tx_type == "mint":
            tx = self._generate_mint(current_tick)
        elif tx_type == "burn":
            tx = self._generate_burn()
        elif tx_type == "collect":
            tx = self._generate_collect()
        else:
            tx = self._generate_swap()
        self.generated_counts[type(tx).txtype.value] += 1
        return tx

    def _generate_swap(self) -> SwapTx:
        user = self.population.pick(self.rng)
        amount = self.rng.randint(self.amounts.swap_min, self.amounts.swap_max)
        return SwapTx(
            user=user.address,
            zero_for_one=self.rng.random() < 0.5,
            exact_input=self.rng.random() < 0.85,
            amount=amount,
            tx_id=self.ids(),
        )

    def _generate_mint(self, current_tick: int) -> MintTx:
        user = self.population.pick(self.rng)
        # Occasionally top up an existing position instead of opening one.
        if user.positions and self.rng.random() < 0.3:
            position_id = self.rng.choice(sorted(user.positions))
        else:
            position_id = None
        half_width = self.rng.randint(
            self.amounts.range_min_spacings, self.amounts.range_max_spacings
        )
        center = self._align(current_tick)
        tick_lower = center - half_width * self.tick_spacing
        tick_upper = center + half_width * self.tick_spacing
        amount = self.rng.randint(
            self.amounts.liquidity_min, self.amounts.liquidity_max
        )
        return MintTx(
            user=user.address,
            tick_lower=tick_lower,
            tick_upper=tick_upper,
            amount0_desired=amount,
            amount1_desired=amount,
            position_id=position_id,
            tx_id=self.ids(),
        )

    def _generate_burn(self) -> SidechainTx:
        user = self.population.pick_lp_with_position(self.rng)
        if user is None:
            # Nobody holds a position yet; substitute a swap so the round's
            # transaction count is preserved.
            return self._generate_swap()
        position_id = self.rng.choice(sorted(user.positions))
        # Generated burns withdraw the whole position (None = everything);
        # partial burns are exercised by the unit tests.
        return BurnTx(user=user.address, position_id=position_id, liquidity=None, tx_id=self.ids())

    def _generate_collect(self) -> SidechainTx:
        user = self.population.pick_lp_with_position(self.rng)
        if user is None:
            return self._generate_swap()
        position_id = self.rng.choice(sorted(user.positions))
        return CollectTx(user=user.address, position_id=position_id, tx_id=self.ids())

    def _align(self, tick: int) -> int:
        return (tick // self.tick_spacing) * self.tick_spacing
