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

from repro import constants
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
        """Generate ``count`` transactions timestamped ``submitted_at``.

        The round's types are drawn first, then each transaction's user
        and parameters in order.  A mint tops up one of its user's
        positions 30% of the time (if the user has any); a burn (whole
        position) or collect targets a position of a random owner, and
        becomes a swap while nobody owns one, so the round keeps its
        count.
        """
        rng = self.rng.stream
        random, randint, choice = rng.random, rng.randint, rng.choice
        pick_owner = self.population.pick_lp_with_position
        users = self.population.users
        addresses = [user.address for user in users]
        ids, amounts, spacing = self.ids, self.amounts, self.tick_spacing
        sizes = constants.SIZE_UNISWAP_ETHEREUM
        swap_size, mint_size = round(sizes["swap"]), round(sizes["mint"])
        burn_size, collect_size = round(sizes["burn"]), round(sizes["collect"])
        center = (current_tick // spacing) * spacing

        types, weights = self.distribution.as_weights()
        txs: list[SidechainTx] = []
        append = txs.append
        mints = burns = collects = 0
        for tx_type in rng.choices(types, weights=weights, k=count):
            if tx_type == "mint":
                user = choice(users)
                positions = user.positions
                position_id = choice(positions) if positions and random() < 0.3 else None
                half_width = randint(amounts.range_min_spacings, amounts.range_max_spacings)
                amount = randint(amounts.liquidity_min, amounts.liquidity_max)
                append(MintTx(
                    user=user.address,
                    size_bytes=mint_size,
                    submitted_at=submitted_at,
                    tick_lower=center - half_width * spacing,
                    tick_upper=center + half_width * spacing,
                    amount0_desired=amount,
                    amount1_desired=amount,
                    position_id=position_id,
                    tx_id=ids(),
                ))
                mints += 1
                continue
            if tx_type != "swap":
                owner = pick_owner(self.rng)
                if owner is not None:
                    position_id = choice(owner.positions)
                    if tx_type == "burn":
                        # Generated burns withdraw the whole position (None
                        # = everything); partial burns are unit-tested.
                        append(BurnTx(
                            user=owner.address,
                            size_bytes=burn_size,
                            submitted_at=submitted_at,
                            position_id=position_id,
                            liquidity=None,
                            tx_id=ids(),
                        ))
                        burns += 1
                    else:
                        append(CollectTx(
                            user=owner.address,
                            size_bytes=collect_size,
                            submitted_at=submitted_at,
                            position_id=position_id,
                            tx_id=ids(),
                        ))
                        collects += 1
                    continue
            address = choice(addresses)
            amount = randint(amounts.swap_min, amounts.swap_max)
            append(SwapTx(
                user=address,
                size_bytes=swap_size,
                submitted_at=submitted_at,
                zero_for_one=random() < 0.5,
                exact_input=random() < 0.85,
                amount=amount,
                tx_id=ids(),
            ))
        counts = self.generated_counts
        counts["swap"] += len(txs) - mints - burns - collects
        counts["mint"] += mints
        counts["burn"] += burns
        counts["collect"] += collects
        return txs
