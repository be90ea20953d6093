"""Liquidity positions (Position.sol port).

A position is "a data structure ... containing a position ID, the ID (e.g.
a public key) of the owner, the amount of liquidity tokens the position
owner provided, and the total amount of fees accrued so far" (Section II).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from repro.amm.backend import Q128, mul_div
from repro.errors import LiquidityError, PositionError


class PositionKey(NamedTuple):
    """Identifies a position by owner and price range.

    :attr:`Pool.positions <repro.amm.pool.Pool.positions>` is keyed by the
    plain ``(owner, tick_lower, tick_upper)`` tuple, which the cyclic
    collector untracks; the pool builds a ``PositionKey`` only to name a
    missing position in an error message.  Being a ``NamedTuple``, it
    hashes and compares equal to that plain tuple, so a lookup by
    ``PositionKey`` still finds its position.
    """

    owner: str
    tick_lower: int
    tick_upper: int


@dataclass(slots=True)
class PositionInfo:
    """Per-position accounting (Position.Info in the Solidity core)."""

    liquidity: int = 0
    fee_growth_inside0_last_x128: int = 0
    fee_growth_inside1_last_x128: int = 0
    tokens_owed0: int = 0
    tokens_owed1: int = 0

    def update(
        self,
        liquidity_delta: int,
        fee_growth_inside0_x128: int,
        fee_growth_inside1_x128: int,
    ) -> None:
        """Apply a liquidity change and credit fees accrued since last touch."""
        if liquidity_delta == 0 and self.liquidity == 0:
            raise PositionError("cannot poke a position with no liquidity")
        new_liquidity = self.liquidity + liquidity_delta
        if new_liquidity < 0:
            raise LiquidityError(
                f"position liquidity underflow: {self.liquidity} + {liquidity_delta}"
            )
        # The position itself is the fee-growth snapshot: when the inside
        # growth has not moved since the last touch (the common mint→burn
        # round trip with no intervening swaps) — or the position held no
        # liquidity — the owed amounts are exactly zero and the two
        # 128-bit mul_divs can be skipped.
        liquidity = self.liquidity
        if liquidity and fee_growth_inside0_x128 != self.fee_growth_inside0_last_x128:
            self.tokens_owed0 += mul_div(
                (fee_growth_inside0_x128 - self.fee_growth_inside0_last_x128) % Q128,
                liquidity,
                Q128,
            )
        if liquidity and fee_growth_inside1_x128 != self.fee_growth_inside1_last_x128:
            self.tokens_owed1 += mul_div(
                (fee_growth_inside1_x128 - self.fee_growth_inside1_last_x128) % Q128,
                liquidity,
                Q128,
            )
        self.liquidity = new_liquidity
        self.fee_growth_inside0_last_x128 = fee_growth_inside0_x128
        self.fee_growth_inside1_last_x128 = fee_growth_inside1_x128
