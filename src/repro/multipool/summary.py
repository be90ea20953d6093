"""Aggregated epoch summaries across pools.

One sync-transaction per epoch carries every pool's updated balances plus
the global payout list (deposits are per *token*, shared across pools, so
the payout list does not multiply with the pool count — the property that
keeps sync gas scaling with "clients and liquidity providers", not pools).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import constants
from repro.core.summary import PositionRow


@dataclass
class TokenBalanceEntry:
    """One user's updated balance in one token (multi-pool payout row)."""

    user: str
    token: str
    balance: int

    #: Half a two-token payout entry, rounded up to whole words.
    SIZE_MAINCHAIN = constants.SIZE_PAYOUT_ENTRY_MAINCHAIN // 2


@dataclass
class PoolStateEntry:
    """One pool's synced balances."""

    pool_id: str
    token0: str
    token1: str
    balance0: int
    balance1: int
    sqrt_price_x96: int

    SIZE_MAINCHAIN = 160  # five words


@dataclass
class MultiPoolEpochSummary:
    """Everything one epoch's aggregated Sync carries."""

    epoch: int
    payouts: list[TokenBalanceEntry] = field(default_factory=list)
    positions: list[PositionRow] = field(default_factory=list)
    pools: list[PoolStateEntry] = field(default_factory=list)

    @property
    def mainchain_size_bytes(self) -> int:
        return (
            len(self.payouts) * TokenBalanceEntry.SIZE_MAINCHAIN
            + len(self.positions) * constants.SIZE_POSITION_ENTRY_MAINCHAIN
            + len(self.pools) * PoolStateEntry.SIZE_MAINCHAIN
        )
