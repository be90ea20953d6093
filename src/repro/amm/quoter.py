"""Read-only swap quoting (the QuoterV2 pattern).

Quotes the exact swap loop against a pool without mutating it, so callers
can validate slippage bounds and deposit coverage *before* executing.
This is a thin view over :meth:`Pool.prepare_swap`, itself a batch of one
on the engine's only tick walker (:meth:`SwapBatch.quote
<repro.amm.pool.SwapBatch.quote>`) — the quote and a subsequent execution
literally share one walk implementation, so they agree to the wei by
construction (the ammBoost executor relies on this to reject uncovered
transactions without corrupting pool state: the sidechain must "accept
only these for which issuing users own tokens on the mainchain").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.amm.pool import PendingSwap, Pool


@dataclass(frozen=True, slots=True)
class Quote:
    """Predicted outcome of a swap (amounts signed from pool perspective)."""

    amount0: int
    amount1: int
    sqrt_price_after_x96: int
    fee_paid: int

    def trader_amounts(self, zero_for_one: bool) -> tuple[int, int]:
        """(amount_in, amount_out) from the trader's perspective."""
        if zero_for_one:
            return self.amount0, -self.amount1
        return self.amount1, -self.amount0

    @classmethod
    def from_pending(cls, pending: PendingSwap) -> "Quote":
        return cls(
            amount0=pending.amount0,
            amount1=pending.amount1,
            sqrt_price_after_x96=pending.sqrt_price_after_x96,
            fee_paid=pending.fee_paid,
        )


def quote_swap(
    pool: Pool,
    zero_for_one: bool,
    amount_specified: int,
    sqrt_price_limit_x96: int | None = None,
) -> Quote:
    """Simulate ``pool.swap`` without side effects.

    Runs the pool's own swap walk (same tick visits, same rounding) and
    discards the pending commit, so the quote matches a subsequent real
    swap exactly.

    Raises :class:`~repro.errors.NoLiquidityError` (from the walk
    itself) when the swap would exchange nothing — a pool with zero
    liquidity in the swap's direction (e.g. a freshly opened pool on an
    empty shard) has no meaningful quote, only a price crash to the
    extreme ratio.
    """
    return Quote.from_pending(
        pool.prepare_swap(zero_for_one, amount_specified, sqrt_price_limit_x96)
    )
