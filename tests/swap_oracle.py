"""A deliberately naive Uniswap-v3 swap, the reference the walker is tested against.

``src/`` has one tick walker (``SwapBatch.quote``): cursor into the sorted
tick index, symbolic current tick, fee-growth overlay, everything bound to
locals.  This module is the same swap written the textbook way and shares
none of that machinery — every step bisects the tick index for its
neighbour (:func:`next_initialized_tick`), runs the pure-Python
``swap_math.compute_swap_step`` (never the compiled backend), resolves the
tick with the binary search :func:`get_tick_at_sqrt_ratio_reference` and
crosses ticks through ``TickTable.cross`` — so a property suite comparing
the two compares the production walker with something that is not itself.

Only the error types and messages are, necessarily, the production ones.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

from repro.amm import liquidity_math, swap_math, tick_math
from repro.amm.fixed_point import Q128
from repro.amm.pool import Pool
from repro.amm.tick import TickTable
from repro.errors import AMMError, NoLiquidityError, SlippageError, TickError


def next_initialized_tick(
    table: TickTable, tick: int, lte: bool
) -> tuple[int | None, bool]:
    """Find the next initialized tick at or beyond ``tick``.

    ``lte=True`` searches downwards (tick itself included), matching
    the bitmap's ``nextInitializedTickWithinOneWord`` direction for
    zero-for-one swaps.  Returns ``(tick, initialized)`` with ``None``
    when no initialized tick remains in that direction.
    """
    ticks = table._sorted
    if not ticks:
        return None, False
    if lte:
        idx = bisect.bisect_right(ticks, tick) - 1
        if idx < 0:
            return None, False
        return ticks[idx], True
    idx = bisect.bisect_right(ticks, tick)
    if idx >= len(ticks):
        return None, False
    return ticks[idx], True


def get_tick_at_sqrt_ratio_reference(sqrt_price_x96: int) -> int:
    """Binary-search reference for ``tick_math.get_tick_at_sqrt_ratio``.

    Exact by construction: it inverts the forward function directly.
    """
    if not (tick_math.MIN_SQRT_RATIO <= sqrt_price_x96 < tick_math.MAX_SQRT_RATIO):
        raise TickError(f"sqrt price {sqrt_price_x96} out of range")
    lo, hi = tick_math.MIN_TICK, tick_math.MAX_TICK
    # Invariant: ratio(lo) <= sqrt_price < ratio(hi + 1).
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if tick_math.get_sqrt_ratio_at_tick(mid) <= sqrt_price_x96:
            lo = mid
        else:
            hi = mid - 1
    return lo


@dataclass
class OracleSwap:
    """Outcome of :func:`oracle_quote`; amounts signed from the pool's side."""

    amount0: int
    amount1: int
    fee_paid: int
    sqrt_price_after_x96: int
    tick_after: int
    liquidity_after: int
    fee_growth_global0_x128: int
    fee_growth_global1_x128: int
    #: (tick, fee_growth_global0, fee_growth_global1) at each crossing, in order.
    crossings: list[tuple[int, int, int]] = field(default_factory=list)


def oracle_quote(
    pool: Pool,
    zero_for_one: bool,
    amount_specified: int,
    sqrt_price_limit_x96: int | None = None,
) -> OracleSwap:
    """Walk one swap over ``pool`` without changing it."""
    if not pool.initialized:
        raise AMMError("pool not initialized")
    if amount_specified == 0:
        raise AMMError("swap amount must be non-zero")
    if sqrt_price_limit_x96 is None:
        sqrt_price_limit_x96 = (
            tick_math.MIN_SQRT_RATIO + 1
            if zero_for_one
            else tick_math.MAX_SQRT_RATIO - 1
        )
    if zero_for_one:
        if not tick_math.MIN_SQRT_RATIO < sqrt_price_limit_x96 < pool.sqrt_price_x96:
            raise SlippageError(
                f"price limit {sqrt_price_limit_x96} invalid for zero-for-one"
            )
    elif not pool.sqrt_price_x96 < sqrt_price_limit_x96 < tick_math.MAX_SQRT_RATIO:
        raise SlippageError(
            f"price limit {sqrt_price_limit_x96} invalid for one-for-zero"
        )

    exact_input = amount_specified > 0
    state = OracleSwap(
        amount0=0,
        amount1=0,
        fee_paid=0,
        sqrt_price_after_x96=pool.sqrt_price_x96,
        tick_after=pool.tick,
        liquidity_after=pool.liquidity,
        fee_growth_global0_x128=pool.fee_growth_global0_x128,
        fee_growth_global1_x128=pool.fee_growth_global1_x128,
    )
    amount_remaining = amount_specified
    amount_calculated = 0

    while amount_remaining != 0 and state.sqrt_price_after_x96 != sqrt_price_limit_x96:
        price_at_step_start = state.sqrt_price_after_x96
        tick_next, initialized = next_initialized_tick(
            pool.ticks, state.tick_after, lte=zero_for_one
        )
        if tick_next is None:
            tick_next = tick_math.MIN_TICK if zero_for_one else tick_math.MAX_TICK
        tick_next = max(tick_math.MIN_TICK, min(tick_math.MAX_TICK, tick_next))
        price_at_tick_next = tick_math.get_sqrt_ratio_at_tick(tick_next)
        if zero_for_one:
            target = max(price_at_tick_next, sqrt_price_limit_x96)
        else:
            target = min(price_at_tick_next, sqrt_price_limit_x96)

        if state.liquidity_after == 0:
            state.sqrt_price_after_x96 = target
        else:
            step = swap_math.compute_swap_step(
                state.sqrt_price_after_x96,
                target,
                state.liquidity_after,
                amount_remaining,
                pool.config.fee_pips,
            )
            state.sqrt_price_after_x96 = step.sqrt_price_next_x96
            state.fee_paid += step.fee_amount
            if exact_input:
                amount_remaining -= step.amount_in + step.fee_amount
                amount_calculated -= step.amount_out
            else:
                amount_remaining += step.amount_out
                amount_calculated += step.amount_in + step.fee_amount
            growth = (step.fee_amount * Q128) // state.liquidity_after
            if zero_for_one:
                state.fee_growth_global0_x128 = (
                    state.fee_growth_global0_x128 + growth
                ) % Q128
            else:
                state.fee_growth_global1_x128 = (
                    state.fee_growth_global1_x128 + growth
                ) % Q128

        if state.sqrt_price_after_x96 == price_at_tick_next:
            if initialized:
                state.crossings.append((
                    tick_next,
                    state.fee_growth_global0_x128,
                    state.fee_growth_global1_x128,
                ))
                liquidity_net = pool.ticks.peek(tick_next).liquidity_net
                if zero_for_one:
                    liquidity_net = -liquidity_net
                state.liquidity_after = liquidity_math.add_delta(
                    state.liquidity_after, liquidity_net
                )
            state.tick_after = tick_next - 1 if zero_for_one else tick_next
        elif state.sqrt_price_after_x96 != price_at_step_start:
            state.tick_after = get_tick_at_sqrt_ratio_reference(
                state.sqrt_price_after_x96
            )

    if zero_for_one == exact_input:
        state.amount0 = amount_specified - amount_remaining
        state.amount1 = amount_calculated
    else:
        state.amount0 = amount_calculated
        state.amount1 = amount_specified - amount_remaining
    if state.amount0 == 0 and state.amount1 == 0:
        raise NoLiquidityError(
            f"no liquidity for "
            f"{'zero-for-one' if zero_for_one else 'one-for-zero'} swap "
            f"in pool {pool.config.token0}/{pool.config.token1}"
        )
    return state


def oracle_execute(pool: Pool, swap: OracleSwap) -> None:
    """Write a quoted swap into ``pool`` (quoted against this very state)."""
    for tick, fee_growth0, fee_growth1 in swap.crossings:
        pool.ticks.cross(tick, fee_growth0, fee_growth1)
    pool.sqrt_price_x96 = swap.sqrt_price_after_x96
    pool.tick = swap.tick_after
    pool.liquidity = swap.liquidity_after
    pool.fee_growth_global0_x128 = swap.fee_growth_global0_x128
    pool.fee_growth_global1_x128 = swap.fee_growth_global1_x128
    pool.balance0 += swap.amount0
    pool.balance1 += swap.amount1
    pool._state_version += 1
