"""Tick state and the initialized-tick index.

Uniswap V3 tracks per-tick liquidity deltas and "fee growth outside" so
positions can compute the fees accrued strictly inside their range.  The
Solidity implementation indexes initialized ticks with a bitmap; a sorted
list (``_sorted``) gives the same "next initialized tick" queries with
clearer Python — ``SwapBatch`` walks it with a cursor.

Read paths (``peek``, ``fee_growth_inside``) never allocate tick records:
swaps and quotes under heavy query load must not grow ``self.ticks``.
Only ``update`` — the mint/burn path — creates records.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from repro.amm.fixed_point import Q128
from repro.errors import TickError


@dataclass(slots=True)
class TickInfo:
    """Per-tick accounting (Tick.Info in the Solidity core)."""

    liquidity_gross: int = 0
    liquidity_net: int = 0
    fee_growth_outside0_x128: int = 0
    fee_growth_outside1_x128: int = 0
    initialized: bool = False


#: Shared all-zeros record used on read paths for absent ticks.  Never
#: mutated and never stored: an uninitialized tick's fee-growth-outside
#: values are zero by definition, so readers can alias one instance.
_ZERO_TICK = TickInfo()


class TickTable:
    """All initialized ticks of a pool, ordered for range queries."""

    def __init__(self, tick_spacing: int) -> None:
        if tick_spacing <= 0:
            raise TickError(f"tick spacing must be positive, got {tick_spacing}")
        self.tick_spacing = tick_spacing
        self.ticks: dict[int, TickInfo] = {}
        self._sorted: list[int] = []
        #: Cleared records kept by :meth:`clear` for :meth:`get` to reuse.
        self._spare: list[TickInfo] = []

    def __contains__(self, tick: int) -> bool:
        return tick in self.ticks

    def get(self, tick: int) -> TickInfo:
        """Fetch (creating if absent) the info record for ``tick``.

        Write-path helper: use :meth:`peek` on read paths so queries never
        allocate phantom records.
        """
        info = self.ticks.get(tick)
        if info is None:
            if self._spare:
                info = self._spare.pop()
                info.liquidity_gross = 0
                info.liquidity_net = 0
                info.fee_growth_outside0_x128 = 0
                info.fee_growth_outside1_x128 = 0
                info.initialized = False
            else:
                info = TickInfo()
            self.ticks[tick] = info
        return info

    def peek(self, tick: int) -> TickInfo:
        """Read the info record for ``tick`` without creating one.

        Absent ticks read as a fresh all-zeros record (an uninitialized
        tick's fee-growth-outside values are zero by definition) that is
        not stored in the table — mutating it has no effect.
        """
        info = self.ticks.get(tick)
        return info if info is not None else TickInfo()

    def check_spacing(self, tick: int) -> None:
        if tick % self.tick_spacing != 0:
            raise TickError(
                f"tick {tick} not aligned to spacing {self.tick_spacing}"
            )

    def update(
        self,
        tick: int,
        tick_current: int,
        liquidity_delta: int,
        fee_growth_global0_x128: int,
        fee_growth_global1_x128: int,
        upper: bool,
    ) -> bool:
        """Apply a liquidity change to a tick; returns True if it flipped.

        Mirrors Tick.update: a tick initialized below the current price
        inherits the global fee growth as its "outside" value.
        """
        info = self.get(tick)
        liquidity_gross_before = info.liquidity_gross
        liquidity_gross_after = liquidity_gross_before + liquidity_delta
        if liquidity_gross_after < 0:
            raise TickError(f"tick {tick} liquidity_gross underflow")
        flipped = (liquidity_gross_after == 0) != (liquidity_gross_before == 0)
        if liquidity_gross_before == 0:
            if tick <= tick_current:
                info.fee_growth_outside0_x128 = fee_growth_global0_x128
                info.fee_growth_outside1_x128 = fee_growth_global1_x128
            info.initialized = True
            self._insert(tick)
        info.liquidity_gross = liquidity_gross_after
        if upper:
            info.liquidity_net -= liquidity_delta
        else:
            info.liquidity_net += liquidity_delta
        if flipped and liquidity_gross_after == 0:
            # De-index now so swaps stop visiting the tick, but keep the
            # record until the pool calls ``clear`` — the position update
            # still needs its fee-growth-outside values (Uniswap order).
            self._remove(tick)
        return flipped

    def clear(self, tick: int) -> None:
        """Drop a fully-emptied tick's record (Tick.clear).

        The record is kept for reuse: LP churn that burns a range and
        re-mints it (or a neighbouring one) next would otherwise allocate
        two fresh records per round trip.  A tick that ``update`` already
        flipped out of the index (``liquidity_gross == 0``) needs no
        second ``_remove`` bisect.
        """
        info = self.ticks.pop(tick, None)
        if info is None:
            return
        if info.liquidity_gross != 0:
            self._remove(tick)
        if len(self._spare) < 16:
            self._spare.append(info)

    def cross(
        self,
        tick: int,
        fee_growth_global0_x128: int,
        fee_growth_global1_x128: int,
    ) -> int:
        """Cross an initialized tick during a swap; returns liquidity_net.

        Crossing an absent tick is a no-op returning zero net liquidity —
        the swap loop only crosses indexed ticks, so no record is created.
        """
        info = self.ticks.get(tick)
        if info is None:
            return 0
        info.fee_growth_outside0_x128 = (
            fee_growth_global0_x128 - info.fee_growth_outside0_x128
        ) % Q128
        info.fee_growth_outside1_x128 = (
            fee_growth_global1_x128 - info.fee_growth_outside1_x128
        ) % Q128
        return info.liquidity_net

    def fee_growth_inside(
        self,
        tick_lower: int,
        tick_upper: int,
        tick_current: int,
        fee_growth_global0_x128: int,
        fee_growth_global1_x128: int,
    ) -> tuple[int, int]:
        """Fee growth accrued strictly inside a range (Tick.getFeeGrowthInside).

        Arithmetic is modulo 2^256 in Solidity; Q128 wrap-around here keeps
        the same relative-difference semantics.
        """
        ticks = self.ticks
        lower = ticks.get(tick_lower) or _ZERO_TICK
        upper = ticks.get(tick_upper) or _ZERO_TICK
        if tick_current >= tick_lower:
            below0 = lower.fee_growth_outside0_x128
            below1 = lower.fee_growth_outside1_x128
        else:
            below0 = (fee_growth_global0_x128 - lower.fee_growth_outside0_x128) % Q128
            below1 = (fee_growth_global1_x128 - lower.fee_growth_outside1_x128) % Q128
        if tick_current < tick_upper:
            above0 = upper.fee_growth_outside0_x128
            above1 = upper.fee_growth_outside1_x128
        else:
            above0 = (fee_growth_global0_x128 - upper.fee_growth_outside0_x128) % Q128
            above1 = (fee_growth_global1_x128 - upper.fee_growth_outside1_x128) % Q128
        inside0 = (fee_growth_global0_x128 - below0 - above0) % Q128
        inside1 = (fee_growth_global1_x128 - below1 - above1) % Q128
        return inside0, inside1

    # -- internals -------------------------------------------------------------

    def _insert(self, tick: int) -> None:
        idx = bisect.bisect_left(self._sorted, tick)
        if idx >= len(self._sorted) or self._sorted[idx] != tick:
            self._sorted.insert(idx, tick)

    def _remove(self, tick: int) -> None:
        idx = bisect.bisect_left(self._sorted, tick)
        if idx < len(self._sorted) and self._sorted[idx] == tick:
            self._sorted.pop(idx)
