"""The liquidity pool: Uniswap V3 core logic in Python.

Implements the pool lifecycle — initialize, mint, burn, collect and swap
(exact input and exact output, both directions, with price limits) — with
the same rounding and fee-accounting behaviour as ``UniswapV3Pool.sol``.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from repro.amm import backend, liquidity_math
from repro.amm.backend import Q128
from repro.amm.position import PositionInfo, PositionKey
from repro.amm.tick import TickInfo, TickTable
from repro.errors import (
    AMMError,
    LiquidityError,
    NoLiquidityError,
    PositionError,
    SlippageError,
)

#: Standard fee tiers -> tick spacing, as deployed by the Uniswap factory.
TICK_SPACING_BY_FEE = {100: 1, 500: 10, 3000: 60, 10000: 200}


@dataclass
class PoolConfig:
    """Immutable pool parameters."""

    token0: str
    token1: str
    fee_pips: int = 3000
    tick_spacing: int | None = None

    def __post_init__(self) -> None:
        if self.token0 == self.token1:
            raise AMMError("pool tokens must differ")
        if self.tick_spacing is None:
            spacing = TICK_SPACING_BY_FEE.get(self.fee_pips)
            if spacing is None:
                raise AMMError(f"unknown fee tier {self.fee_pips}")
            self.tick_spacing = spacing


@dataclass(slots=True)
class SwapResult:
    """Outcome of a swap, amounts signed from the pool's perspective.

    Positive amounts flow *into* the pool, negative amounts are paid out.
    """

    amount0: int
    amount1: int
    sqrt_price_x96: int
    tick: int
    liquidity: int
    fee_paid: int


class PendingSwap:
    """A fully-computed swap awaiting :meth:`commit` — a batch of one.

    ``prepare_swap`` opens a private :class:`SwapBatch`, quotes the swap on
    it and hands back this handle.  Callers inspect the outcome (slippage
    limits, deposit coverage) and either drop the object — a pure quote —
    or ``commit`` it, which accepts the quote and applies the batch without
    walking again.
    """

    __slots__ = (
        "_batch", "zero_for_one",
        "amount0", "amount1", "fee_paid", "sqrt_price_after_x96",
    )

    def __init__(self, batch: "SwapBatch", zero_for_one: bool) -> None:
        self._batch = batch
        self.zero_for_one = zero_for_one
        self.amount0 = batch.amount0
        self.amount1 = batch.amount1
        self.fee_paid = batch.fee_paid
        self.sqrt_price_after_x96 = batch.sqrt_price_after_x96

    def trader_amounts(self) -> tuple[int, int]:
        """(amount_in, amount_out) from the trader's perspective."""
        if self.zero_for_one:
            return self.amount0, -self.amount1
        return self.amount1, -self.amount0

    def commit(self) -> SwapResult:
        """Apply the prepared swap to the pool (no second tick walk).

        One-shot: the pool's state version must still match the one seen
        at prepare time, so any intervening mutation — another swap, a
        mint/burn/collect, or an earlier commit of this same object —
        voids the pending swap.
        """
        batch = self._batch
        pool = batch.pool
        if pool._state_version != batch._version:
            raise AMMError("pool state changed since swap was prepared")
        batch.accept()
        batch.commit()
        return SwapResult(
            amount0=self.amount0,
            amount1=self.amount1,
            sqrt_price_x96=pool.sqrt_price_x96,
            tick=pool.tick,
            liquidity=pool.liquidity,
            fee_paid=self.fee_paid,
        )


@dataclass(frozen=True, slots=True)
class Quote:
    """Predicted outcome of a swap (amounts signed from pool perspective).

    Defined here, beside :class:`PendingSwap`, so
    :meth:`PoolSnapshot.quote` builds one without an import per call;
    :mod:`repro.amm.quoter` re-exports it.
    """

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


class SwapBatch:
    """The swap walker: one amortized tick walk for any number of swaps.

    Every swap in the engine runs through :meth:`quote` — a round's run of
    swaps in the executor, a lone ``Pool.prepare_swap`` (a batch of one)
    and a ``PoolSnapshot`` quote (a batch that never commits).

    ``Pool.begin_swap_batch`` snapshots the pool's swap state (price, tick,
    liquidity, fee growth) and aliases the sorted initialized-tick index
    once.  Each :meth:`quote` then continues the walk from the batch's
    *virtual* state, finding neighbouring ticks through an incrementally
    maintained cursor into that index instead of a fresh bisect per step.
    The caller inspects the quote (``amount0``/``amount1``/``fee_paid``/
    ``sqrt_price_after_x96``), then either :meth:`accept` — folding it
    into the virtual state — or simply quotes the next swap, which
    discards the candidate.  :meth:`commit` applies the whole batch to
    the pool in one shot.

    For the same transaction order, quote/accept per transaction followed
    by one commit leaves the pool exactly where one batch-of-one per
    transaction would (``tests/swap_oracle.py`` is the naive sequential
    reference both are tested against) —

    * the cursor invariant (down-next ``= index[lo]``, up-next
      ``= index[lo + 1]``) reproduces a fresh bisect per step exactly,
      including the boundary cases after a swap stops on a crossed tick,
      because crossings move the cursor by exactly one slot and mid-range
      stops leave it untouched;
    * fee-growth-outside flips of accepted swaps live in an overlay that
      later quotes read back, which is precisely what per-swap commits
      would have written into the tick records;
    * the current tick is tracked symbolically (``tick_next - 1`` /
      ``tick_next`` on crossings) and resolved with a single
      ``get_tick_at_sqrt_ratio`` at commit when the last accepted swap
      stopped mid-range, so quotes that are never committed pay for no
      log-price call at all.

    The pool must not be mutated while the batch is open: commit checks
    the state version recorded at open and refuses to apply otherwise,
    and mints/burns may not interleave with an open batch.
    """

    __slots__ = (
        "pool", "amount0", "amount1", "fee_paid", "sqrt_price_after_x96",
        "_version", "_iticks", "_lo",
        "_sqrt_price", "_tick", "_tick_known", "_liquidity",
        "_fg0", "_fg1", "_delta0", "_delta1", "_accepted",
        "_overlay", "_crossings", "_cand",
    )

    def __init__(self, pool: "Pool") -> None:
        pool._require_initialized()
        self.pool = pool
        self._version = pool._state_version
        # Alias, don't copy, the live sorted index: nothing else may touch
        # the pool while the batch is open (commit enforces it through the
        # state version), and commit itself only rewrites tick records,
        # never the index.
        self._iticks = pool.ticks._sorted
        self._lo = bisect.bisect_right(self._iticks, pool.tick) - 1
        self._sqrt_price = pool.sqrt_price_x96
        self._tick = pool.tick
        self._tick_known = True
        self._liquidity = pool.liquidity
        self._fg0 = pool.fee_growth_global0_x128
        self._fg1 = pool.fee_growth_global1_x128
        self._delta0 = 0
        self._delta1 = 0
        self._accepted = 0
        #: tick -> (outside0, outside1): pending fee-growth flips of every
        #: accepted swap, read back when a later quote re-crosses the tick.
        self._overlay: dict[int, tuple[int, int]] = {}
        #: Scratch crossing list for the candidate quote, reused across quotes.
        self._crossings: list[tuple[int, int, int]] = []
        self._cand: tuple | None = None
        #: Outputs of the last quote, pool-perspective signs like SwapResult.
        self.amount0 = 0
        self.amount1 = 0
        self.fee_paid = 0
        self.sqrt_price_after_x96 = 0

    def trader_amounts(self) -> tuple[int, int]:
        """(amount_in, amount_out) of the last quote, trader's perspective."""
        cand = self._cand
        if cand is None:
            raise AMMError("no quote outstanding")
        if cand[0]:  # zero_for_one
            return self.amount0, -self.amount1
        return self.amount1, -self.amount0

    def quote(
        self,
        zero_for_one: bool,
        amount_specified: int,
        sqrt_price_limit_x96: int | None = None,
    ) -> tuple[int, int]:
        """Quote one swap against the batch's virtual state.

        Arguments as for :meth:`Pool.swap`.  Returns ``(amount0, amount1)``
        with pool-perspective signs and stores them (plus ``fee_paid`` and
        ``sqrt_price_after_x96``) on the batch.  The quote is a
        *candidate*: nothing changes until :meth:`accept`.
        """
        self._cand = None
        if amount_specified == 0:
            raise AMMError("swap amount must be non-zero")
        sqrt_price = self._sqrt_price
        if sqrt_price_limit_x96 is None:
            sqrt_price_limit_x96 = (
                backend.MIN_SQRT_RATIO + 1
                if zero_for_one
                else backend.MAX_SQRT_RATIO - 1
            )
        if zero_for_one:
            if not (backend.MIN_SQRT_RATIO < sqrt_price_limit_x96 < sqrt_price):
                raise SlippageError(
                    f"price limit {sqrt_price_limit_x96} invalid for zero-for-one"
                )
        else:
            if not (sqrt_price < sqrt_price_limit_x96 < backend.MAX_SQRT_RATIO):
                raise SlippageError(
                    f"price limit {sqrt_price_limit_x96} invalid for one-for-zero"
                )

        exact_input = amount_specified > 0
        amount_remaining = amount_specified
        amount_calculated = 0
        tick = self._tick
        tick_known = self._tick_known
        liquidity = self._liquidity
        if zero_for_one:
            fee_growth_global, fee_growth_other = self._fg0, self._fg1
        else:
            fee_growth_global, fee_growth_other = self._fg1, self._fg0
        total_fee = 0
        crossings = self._crossings
        crossings.clear()

        # Hot loop: bind everything to locals.  Ticks coming out of the
        # table were range-checked on mint, so the unchecked cached ratio
        # lookup is safe; the MIN/MAX fallbacks are in range by definition.
        iticks = self._iticks
        n = len(iticks)
        lo = self._lo
        overlay = self._overlay
        tick_records = self.pool.ticks.ticks
        sqrt_at = backend.sqrt_ratio_at_tick_unchecked
        step_values = backend.compute_swap_step_values
        fee_pips = self.pool.config.fee_pips
        min_tick, max_tick = backend.MIN_TICK, backend.MAX_TICK
        add_delta = liquidity_math.add_delta

        while amount_remaining != 0 and sqrt_price != sqrt_price_limit_x96:
            step_start_price = sqrt_price
            if zero_for_one:
                if lo >= 0:
                    tick_next = iticks[lo]
                    initialized = True
                else:
                    tick_next = min_tick
                    initialized = False
            else:
                hi = lo + 1
                if hi < n:
                    tick_next = iticks[hi]
                    initialized = True
                else:
                    tick_next = max_tick
                    initialized = False
            sqrt_price_next = sqrt_at(tick_next)

            if zero_for_one:
                target = (
                    sqrt_price_next
                    if sqrt_price_next > sqrt_price_limit_x96
                    else sqrt_price_limit_x96
                )
            else:
                target = (
                    sqrt_price_next
                    if sqrt_price_next < sqrt_price_limit_x96
                    else sqrt_price_limit_x96
                )

            if liquidity == 0:
                # No liquidity in range: the price jumps to the target
                # without exchanging anything.
                sqrt_price = target
            else:
                sqrt_price, amount_in, amount_out, fee_amount = step_values(
                    sqrt_price, target, liquidity, amount_remaining, fee_pips
                )
                total_fee += fee_amount
                if exact_input:
                    amount_remaining -= amount_in + fee_amount
                    amount_calculated -= amount_out
                else:
                    amount_remaining += amount_out
                    amount_calculated += amount_in + fee_amount
                fee_growth_global = (
                    fee_growth_global + (fee_amount * Q128) // liquidity
                ) % Q128

            if sqrt_price == sqrt_price_next:
                if initialized:
                    info = tick_records.get(tick_next)
                    if info is not None:
                        pending = overlay.get(tick_next)
                        if pending is not None:
                            outside0, outside1 = pending
                        else:
                            outside0 = info.fee_growth_outside0_x128
                            outside1 = info.fee_growth_outside1_x128
                        if zero_for_one:
                            crossings.append((
                                tick_next,
                                (fee_growth_global - outside0) % Q128,
                                (fee_growth_other - outside1) % Q128,
                            ))
                            liquidity = add_delta(liquidity, -info.liquidity_net)
                        else:
                            crossings.append((
                                tick_next,
                                (fee_growth_other - outside0) % Q128,
                                (fee_growth_global - outside1) % Q128,
                            ))
                            liquidity = add_delta(liquidity, info.liquidity_net)
                    if zero_for_one:
                        lo -= 1
                    else:
                        lo += 1
                tick = tick_next - 1 if zero_for_one else tick_next
                tick_known = True
            elif sqrt_price != step_start_price:
                # Stopped mid-range: defer the log-price tick resolution;
                # the cursor already encodes both neighbours.
                tick_known = False

        if zero_for_one == exact_input:
            amount0 = amount_specified - amount_remaining
            amount1 = amount_calculated
        else:
            amount0 = amount_calculated
            amount1 = amount_specified - amount_remaining
        if amount0 == 0 and amount1 == 0:
            # The walk exchanged nothing: no liquidity in the swap's
            # direction (e.g. a freshly opened pool on an empty shard).
            # Committing would only crash the price to the limit and
            # wedge the pool, so every caller — quoter, router, the
            # sidechain executor — gets a typed error instead.
            raise NoLiquidityError(
                f"no liquidity for "
                f"{'zero-for-one' if zero_for_one else 'one-for-zero'} swap "
                f"in pool {self.pool.config.token0}/{self.pool.config.token1}"
            )
        self.amount0 = amount0
        self.amount1 = amount1
        self.fee_paid = total_fee
        self.sqrt_price_after_x96 = sqrt_price
        self._cand = (
            zero_for_one, tick, tick_known, liquidity, fee_growth_global, lo,
        )
        return amount0, amount1

    def accept(self) -> None:
        """Fold the outstanding quote into the batch's virtual state."""
        cand = self._cand
        if cand is None:
            raise AMMError("no quote outstanding")
        zero_for_one, tick, tick_known, liquidity, fee_growth, lo = cand
        self._cand = None
        self._sqrt_price = self.sqrt_price_after_x96
        self._tick = tick
        self._tick_known = tick_known
        self._liquidity = liquidity
        if zero_for_one:
            self._fg0 = fee_growth
        else:
            self._fg1 = fee_growth
        self._lo = lo
        overlay = self._overlay
        for crossed, outside0, outside1 in self._crossings:
            overlay[crossed] = (outside0, outside1)
        self._delta0 += self.amount0
        self._delta1 += self.amount1
        self._accepted += 1

    def commit(self) -> None:
        """Apply every accepted swap to the pool in one pass.

        Bumps the state version by the number of accepted swaps — exactly
        what the same swaps committed one by one would have done, so
        version-based invariant checks cannot tell the paths apart.
        """
        pool = self.pool
        if pool._state_version != self._version:
            raise AMMError("pool state changed since batch was opened")
        self._version = -1  # one-shot: a second commit always fails
        if self._accepted == 0:
            return
        pool._state_version += self._accepted
        ticks = pool.ticks.ticks
        for tick, (outside0, outside1) in self._overlay.items():
            info = ticks.get(tick)
            if info is not None:
                info.fee_growth_outside0_x128 = outside0
                info.fee_growth_outside1_x128 = outside1
        pool.sqrt_price_x96 = self._sqrt_price
        pool.tick = (
            self._tick
            if self._tick_known
            else backend.get_tick_at_sqrt_ratio(self._sqrt_price)
        )
        pool.liquidity = self._liquidity
        pool.fee_growth_global0_x128 = self._fg0
        pool.fee_growth_global1_x128 = self._fg1
        pool.balance0 += self._delta0
        pool.balance1 += self._delta1


class Pool:
    """A single token-pair pool."""

    def __init__(self, config: PoolConfig) -> None:
        self.config = config
        self.sqrt_price_x96 = 0
        self.tick = 0
        self.liquidity = 0
        self.fee_growth_global0_x128 = 0
        self.fee_growth_global1_x128 = 0
        self.ticks = TickTable(config.tick_spacing)
        #: ``(owner, tick_lower, tick_upper)`` -> position.  Plain tuples:
        #: the collector untracks them, and a :class:`PositionKey` (built
        #: only for error messages) equals its plain tuple.
        self.positions: dict[tuple[str, int, int], PositionInfo] = {}
        #: Pool token reserves tracked for conservation checks.
        self.balance0 = 0
        self.balance1 = 0
        self.initialized = False
        #: Bumped on every state mutation; voids outstanding PendingSwaps.
        self._state_version = 0

    # -- lifecycle ------------------------------------------------------------

    def initialize(self, sqrt_price_x96: int) -> None:
        """Set the starting price; must be called exactly once."""
        if self.initialized:
            raise AMMError("pool already initialized")
        if not (backend.MIN_SQRT_RATIO <= sqrt_price_x96 < backend.MAX_SQRT_RATIO):
            raise AMMError(f"initial sqrt price {sqrt_price_x96} out of range")
        self.sqrt_price_x96 = sqrt_price_x96
        self.tick = backend.get_tick_at_sqrt_ratio(sqrt_price_x96)
        self.initialized = True
        self._state_version += 1

    def _require_initialized(self) -> None:
        if not self.initialized:
            raise AMMError("pool not initialized")

    # -- liquidity management ----------------------------------------------------

    def mint(
        self, owner: str, tick_lower: int, tick_upper: int, liquidity: int
    ) -> tuple[int, int]:
        """Add ``liquidity`` to a position; returns token amounts owed to pool."""
        self._require_initialized()
        if liquidity <= 0:
            raise LiquidityError(f"mint liquidity must be positive, got {liquidity}")
        _, amount0, amount1 = self._modify_position(
            owner, tick_lower, tick_upper, liquidity
        )
        self.balance0 += amount0
        self.balance1 += amount1
        return amount0, amount1

    def burn(
        self, owner: str, tick_lower: int, tick_upper: int, liquidity: int
    ) -> tuple[int, int]:
        """Remove liquidity; amounts become tokens owed (collect retrieves them)."""
        self._require_initialized()
        if liquidity <= 0:
            raise LiquidityError(f"burn liquidity must be positive, got {liquidity}")
        position, amount0, amount1 = self._modify_position(
            owner, tick_lower, tick_upper, -liquidity
        )
        amount0, amount1 = -amount0, -amount1
        if amount0 > 0 or amount1 > 0:
            position.tokens_owed0 += amount0
            position.tokens_owed1 += amount1
        return amount0, amount1

    def collect(
        self,
        owner: str,
        tick_lower: int,
        tick_upper: int,
        amount0_requested: int,
        amount1_requested: int,
    ) -> tuple[int, int]:
        """Withdraw owed tokens (fees + burned principal) from a position."""
        self._require_initialized()
        key = (owner, tick_lower, tick_upper)
        position = self.positions.get(key)
        if position is None:
            raise PositionError(f"no position {PositionKey(*key)}")
        amount0 = min(max(amount0_requested, 0), position.tokens_owed0)
        amount1 = min(max(amount1_requested, 0), position.tokens_owed1)
        position.tokens_owed0 -= amount0
        position.tokens_owed1 -= amount1
        self.balance0 -= amount0
        self.balance1 -= amount1
        self._state_version += 1
        if (
            position.liquidity == 0
            and position.tokens_owed0 == 0
            and position.tokens_owed1 == 0
        ):
            del self.positions[key]
        return amount0, amount1

    def position(
        self, owner: str, tick_lower: int, tick_upper: int
    ) -> PositionInfo | None:
        return self.positions.get((owner, tick_lower, tick_upper))

    def poke(self, owner: str, tick_lower: int, tick_upper: int) -> PositionInfo:
        """Refresh a position's fee accounting without changing liquidity.

        Equivalent to Uniswap's burn-of-zero trick used before collects.
        """
        position, _, _ = self._modify_position(owner, tick_lower, tick_upper, 0)
        return position

    def _modify_position(
        self, owner: str, tick_lower: int, tick_upper: int, liquidity_delta: int
    ) -> tuple[PositionInfo, int, int]:
        backend.check_tick_range(tick_lower, tick_upper)
        self.ticks.check_spacing(tick_lower)
        self.ticks.check_spacing(tick_upper)
        position = self._update_position(owner, tick_lower, tick_upper, liquidity_delta)
        self._state_version += 1
        amount0 = amount1 = 0
        if liquidity_delta != 0:
            if self.tick < tick_lower:
                amount0 = backend.get_amount0_delta_signed(
                    backend.get_sqrt_ratio_at_tick(tick_lower),
                    backend.get_sqrt_ratio_at_tick(tick_upper),
                    liquidity_delta,
                )
            elif self.tick < tick_upper:
                amount0 = backend.get_amount0_delta_signed(
                    self.sqrt_price_x96,
                    backend.get_sqrt_ratio_at_tick(tick_upper),
                    liquidity_delta,
                )
                amount1 = backend.get_amount1_delta_signed(
                    backend.get_sqrt_ratio_at_tick(tick_lower),
                    self.sqrt_price_x96,
                    liquidity_delta,
                )
                self.liquidity = liquidity_math.add_delta(
                    self.liquidity, liquidity_delta
                )
            else:
                amount1 = backend.get_amount1_delta_signed(
                    backend.get_sqrt_ratio_at_tick(tick_lower),
                    backend.get_sqrt_ratio_at_tick(tick_upper),
                    liquidity_delta,
                )
        return position, amount0, amount1

    def _update_position(
        self, owner: str, tick_lower: int, tick_upper: int, liquidity_delta: int
    ) -> PositionInfo:
        key = (owner, tick_lower, tick_upper)
        position = self.positions.get(key)
        if position is None:
            if liquidity_delta <= 0:
                raise PositionError(f"no position {PositionKey(*key)}")
            position = PositionInfo()
            self.positions[key] = position
        if liquidity_delta < 0 and position.liquidity + liquidity_delta < 0:
            # Check before the tick updates so an over-burn leaves no
            # partial tick mutations behind.
            raise LiquidityError(
                f"burn {-liquidity_delta} exceeds position liquidity "
                f"{position.liquidity}"
            )
        flipped_lower = flipped_upper = False
        if liquidity_delta != 0:
            flipped_lower = self.ticks.update(
                tick_lower,
                self.tick,
                liquidity_delta,
                self.fee_growth_global0_x128,
                self.fee_growth_global1_x128,
                upper=False,
            )
            flipped_upper = self.ticks.update(
                tick_upper,
                self.tick,
                liquidity_delta,
                self.fee_growth_global0_x128,
                self.fee_growth_global1_x128,
                upper=True,
            )
        inside0, inside1 = self.ticks.fee_growth_inside(
            tick_lower,
            tick_upper,
            self.tick,
            self.fee_growth_global0_x128,
            self.fee_growth_global1_x128,
        )
        position.update(liquidity_delta, inside0, inside1)
        if liquidity_delta < 0:
            if flipped_lower:
                self.ticks.clear(tick_lower)
            if flipped_upper:
                self.ticks.clear(tick_upper)
        return position

    # -- swaps ---------------------------------------------------------------------

    def swap(
        self,
        zero_for_one: bool,
        amount_specified: int,
        sqrt_price_limit_x96: int | None = None,
    ) -> SwapResult:
        """Execute a swap.

        ``amount_specified > 0`` is exact input; ``< 0`` is exact output.
        ``sqrt_price_limit_x96`` bounds the post-swap price (defaults to
        the extreme ratio in the swap direction).
        """
        return self.prepare_swap(
            zero_for_one, amount_specified, sqrt_price_limit_x96
        ).commit()

    def prepare_swap(
        self,
        zero_for_one: bool,
        amount_specified: int,
        sqrt_price_limit_x96: int | None = None,
    ) -> PendingSwap:
        """Compute a swap's full outcome without touching pool state.

        A batch of one: the returned :class:`PendingSwap` holds the
        walker's quote, and ``commit`` applies it in O(crossings) without
        re-walking.  Quotes use the same walk, so a quote and its
        subsequent execution agree to the wei by construction.
        """
        batch = SwapBatch(self)
        batch.quote(zero_for_one, amount_specified, sqrt_price_limit_x96)
        return PendingSwap(batch, zero_for_one)

    def begin_swap_batch(self) -> SwapBatch:
        """Open a round-level batch: many swaps, one amortized tick walk.

        See :class:`SwapBatch`.  The pool must stay untouched until the
        batch's ``commit`` (enforced by the state version); mints, burns
        and individual swaps may resume afterwards.
        """
        return SwapBatch(self)

    # -- introspection ------------------------------------------------------------

    def snapshot(self) -> dict:
        """A plain-data snapshot of pool state.

        Read by the shard state digest (``Shard.state_digest``) and by
        :meth:`PoolSnapshot.snapshot`.
        """
        return {
            "sqrt_price_x96": self.sqrt_price_x96,
            "tick": self.tick,
            "liquidity": self.liquidity,
            "fee_growth_global0_x128": self.fee_growth_global0_x128,
            "fee_growth_global1_x128": self.fee_growth_global1_x128,
            "balance0": self.balance0,
            "balance1": self.balance1,
        }

    def freeze(self, epoch: int = 0) -> "PoolSnapshot":
        """An immutable copy-on-epoch read view for snapshot-isolated quoting.

        Deep-copies every field the swap walk reads (price, tick cursor,
        liquidity, fee growth, and the full tick table) into a private pool
        clone, so quotes served from the view keep answering against the
        frozen state no matter how the live pool advances.  The serving
        layer publishes one of these per epoch boundary: reads scale
        horizontally off the frozen view while writes stay epoch-serial on
        the live pool.
        """
        self._require_initialized()
        return PoolSnapshot(self, epoch)


class PoolSnapshot:
    """Read-only view of a :class:`Pool` frozen at an epoch boundary.

    Quotes run on one :class:`SwapBatch` opened over a private deep copy
    of the frozen state and never accepted or committed, so every quote
    starts from the freeze-time state and ``PoolSnapshot.quote`` agrees
    with :func:`repro.amm.quoter.quote_swap` on the live pool at freeze
    time to the wei — same walk, same rounding, same error types and
    messages — while later mutations of the live pool can never leak in.
    """

    __slots__ = ("_pool", "_walker", "epoch", "state_version")

    def __init__(self, pool: Pool, epoch: int = 0) -> None:
        pool._require_initialized()
        frozen = Pool(pool.config)
        frozen.sqrt_price_x96 = pool.sqrt_price_x96
        frozen.tick = pool.tick
        frozen.liquidity = pool.liquidity
        frozen.fee_growth_global0_x128 = pool.fee_growth_global0_x128
        frozen.fee_growth_global1_x128 = pool.fee_growth_global1_x128
        frozen.balance0 = pool.balance0
        frozen.balance1 = pool.balance1
        frozen.initialized = True
        table = frozen.ticks
        table.ticks = {
            tick: TickInfo(
                liquidity_gross=info.liquidity_gross,
                liquidity_net=info.liquidity_net,
                fee_growth_outside0_x128=info.fee_growth_outside0_x128,
                fee_growth_outside1_x128=info.fee_growth_outside1_x128,
                initialized=info.initialized,
            )
            for tick, info in pool.ticks.ticks.items()
        }
        table._sorted = list(pool.ticks._sorted)
        self._pool = frozen
        self._walker = SwapBatch(frozen)
        #: Epoch whose boundary this view captures (copy-on-epoch stamp).
        self.epoch = epoch
        #: Live pool's state version at freeze time, for staleness checks.
        self.state_version = pool._state_version

    @property
    def token0(self) -> str:
        return self._pool.config.token0

    @property
    def token1(self) -> str:
        return self._pool.config.token1

    @property
    def sqrt_price_x96(self) -> int:
        return self._pool.sqrt_price_x96

    @property
    def tick(self) -> int:
        return self._pool.tick

    @property
    def liquidity(self) -> int:
        return self._pool.liquidity

    def quote(
        self,
        zero_for_one: bool,
        amount_specified: int,
        sqrt_price_limit_x96: int | None = None,
    ) -> Quote:
        """Quote a swap against the frozen state; never mutates anything.

        Returns a :class:`Quote` and raises exactly what
        the live pool's walk would have raised at freeze time
        (``AMMError``, ``SlippageError``, ``NoLiquidityError`` — same
        types, same messages).
        """
        walker = self._walker
        amount0, amount1 = walker.quote(
            zero_for_one, amount_specified, sqrt_price_limit_x96
        )
        return Quote(amount0, amount1, walker.sqrt_price_after_x96, walker.fee_paid)

    def snapshot(self) -> dict:
        """Plain-data form of the frozen state (mirrors ``Pool.snapshot``)."""
        return self._pool.snapshot()
