"""Regression: quoting/swapping against zero liquidity is a typed error.

Historically a swap against a pool with no liquidity in range "executed"
a nothing-swap: zero amounts exchanged, price crashed to the extreme
ratio, and the pool was wedged for subsequent traffic (later swaps died
on confusing price-limit errors).  Empty shards make this state routine,
so the read paths now raise :class:`~repro.errors.NoLiquidityError`.
"""

import pytest

from repro.amm.fixed_point import encode_price_sqrt
from repro.amm.pool import Pool, PoolConfig
from repro.amm.quoter import quote_swap
from repro.amm.router import Router
from repro.amm.tick import TickTable
from repro.core.executor import SidechainExecutor
from repro.core.transactions import SwapTx
from repro.errors import NoLiquidityError
from tests.swap_oracle import next_initialized_tick


def empty_pool() -> Pool:
    pool = Pool(PoolConfig(token0="A", token1="B"))
    pool.initialize(encode_price_sqrt(1, 1))
    return pool


def one_sided_pool() -> Pool:
    """Liquidity only above the current price: empty downwards."""
    pool = empty_pool()
    pool.mint("lp", 6000, 12000, 10**18)
    return pool


class TestQuoter:
    def test_empty_pool_raises_typed_error(self):
        with pytest.raises(NoLiquidityError):
            quote_swap(empty_pool(), True, 10**18)

    def test_direction_without_liquidity_raises(self):
        with pytest.raises(NoLiquidityError):
            quote_swap(one_sided_pool(), True, 10**18)

    def test_direction_with_liquidity_quotes(self):
        quote = quote_swap(one_sided_pool(), False, 10**18)
        assert quote.amount1 > 0

    def test_quote_leaves_pool_untouched(self):
        pool = empty_pool()
        before = pool.snapshot()
        with pytest.raises(NoLiquidityError):
            quote_swap(pool, True, 10**15)
        assert pool.snapshot() == before


class TestRouter:
    def test_exact_input_raises_and_pool_not_wedged(self):
        pool = one_sided_pool()
        router = Router(pool)
        before = pool.snapshot()
        with pytest.raises(NoLiquidityError):
            router.exact_input(True, 10**18)
        # The failed swap must not have crashed the price: the valid
        # direction still works afterwards.
        assert pool.snapshot() == before
        quote = router.exact_input(False, 10**18)
        assert quote.amount_out > 0

    def test_exact_output_raises(self):
        with pytest.raises(NoLiquidityError):
            Router(empty_pool()).exact_output(True, 10**18)

    def test_error_is_amm_error(self):
        from repro.errors import AMMError

        assert issubclass(NoLiquidityError, AMMError)


class TestExecutorRejection:
    def test_swap_rejected_not_crashed(self):
        """The sidechain executor turns the typed error into a rejection.

        The guard lives in ``Pool.prepare_swap`` itself, so the fused
        quote/execute path (which bypasses router and quoter) rejects
        too, instead of committing a price crash.
        """
        pool = empty_pool()
        executor = SidechainExecutor(pool)
        executor.begin_epoch({"user": [10**24, 10**24]})
        before = pool.snapshot()
        tx = SwapTx(user="user", zero_for_one=True, exact_input=True, amount=10**15)
        assert not executor.process(tx)
        assert "no liquidity" in tx.reject_reason
        assert pool.snapshot() == before


class TestEmptyTickTableReads:
    """Read paths over an empty table must not allocate or fail."""

    def test_next_initialized_tick_empty(self):
        table = TickTable(60)
        assert next_initialized_tick(table, 0, lte=True) == (None, False)
        assert next_initialized_tick(table, 0, lte=False) == (None, False)
        assert table.ticks == {}

    def test_peek_and_fee_growth_inside_empty(self):
        table = TickTable(60)
        info = table.peek(120)
        assert info.liquidity_gross == 0
        inside = table.fee_growth_inside(-60, 60, 0, 0, 0)
        assert inside == (0, 0)
        assert table.ticks == {}
