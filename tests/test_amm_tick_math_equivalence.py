"""Equivalence properties for the optimized swap engine.

The PR-1 fast paths (log₂ ``get_tick_at_sqrt_ratio``, cached sqrt ratios,
fused prepare/commit swaps) must be bit-for-bit equivalent to the original
implementations: the binary-search tick lookup lives on as
``tests/swap_oracle.get_tick_at_sqrt_ratio_reference`` and serves as the
oracle here.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.amm import tick_math
from repro.amm.fixed_point import encode_price_sqrt
from repro.amm.pool import Pool, PoolConfig
from repro.amm.quoter import quote_swap
from repro.errors import TickError
from tests.swap_oracle import get_tick_at_sqrt_ratio_reference

SPACINGS = (1, 10, 60, 200)


def boundary_ticks():
    """MIN/MAX ticks and ±1 around spacing multiples across the range."""
    ticks = {tick_math.MIN_TICK, tick_math.MAX_TICK, -1, 0, 1}
    for spacing in SPACINGS:
        for k in (-887272 // spacing, -1000, -1, 1, 1000, 887272 // spacing):
            base = k * spacing
            for tick in (base - 1, base, base + 1):
                if tick_math.MIN_TICK <= tick <= tick_math.MAX_TICK:
                    ticks.add(tick)
    return sorted(ticks)


@pytest.mark.parametrize("tick", boundary_ticks())
def test_log2_matches_reference_at_boundary_ticks(tick):
    ratio = tick_math.get_sqrt_ratio_at_tick(tick)
    for probe in (ratio - 1, ratio, ratio + 1):
        if tick_math.MIN_SQRT_RATIO <= probe < tick_math.MAX_SQRT_RATIO:
            assert tick_math.get_tick_at_sqrt_ratio(
                probe
            ) == get_tick_at_sqrt_ratio_reference(probe)


def test_roundtrip_at_extremes():
    assert (
        tick_math.get_tick_at_sqrt_ratio(tick_math.MIN_SQRT_RATIO)
        == tick_math.MIN_TICK
    )
    assert (
        tick_math.get_tick_at_sqrt_ratio(tick_math.MAX_SQRT_RATIO - 1)
        == tick_math.MAX_TICK - 1
    )
    with pytest.raises(TickError):
        tick_math.get_tick_at_sqrt_ratio(tick_math.MIN_SQRT_RATIO - 1)
    with pytest.raises(TickError):
        tick_math.get_tick_at_sqrt_ratio(tick_math.MAX_SQRT_RATIO)


@settings(max_examples=300, deadline=None)
@given(
    sqrt_price=st.integers(
        min_value=tick_math.MIN_SQRT_RATIO, max_value=tick_math.MAX_SQRT_RATIO - 1
    )
)
def test_log2_matches_reference_random_ratios(sqrt_price):
    assert tick_math.get_tick_at_sqrt_ratio(
        sqrt_price
    ) == get_tick_at_sqrt_ratio_reference(sqrt_price)


@settings(max_examples=300, deadline=None)
@given(tick=st.integers(min_value=tick_math.MIN_TICK, max_value=tick_math.MAX_TICK))
def test_tick_ratio_roundtrip(tick):
    ratio = tick_math.get_sqrt_ratio_at_tick(tick)
    if ratio < tick_math.MAX_SQRT_RATIO:
        assert tick_math.get_tick_at_sqrt_ratio(ratio) == tick


# -- fused quote/execute equivalence ------------------------------------------


def multi_position_pool():
    pool = Pool(PoolConfig(token0="A", token1="B", fee_pips=3000))
    pool.initialize(encode_price_sqrt(1, 1))
    pool.mint("lp", -60, 60, 10**18)
    pool.mint("lp", -6000, 6000, 5 * 10**18)
    pool.mint("lp", -60000, 60000, 10**19)
    return pool


@settings(max_examples=100, deadline=None)
@given(
    amount=st.integers(min_value=10**12, max_value=5 * 10**19),
    zero_for_one=st.booleans(),
    exact_input=st.booleans(),
)
def test_quote_equals_swap_to_the_wei(amount, zero_for_one, exact_input):
    """The fused path's invariant: a quote then a swap agree exactly."""
    pool = multi_position_pool()
    specified = amount if exact_input else -amount
    quote = quote_swap(pool, zero_for_one, specified)
    result = pool.swap(zero_for_one, specified)
    assert (quote.amount0, quote.amount1) == (result.amount0, result.amount1)
    assert quote.sqrt_price_after_x96 == result.sqrt_price_x96
    assert quote.fee_paid == result.fee_paid


@settings(max_examples=60, deadline=None)
@given(
    amount=st.integers(min_value=10**12, max_value=5 * 10**19),
    zero_for_one=st.booleans(),
)
def test_prepare_commit_equals_direct_swap(amount, zero_for_one):
    """prepare_swap + commit must produce the same end state as swap()."""
    pool_a = multi_position_pool()
    pool_b = multi_position_pool()
    pending = pool_a.prepare_swap(zero_for_one, amount)
    snapshot_before = pool_a.snapshot()
    result_a = pending.commit()
    result_b = pool_b.swap(zero_for_one, amount)
    assert snapshot_before != pool_a.snapshot()  # commit actually applied
    assert result_a == result_b
    assert pool_a.snapshot() == pool_b.snapshot()
    assert pool_a.ticks.ticks.keys() == pool_b.ticks.ticks.keys()
    for tick, info in pool_a.ticks.ticks.items():
        assert info == pool_b.ticks.ticks[tick], f"tick {tick} diverged"


def test_prepare_swap_does_not_mutate_pool():
    pool = multi_position_pool()
    before = pool.snapshot()
    ticks_before = {t: (i.fee_growth_outside0_x128, i.fee_growth_outside1_x128)
                    for t, i in pool.ticks.ticks.items()}
    pool.prepare_swap(True, 10**19)
    assert pool.snapshot() == before
    assert ticks_before == {
        t: (i.fee_growth_outside0_x128, i.fee_growth_outside1_x128)
        for t, i in pool.ticks.ticks.items()
    }


def test_commit_refuses_stale_pending_swap():
    from repro.errors import AMMError

    pool = multi_position_pool()
    pending = pool.prepare_swap(True, 10**16)
    pool.swap(True, 10**15)  # pool moved since prepare
    with pytest.raises(AMMError):
        pending.commit()


def test_commit_refuses_after_out_of_range_mint():
    # A mint entirely below the current tick leaves price/tick/liquidity
    # untouched but changes crossing accounting — the pending swap must die.
    from repro.errors import AMMError

    pool = multi_position_pool()
    pending = pool.prepare_swap(True, 10**18)
    pool.mint("lp2", -12000, -6600, 10**18)
    with pytest.raises(AMMError):
        pending.commit()


def test_commit_is_one_shot():
    # A tiny all-fee swap leaves price/tick/liquidity unchanged; a second
    # commit must still be refused rather than double-applying balances.
    from repro.errors import AMMError

    pool = multi_position_pool()
    pending = pool.prepare_swap(True, 1)
    pending.commit()
    balance0 = pool.balance0
    with pytest.raises(AMMError):
        pending.commit()
    assert pool.balance0 == balance0
