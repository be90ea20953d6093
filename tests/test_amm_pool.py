"""Tests for the pool: lifecycle, liquidity management, swaps, fees."""

import pytest

from repro.amm.fixed_point import encode_price_sqrt
from repro.amm.pool import Pool, PoolConfig
from repro.amm import tick_math
from repro.errors import (
    AMMError,
    LiquidityError,
    PositionError,
    SlippageError,
)


def make_pool(fee=3000):
    p = Pool(PoolConfig(token0="A", token1="B", fee_pips=fee))
    p.initialize(encode_price_sqrt(1, 1))
    return p


# -- lifecycle ------------------------------------------------------------------


def test_initialize_sets_price_and_tick():
    pool = Pool(PoolConfig(token0="A", token1="B"))
    pool.initialize(encode_price_sqrt(4, 1))
    assert pool.sqrt_price_x96 == 2 * 2**96
    assert pool.tick == tick_math.get_tick_at_sqrt_ratio(pool.sqrt_price_x96)


def test_double_initialize_rejected():
    pool = make_pool()
    with pytest.raises(AMMError):
        pool.initialize(encode_price_sqrt(1, 1))


def test_operations_require_initialization():
    pool = Pool(PoolConfig(token0="A", token1="B"))
    with pytest.raises(AMMError):
        pool.mint("lp", -60, 60, 1000)
    with pytest.raises(AMMError):
        pool.swap(True, 1000)


def test_same_tokens_rejected():
    with pytest.raises(AMMError):
        PoolConfig(token0="A", token1="A")


def test_unknown_fee_tier_rejected():
    with pytest.raises(AMMError):
        PoolConfig(token0="A", token1="B", fee_pips=1234)


def test_fee_tier_implies_spacing():
    assert PoolConfig(token0="A", token1="B", fee_pips=500).tick_spacing == 10
    assert PoolConfig(token0="A", token1="B", fee_pips=3000).tick_spacing == 60


# -- mint ----------------------------------------------------------------------------


def test_mint_in_range_charges_both_tokens():
    pool = make_pool()
    amount0, amount1 = pool.mint("lp", -600, 600, 10**18)
    assert amount0 > 0 and amount1 > 0
    assert pool.liquidity == 10**18


def test_mint_above_range_charges_token0_only():
    pool = make_pool()
    amount0, amount1 = pool.mint("lp", 600, 1200, 10**18)
    assert amount0 > 0
    assert amount1 == 0
    assert pool.liquidity == 0  # not in range


def test_mint_below_range_charges_token1_only():
    pool = make_pool()
    amount0, amount1 = pool.mint("lp", -1200, -600, 10**18)
    assert amount0 == 0
    assert amount1 > 0


def test_mint_misaligned_ticks_rejected():
    pool = make_pool()
    with pytest.raises(AMMError):
        pool.mint("lp", -61, 60, 1000)


def test_mint_zero_liquidity_rejected():
    pool = make_pool()
    with pytest.raises(LiquidityError):
        pool.mint("lp", -60, 60, 0)


def test_mint_accumulates_in_same_position():
    pool = make_pool()
    pool.mint("lp", -600, 600, 10**18)
    pool.mint("lp", -600, 600, 10**18)
    position = pool.position("lp", -600, 600)
    assert position.liquidity == 2 * 10**18


# -- burn / collect -----------------------------------------------------------------------


def test_burn_credits_tokens_owed():
    pool = make_pool()
    minted0, minted1 = pool.mint("lp", -600, 600, 10**18)
    burned0, burned1 = pool.burn("lp", -600, 600, 10**18)
    # Burn rounds down; mint rounds up: never more back than in.
    assert burned0 <= minted0 and burned1 <= minted1
    assert minted0 - burned0 <= 1 and minted1 - burned1 <= 1
    position = pool.position("lp", -600, 600)
    assert position.tokens_owed0 == burned0


def test_partial_burn():
    pool = make_pool()
    pool.mint("lp", -600, 600, 10**18)
    pool.burn("lp", -600, 600, 4 * 10**17)
    assert pool.position("lp", -600, 600).liquidity == 6 * 10**17
    assert pool.liquidity == 6 * 10**17


def test_burn_more_than_owned_rejected():
    pool = make_pool()
    pool.mint("lp", -600, 600, 10**18)
    with pytest.raises(LiquidityError):
        pool.burn("lp", -600, 600, 2 * 10**18)


def test_burn_unknown_position_rejected():
    pool = make_pool()
    with pytest.raises(PositionError):
        pool.burn("nobody", -600, 600, 1)


def test_collect_caps_at_owed():
    pool = make_pool()
    pool.mint("lp", -600, 600, 10**18)
    owed0, owed1 = pool.burn("lp", -600, 600, 10**18)
    got0, got1 = pool.collect("lp", -600, 600, owed0 + 10**9, owed1 + 10**9)
    assert (got0, got1) == (owed0, owed1)


def test_collect_partial():
    pool = make_pool()
    pool.mint("lp", -600, 600, 10**18)
    owed0, _ = pool.burn("lp", -600, 600, 10**18)
    got0, _ = pool.collect("lp", -600, 600, owed0 // 2, 0)
    assert got0 == owed0 // 2
    assert pool.position("lp", -600, 600).tokens_owed0 == owed0 - got0


def test_fully_collected_empty_position_deleted():
    pool = make_pool()
    pool.mint("lp", -600, 600, 10**18)
    pool.burn("lp", -600, 600, 10**18)
    pool.collect("lp", -600, 600, 10**30, 10**30)
    assert pool.position("lp", -600, 600) is None


def test_collect_unknown_position_rejected():
    pool = make_pool()
    with pytest.raises(PositionError):
        pool.collect("nobody", -600, 600, 1, 1)


# -- swaps -------------------------------------------------------------------------------


def test_exact_input_swap_moves_price_down():
    pool = make_pool()
    pool.mint("lp", -6000, 6000, 10**20)
    before = pool.sqrt_price_x96
    result = pool.swap(True, 10**16)
    assert result.amount0 == 10**16  # all input consumed
    assert result.amount1 < 0  # pool pays out token1
    assert pool.sqrt_price_x96 < before


def test_exact_input_swap_other_direction():
    pool = make_pool()
    pool.mint("lp", -6000, 6000, 10**20)
    result = pool.swap(False, 10**16)
    assert result.amount1 == 10**16
    assert result.amount0 < 0
    assert pool.sqrt_price_x96 > encode_price_sqrt(1, 1)


def test_exact_output_swap():
    pool = make_pool()
    pool.mint("lp", -6000, 6000, 10**20)
    result = pool.swap(True, -(10**16))
    assert -result.amount1 == 10**16  # exact output delivered
    assert result.amount0 > 10**16  # input exceeds output (price + fee)


def test_swap_output_close_to_input_minus_fee():
    pool = make_pool()
    pool.mint("lp", -60000, 60000, 10**24)
    result = pool.swap(True, 10**18)
    received = -result.amount1
    # Deep liquidity at price 1: output ~ input * (1 - fee).
    expected = 10**18 * 997 // 1000
    assert abs(received - expected) / expected < 0.01


def test_swap_respects_price_limit():
    pool = make_pool()
    pool.mint("lp", -60000, 60000, 10**18)
    limit = encode_price_sqrt(95, 100)
    result = pool.swap(True, 10**30, sqrt_price_limit_x96=limit)
    assert result.sqrt_price_x96 == limit
    assert result.amount0 < 10**30  # partial fill at the limit


def test_swap_wrong_direction_limit_rejected():
    pool = make_pool()
    pool.mint("lp", -600, 600, 10**18)
    with pytest.raises(SlippageError):
        pool.swap(True, 10**15, sqrt_price_limit_x96=encode_price_sqrt(2, 1))
    with pytest.raises(SlippageError):
        pool.swap(False, 10**15, sqrt_price_limit_x96=encode_price_sqrt(1, 2))


def test_zero_amount_swap_rejected():
    pool = make_pool()
    with pytest.raises(AMMError):
        pool.swap(True, 0)


def test_swap_crosses_initialized_ticks():
    pool = make_pool()
    pool.mint("lp", -60, 60, 10**18)
    pool.mint("lp", -6000, 6000, 10**18)
    result = pool.swap(True, 10**17)
    # Price fell out of the narrow range: only the wide position remains.
    assert result.tick < -60
    assert result.liquidity == 10**18


def test_swap_through_gap_in_liquidity():
    pool = make_pool()
    pool.mint("lp", -6000, -3000, 10**18)
    pool.mint("lp", 3000, 6000, 10**18)
    # No liquidity at the current price: the swap jumps the gap.
    result = pool.swap(True, 10**15)
    assert result.tick <= -3000


def test_swap_exhausting_all_liquidity_partial_fill():
    pool = make_pool()
    pool.mint("lp", -600, 600, 10**15)
    result = pool.swap(True, 10**30)
    assert result.amount0 < 10**30
    assert result.tick == tick_math.MIN_TICK


# -- fees ----------------------------------------------------------------------------------


def test_swap_fees_accrue_to_in_range_position():
    pool = make_pool()
    pool.mint("lp", -6000, 6000, 10**20)
    result = pool.swap(True, 10**17)
    pool.poke("lp", -6000, 6000)
    position = pool.position("lp", -6000, 6000)
    assert position.tokens_owed0 > 0
    assert position.tokens_owed0 <= result.fee_paid
    assert result.fee_paid >= 10**17 * 3000 // 10**6 - 1


def test_fees_split_proportionally_to_liquidity():
    pool = make_pool()
    pool.mint("big", -6000, 6000, 3 * 10**20)
    pool.mint("small", -6000, 6000, 10**20)
    pool.swap(True, 10**17)
    pool.poke("big", -6000, 6000)
    pool.poke("small", -6000, 6000)
    big = pool.position("big", -6000, 6000).tokens_owed0
    small = pool.position("small", -6000, 6000).tokens_owed0
    assert abs(big - 3 * small) <= 3


def test_out_of_range_position_earns_no_fees():
    pool = make_pool()
    pool.mint("in", -6000, 6000, 10**20)
    pool.mint("out", 6000, 12000, 10**20)
    pool.swap(True, 10**17)  # price moves down, away from [6000, 12000]
    pool.poke("in", -6000, 6000)
    pool.poke("out", 6000, 12000)
    assert pool.position("in", -6000, 6000).tokens_owed0 > 0
    assert pool.position("out", 6000, 12000).tokens_owed0 == 0


def test_fee_direction_matches_input_token():
    pool = make_pool()
    pool.mint("lp", -6000, 6000, 10**20)
    pool.swap(False, 10**17)  # token1 in: fees in token1
    pool.poke("lp", -6000, 6000)
    position = pool.position("lp", -6000, 6000)
    assert position.tokens_owed1 > 0
    assert position.tokens_owed0 == 0


def test_fees_survive_price_leaving_range():
    pool = make_pool()
    pool.mint("lp", -600, 600, 10**20)
    pool.mint("whale", -60000, 60000, 10**20)
    pool.swap(True, 10**18)  # pushes price below -600
    pool.poke("lp", -600, 600)
    assert pool.position("lp", -600, 600).tokens_owed0 > 0


# -- conservation ------------------------------------------------------------------------------


def test_token_conservation_over_mixed_operations():
    pool = make_pool()
    pool.mint("lp1", -6000, 6000, 10**20)
    pool.mint("lp2", -600, 600, 10**19)
    net0 = net1 = 0
    result = pool.swap(True, 10**17)
    net0 += result.amount0
    net1 += result.amount1
    result = pool.swap(False, 5 * 10**16)
    net0 += result.amount0
    net1 += result.amount1
    pool.burn("lp2", -600, 600, 10**19)
    got = pool.collect("lp2", -600, 600, 10**30, 10**30)
    # Pool balance equals everything paid in minus everything paid out.
    minted0, minted1 = pool.balance0 - net0 + got[0], pool.balance1 - net1 + got[1]
    assert minted0 >= 0 and minted1 >= 0
    assert pool.balance0 >= 0 and pool.balance1 >= 0


def test_snapshot_contains_core_state():
    pool = make_pool()
    pool.mint("lp", -600, 600, 10**18)
    snapshot = pool.snapshot()
    assert snapshot["liquidity"] == 10**18
    assert snapshot["balance0"] == pool.balance0
    assert snapshot["sqrt_price_x96"] == pool.sqrt_price_x96
