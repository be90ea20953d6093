"""Tests for the sidechain AMM executor: deposit coverage, ownership,
the full transaction lifecycle and effect recording."""

import pytest

from repro.amm.fixed_point import encode_price_sqrt
from repro.amm.pool import Pool, PoolConfig
from repro.core.executor import SidechainExecutor
from repro.core.transactions import BurnTx, CollectTx, MintTx, SwapTx

DEPOSIT = 10**20


@pytest.fixture
def executor():
    pool = Pool(PoolConfig(token0="A", token1="B", fee_pips=3000))
    pool.initialize(encode_price_sqrt(1, 1))
    ex = SidechainExecutor(pool)
    ex.begin_epoch({"lp": [DEPOSIT, DEPOSIT], "trader": [DEPOSIT, DEPOSIT]})
    return ex


def _mint(executor, user="lp", amount=10**18, lower=-6000, upper=6000):
    tx = MintTx(
        user=user,
        tick_lower=lower,
        tick_upper=upper,
        amount0_desired=amount,
        amount1_desired=amount,
    )
    assert executor.process(tx), tx.reject_reason
    return tx


# -- swaps -----------------------------------------------------------------------


def test_swap_updates_deposits(executor):
    _mint(executor)
    tx = SwapTx(user="trader", zero_for_one=True, amount=10**15)
    assert executor.process(tx), tx.reject_reason
    balance = executor.deposits["trader"]
    assert balance[0] == DEPOSIT - 10**15
    assert balance[1] > DEPOSIT  # received token1


def test_swap_effects_recorded(executor):
    _mint(executor)
    tx = SwapTx(user="trader", zero_for_one=True, amount=10**15)
    executor.process(tx)
    assert tx.effects["delta0"] == -(10**15)
    assert tx.effects["delta1"] > 0
    assert tx.effects["fee"] > 0


def test_swap_rejected_without_coverage(executor):
    _mint(executor)
    # A fully-fillable swap whose input exceeds the issuer's deposit.
    executor.deposits["trader"] = [10**15, 10**15]
    tx = SwapTx(user="trader", zero_for_one=True, amount=10**16)
    assert not executor.process(tx)
    assert "deposit" in tx.reject_reason
    # Nothing changed.
    assert executor.deposits["trader"] == [10**15, 10**15]


def test_rejected_swap_leaves_pool_untouched(executor):
    _mint(executor)
    executor.deposits["trader"] = [10**15, 10**15]
    before = executor.pool.snapshot()
    tx = SwapTx(user="trader", zero_for_one=True, amount=10**16)
    executor.process(tx)
    assert executor.pool.snapshot() == before


def test_unknown_user_has_no_deposit(executor):
    _mint(executor)
    tx = SwapTx(user="stranger", zero_for_one=True, amount=10**15)
    assert not executor.process(tx)


def test_exact_output_swap(executor):
    _mint(executor)
    tx = SwapTx(user="trader", zero_for_one=False, exact_input=False, amount=10**15)
    assert executor.process(tx), tx.reject_reason
    assert executor.deposits["trader"][0] == DEPOSIT + 10**15  # exact out
    assert executor.deposits["trader"][1] < DEPOSIT


def test_swap_slippage_protection(executor):
    _mint(executor)
    tx = SwapTx(
        user="trader", zero_for_one=True, amount=10**15, amount_limit=10**16
    )
    assert not executor.process(tx)
    assert "slippage" in tx.reject_reason


def test_swap_deadline(executor):
    _mint(executor)
    tx = SwapTx(user="trader", zero_for_one=True, amount=10**15, deadline=4)
    assert not executor.process(tx, current_round=5)
    assert "deadline" in tx.reject_reason


def test_newly_accrued_tokens_usable_immediately(executor):
    """Section IV-B: accrued tokens can be traded within the epoch."""
    _mint(executor)
    executor.deposits["trader"] = [10**15, 0]  # only token0
    first = SwapTx(user="trader", zero_for_one=True, amount=10**15)
    assert executor.process(first), first.reject_reason
    received = executor.deposits["trader"][1]
    assert received > 0
    second = SwapTx(user="trader", zero_for_one=False, amount=received)
    assert executor.process(second), second.reject_reason


# -- mints -------------------------------------------------------------------------


def test_mint_creates_position(executor):
    tx = _mint(executor)
    position_id = tx.effects["position_id"]
    assert position_id in executor.positions
    record = executor.positions[position_id]
    assert record.owner == "lp"
    assert record.liquidity == tx.effects["liquidity_delta"] > 0


def test_mint_deducts_both_tokens(executor):
    tx = _mint(executor)
    balance = executor.deposits["lp"]
    assert balance[0] == DEPOSIT - tx.effects["amount0"]
    assert balance[1] == DEPOSIT - tx.effects["amount1"]
    assert tx.effects["amount0"] > 0 and tx.effects["amount1"] > 0


def test_mint_rejected_without_coverage(executor):
    tx = MintTx(
        user="lp",
        tick_lower=-6000,
        tick_upper=6000,
        amount0_desired=DEPOSIT * 2,
        amount1_desired=DEPOSIT * 2,
    )
    assert not executor.process(tx)
    assert executor.positions == {}


def test_mint_into_existing_position(executor):
    first = _mint(executor)
    position_id = first.effects["position_id"]
    second = MintTx(
        user="lp",
        tick_lower=0,
        tick_upper=0,  # ignored when position_id given
        amount0_desired=10**17,
        amount1_desired=10**17,
        position_id=position_id,
    )
    assert executor.process(second), second.reject_reason
    assert executor.positions[position_id].liquidity > first.effects["liquidity_delta"]
    assert len(executor.positions) == 1


def test_mint_into_foreign_position_rejected(executor):
    first = _mint(executor)
    attack = MintTx(
        user="trader",
        tick_lower=0,
        tick_upper=0,
        amount0_desired=10**17,
        amount1_desired=10**17,
        position_id=first.effects["position_id"],
    )
    assert not executor.process(attack)
    assert "own" in attack.reject_reason


def test_zero_amount_mint_rejected(executor):
    tx = MintTx(
        user="lp", tick_lower=-60, tick_upper=60,
        amount0_desired=0, amount1_desired=0,
    )
    assert not executor.process(tx)
    assert "liquidity" in tx.reject_reason


def test_unique_position_ids(executor):
    a = _mint(executor)
    b = _mint(executor)
    assert a.effects["position_id"] != b.effects["position_id"]


# -- burns --------------------------------------------------------------------------


def test_full_burn_returns_principal_and_deletes(executor):
    mint = _mint(executor)
    position_id = mint.effects["position_id"]
    burn = BurnTx(user="lp", position_id=position_id)
    assert executor.process(burn), burn.reject_reason
    assert burn.effects["deleted"]
    assert position_id not in executor.positions
    balance = executor.deposits["lp"]
    # Principal returned (minus rounding dust).
    assert balance[0] >= DEPOSIT - 2
    assert balance[1] >= DEPOSIT - 2


def test_partial_burn_keeps_position(executor):
    mint = _mint(executor)
    position_id = mint.effects["position_id"]
    half = mint.effects["liquidity_delta"] // 2
    burn = BurnTx(user="lp", position_id=position_id, liquidity=half)
    assert executor.process(burn), burn.reject_reason
    assert not burn.effects["deleted"]
    assert executor.positions[position_id].liquidity == (
        mint.effects["liquidity_delta"] - half
    )


def test_burn_foreign_position_rejected(executor):
    mint = _mint(executor)
    burn = BurnTx(user="trader", position_id=mint.effects["position_id"])
    assert not executor.process(burn)


def test_burn_unknown_position_rejected(executor):
    burn = BurnTx(user="lp", position_id="nonsense")
    assert not executor.process(burn)


def test_burn_too_much_rejected(executor):
    mint = _mint(executor)
    burn = BurnTx(
        user="lp",
        position_id=mint.effects["position_id"],
        liquidity=mint.effects["liquidity_delta"] + 1,
    )
    assert not executor.process(burn)


def test_full_burn_includes_owed_fees(executor):
    """A deleted position's fees ride along in the payout (Section IV-B)."""
    mint = _mint(executor)
    swap = SwapTx(user="trader", zero_for_one=True, amount=10**16)
    executor.process(swap)
    burn = BurnTx(user="lp", position_id=mint.effects["position_id"])
    executor.process(burn)
    fee_regained = burn.effects["amount0"] - mint.effects["amount0"]
    # The LP got back principal (adjusted by the price move) plus fees;
    # at minimum the recorded deltas must include a fee component.
    assert burn.effects["deleted"]
    assert fee_regained > -(10**16)  # sanity: not wildly negative


# -- collects --------------------------------------------------------------------------


def test_collect_fees_after_swaps(executor):
    mint = _mint(executor)
    executor.process(SwapTx(user="trader", zero_for_one=True, amount=10**16))
    before = executor.deposits["lp"][0]
    collect = CollectTx(user="lp", position_id=mint.effects["position_id"])
    assert executor.process(collect), collect.reject_reason
    assert collect.effects["amount0"] > 0
    assert executor.deposits["lp"][0] == before + collect.effects["amount0"]


def test_collect_without_fees_is_zero(executor):
    mint = _mint(executor)
    collect = CollectTx(user="lp", position_id=mint.effects["position_id"])
    assert executor.process(collect)
    assert collect.effects["amount0"] == 0
    assert collect.effects["amount1"] == 0


def test_collect_partial_amount(executor):
    mint = _mint(executor)
    executor.process(SwapTx(user="trader", zero_for_one=True, amount=10**17))
    probe = CollectTx(user="lp", position_id=mint.effects["position_id"], amount0=0, amount1=0)
    executor.process(probe)
    full = CollectTx(user="lp", position_id=mint.effects["position_id"], amount0=1, amount1=0)
    assert executor.process(full)
    assert full.effects["amount0"] == 1


@pytest.mark.parametrize("amounts", [{"amount0": -1}, {"amount1": -1}])
def test_rejected_collect_leaves_the_pool_untouched(executor, amounts):
    """Regression: the amounts were validated after ``pool.poke``, so a
    rejected collect crystallised the position's fees and bumped the
    pool's state version."""
    mint = _mint(executor)
    executor.process(SwapTx(user="trader", zero_for_one=True, amount=10**18))
    key = (mint.effects["position_id"], -6000, 6000)
    before = executor.pool.position(*key)
    owed_before = (before.tokens_owed0, before.tokens_owed1)
    version = executor.pool._state_version
    collect = CollectTx(user="lp", position_id=key[0], **amounts)
    assert not executor.process(collect)
    assert collect.reject_reason == "collect amounts must be non-negative"
    after = executor.pool.position(*key)
    assert (after.tokens_owed0, after.tokens_owed1) == owed_before
    assert executor.pool._state_version == version


def test_collect_foreign_position_rejected(executor):
    mint = _mint(executor)
    collect = CollectTx(user="trader", position_id=mint.effects["position_id"])
    assert not executor.process(collect)


# -- conservation -----------------------------------------------------------------------


def test_token_conservation_across_mixed_traffic(executor):
    initial_total0 = sum(b[0] for b in executor.deposits.values())
    initial_total1 = sum(b[1] for b in executor.deposits.values())
    mint = _mint(executor)
    executor.process(SwapTx(user="trader", zero_for_one=True, amount=10**16))
    executor.process(SwapTx(user="trader", zero_for_one=False, amount=10**16))
    executor.process(CollectTx(user="lp", position_id=mint.effects["position_id"]))
    executor.process(BurnTx(user="lp", position_id=mint.effects["position_id"]))
    total0 = sum(b[0] for b in executor.deposits.values()) + executor.pool.balance0
    total1 = sum(b[1] for b in executor.deposits.values()) + executor.pool.balance1
    assert total0 == initial_total0
    assert total1 == initial_total1


def test_deposits_never_negative(executor):
    _mint(executor)
    for _ in range(20):
        executor.process(SwapTx(user="trader", zero_for_one=True, amount=10**18))
    for balance in executor.deposits.values():
        assert balance[0] >= 0 and balance[1] >= 0
