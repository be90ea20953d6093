"""Tests for the summary rules (Figure 4)."""

import pytest

from repro.amm.fixed_point import encode_price_sqrt
from repro.amm.pool import Pool, PoolConfig
from repro.core.executor import SidechainExecutor
from repro.core.summary import summarize_epoch
from repro.core.transactions import BurnTx, CollectTx, MintTx, SwapTx
from repro.errors import SyncValidationError
from repro.sidechain.blocks import MetaBlock

DEPOSIT = 10**20
INITIAL = {"lp": [DEPOSIT, DEPOSIT], "trader": [DEPOSIT, DEPOSIT]}


def build_epoch(txs_per_block):
    """Run transactions through an executor and package them in meta-blocks."""
    pool = Pool(PoolConfig(token0="A", token1="B", fee_pips=3000))
    pool.initialize(encode_price_sqrt(1, 1))
    executor = SidechainExecutor(pool)
    executor.begin_epoch(INITIAL)
    blocks = []
    for round_index, txs in enumerate(txs_per_block):
        block = MetaBlock(epoch=0, round_index=round_index)
        for tx in txs:
            if executor.process(tx):
                tx.included_round = round_index
                tx.included_epoch = 0
                tx.included_at = float(round_index)
                block.transactions.append(tx)
        block.seal()
        blocks.append(block)
    return executor, blocks


def test_summary_payouts_match_executor_state():
    mint = MintTx(user="lp", tick_lower=-6000, tick_upper=6000,
                  amount0_desired=10**18, amount1_desired=10**18)
    swap = SwapTx(user="trader", zero_for_one=True, amount=10**16)
    executor, blocks = build_epoch([[mint], [swap]])
    summary = summarize_epoch(
        0, blocks, INITIAL, executor.pool.balance0, executor.pool.balance1
    )
    payouts = {user: (b0, b1) for user, b0, b1 in summary.payouts}
    for user, balance in executor.deposits.items():
        assert payouts[user] == (balance[0], balance[1]), user


def test_summary_positions_reflect_net_changes():
    mint = MintTx(user="lp", tick_lower=-6000, tick_upper=6000,
                  amount0_desired=10**18, amount1_desired=10**18)
    executor, blocks = build_epoch([[mint]])
    summary = summarize_epoch(0, blocks, INITIAL, 0, 0)
    assert len(summary.positions) == 1
    _, owner, _, _, delta, after, _, _, deleted = summary.positions[0]
    assert owner == "lp"
    assert delta == mint.effects["liquidity_delta"]
    assert after == mint.effects["liquidity_delta"]
    assert not deleted


def test_mint_then_full_burn_marks_deleted():
    mint = MintTx(user="lp", tick_lower=-6000, tick_upper=6000,
                  amount0_desired=10**18, amount1_desired=10**18)
    executor, blocks = build_epoch([[mint]])
    burn = BurnTx(user="lp", position_id=mint.effects["position_id"])
    block = MetaBlock(epoch=0, round_index=1)
    assert executor.process(burn)
    burn.included_round = 1
    block.transactions.append(burn)
    blocks.append(block)
    summary = summarize_epoch(0, blocks, INITIAL, 0, 0)
    _, _, _, _, _, after, _, _, deleted = summary.positions[0]
    assert deleted
    assert after == 0


def test_swaps_of_one_user_combine_into_one_payout():
    """Figure 4: all of a client's swaps fold into a single tuple."""
    swaps = [SwapTx(user="trader", zero_for_one=i % 2 == 0, amount=10**15)
             for i in range(6)]
    mint = MintTx(user="lp", tick_lower=-6000, tick_upper=6000,
                  amount0_desired=10**19, amount1_desired=10**19)
    executor, blocks = build_epoch([[mint], swaps[:3], swaps[3:]])
    summary = summarize_epoch(0, blocks, INITIAL, 0, 0)
    trader_entries = [p for p in summary.payouts if p[0] == "trader"]
    assert len(trader_entries) == 1
    assert trader_entries[0][1] == executor.deposits["trader"][0]


def test_conservation_of_summary():
    """Total tokens in payouts + pool = total initial deposits."""
    mint = MintTx(user="lp", tick_lower=-6000, tick_upper=6000,
                  amount0_desired=10**18, amount1_desired=10**18)
    swap = SwapTx(user="trader", zero_for_one=True, amount=10**16)
    collect = CollectTx(user="lp", position_id=None)
    executor, blocks = build_epoch([[mint], [swap]])
    collect.position_id = mint.effects["position_id"]
    block = MetaBlock(epoch=0, round_index=2)
    assert executor.process(collect)
    collect.included_round = 2
    collect.included_epoch = 0
    block.transactions.append(collect)
    blocks.append(block)
    summary = summarize_epoch(
        0, blocks, INITIAL, executor.pool.balance0, executor.pool.balance1
    )
    total0 = sum(b0 for _, b0, _ in summary.payouts) + summary.pool_balance0
    total1 = sum(b1 for _, _, b1 in summary.payouts) + summary.pool_balance1
    assert total0 == 2 * DEPOSIT
    assert total1 == 2 * DEPOSIT


def test_rejected_transactions_excluded():
    mint = MintTx(user="lp", tick_lower=-6000, tick_upper=6000,
                  amount0_desired=10**18, amount1_desired=10**18)
    # A burn on a non-existent position is always rejected.
    bad = BurnTx(user="trader", position_id="not-a-position")
    executor, blocks = build_epoch([[mint], [bad]])
    assert blocks[1].transactions == []  # never included
    summary = summarize_epoch(0, blocks, INITIAL, 0, 0)
    payouts = {user: (b0, b1) for user, b0, b1 in summary.payouts}
    assert payouts["trader"][0] == DEPOSIT


def test_inactive_users_keep_initial_balances():
    executor, blocks = build_epoch([[]])
    summary = summarize_epoch(0, blocks, INITIAL, 0, 0)
    assert {user for user, _, _ in summary.payouts} == {"lp", "trader"}


def test_wrong_epoch_meta_block_rejected():
    executor, blocks = build_epoch([[]])
    blocks[0].epoch = 5
    with pytest.raises(SyncValidationError):
        summarize_epoch(0, blocks, INITIAL, 0, 0)


def test_summary_sizes_follow_table_iv():
    mint = MintTx(user="lp", tick_lower=-6000, tick_upper=6000,
                  amount0_desired=10**18, amount1_desired=10**18)
    executor, blocks = build_epoch([[mint]])
    summary = summarize_epoch(0, blocks, INITIAL, 0, 0)
    assert summary.sidechain_size_bytes == 2 * 97 + 1 * 215
    assert summary.mainchain_size_bytes == 2 * 352 + 1 * 416


def test_payouts_sorted_by_user():
    executor, blocks = build_epoch([[]])
    summary = summarize_epoch(0, blocks, INITIAL, 0, 0)
    users = [user for user, _, _ in summary.payouts]
    assert users == sorted(users)
