"""Property suite: the swap walker is equivalent to a naive sequential swap.

``SwapBatch.quote`` is the only tick walker in ``src/`` (a lone
``prepare_swap`` is a batch of one), so it is compared against
``tests/swap_oracle.py`` — the textbook step loop, sharing none of the
walker's cursor/overlay/symbolic-tick machinery — and must be
*bit-identical* to it for any transaction sequence: same amounts, same
fees, same errors, same final pool state including every tick record's
fee-growth-outside values and the state version.  These properties drive
generated swap mixes (both directions, exact input and exact output,
price limits, tick-crossing sizes, rejections that discard a quote)
through both on identically constructed pools and compare everything
observable; a second property pins one batch of N against N batches of
one.

The executor-level properties do the same one layer up:
``SidechainExecutor.process_round`` (one batch per run of swaps) against
per-transaction ``process`` (a batch per swap) and ``fill_block`` over a
list of one — acceptance decisions, reject-reason strings, effects dicts,
deposits and pool state all match, for every transaction type including a
``SwapTx`` subclass nobody registered and a type the executor has never
heard of.
"""

import copy
from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from repro.amm.fixed_point import encode_price_sqrt
from repro.amm.pool import Pool, PoolConfig
from repro.core.executor import SidechainExecutor
from repro.core.transactions import (
    BurnTx,
    CollectTx,
    MintTx,
    SidechainTx,
    SwapTx,
)
from repro.errors import AMMError
from tests.swap_oracle import oracle_execute, oracle_quote


def build_pool() -> Pool:
    """A pool with overlapping ranges so swaps cross initialized ticks."""
    pool = Pool(PoolConfig(token0="A", token1="B", fee_pips=3000))
    pool.initialize(encode_price_sqrt(1, 1))
    pool.mint("lp", -600, 600, 10**18)
    pool.mint("lp", -120, 120, 5 * 10**17)
    pool.mint("lp", -60, 60, 10**17)
    pool.mint("lp", 60, 240, 3 * 10**17)
    return pool


def tick_fee_state(pool: Pool) -> dict:
    return {
        tick: (
            info.liquidity_gross,
            info.liquidity_net,
            info.fee_growth_outside0_x128,
            info.fee_growth_outside1_x128,
        )
        for tick, info in pool.ticks.ticks.items()
    }


SWAP = st.tuples(
    st.booleans(),  # zero_for_one
    st.booleans(),  # exact_input
    st.integers(min_value=10**13, max_value=4 * 10**17),
    # 0/2: plain accept; 1: price-limited accept; 3: quote then discard.
    st.integers(min_value=0, max_value=3),
)


def price_limit(pool: Pool, zero_for_one: bool, mode: int) -> int | None:
    """Mode 1: a tight limit in the swap direction, where both sides must
    stop at the same price (and may reject with NoLiquidityError when the
    limit allows no movement at all)."""
    if mode != 1:
        return None
    price = pool.sqrt_price_x96
    return price - price // 500 if zero_for_one else price + price // 500


def outcome_of(quote, *args):
    """("ok", amount0, amount1, fee, price after) or the typed error."""
    try:
        q = quote(*args)
    except AMMError as exc:  # SlippageError / NoLiquidityError included
        return ("err", type(exc).__name__, str(exc)), None
    return ("ok", q.amount0, q.amount1, q.fee_paid, q.sqrt_price_after_x96), q


def batch_quote(batch, *args):
    batch.quote(*args)
    return batch


@settings(max_examples=80, deadline=None)
@given(swaps=st.lists(SWAP, min_size=1, max_size=16))
def test_batch_quoting_equals_sequential(swaps):
    seq = build_pool()
    bat = build_pool()
    batch = bat.begin_swap_batch()
    for zero_for_one, exact_input, amount, mode in swaps:
        amount_specified = amount if exact_input else -amount
        limit = price_limit(seq, zero_for_one, mode)
        seq_outcome, oracle_swap = outcome_of(
            oracle_quote, seq, zero_for_one, amount_specified, limit
        )
        bat_outcome, _ = outcome_of(
            batch_quote, batch, zero_for_one, amount_specified, limit
        )
        assert seq_outcome == bat_outcome
        if oracle_swap is not None and mode != 3:
            oracle_execute(seq, oracle_swap)
            batch.accept()
        # mode == 3 (or an error): the quote is discarded on both sides.
    batch.commit()
    assert seq.snapshot() == bat.snapshot()
    assert seq._state_version == bat._state_version
    assert tick_fee_state(seq) == tick_fee_state(bat)


@settings(max_examples=60, deadline=None)
@given(swaps=st.lists(SWAP, min_size=1, max_size=16))
def test_batch_of_n_equals_n_batches_of_one(swaps):
    one = build_pool()
    many = build_pool()
    batch = many.begin_swap_batch()
    for zero_for_one, exact_input, amount, mode in swaps:
        amount_specified = amount if exact_input else -amount
        limit = price_limit(one, zero_for_one, mode)
        one_outcome, pending = outcome_of(
            one.prepare_swap, zero_for_one, amount_specified, limit
        )
        many_outcome, _ = outcome_of(
            batch_quote, batch, zero_for_one, amount_specified, limit
        )
        assert one_outcome == many_outcome
        if pending is not None and mode != 3:
            result = pending.commit()
            batch.accept()
            assert result.sqrt_price_x96 == pending.sqrt_price_after_x96
            assert (result.tick, result.liquidity) == (one.tick, one.liquidity)
    batch.commit()
    assert one.snapshot() == many.snapshot()
    assert one._state_version == many._state_version
    assert tick_fee_state(one) == tick_fee_state(many)


def test_stale_or_spent_pending_swap_is_refused():
    """Whatever moved the pool — another handle, an open batch's commit,
    this handle's own commit — a later commit raises and writes nothing."""
    pool = build_pool()
    first = pool.prepare_swap(True, 10**16)
    second = pool.prepare_swap(False, 10**16)
    batch = pool.begin_swap_batch()
    batch.quote(True, 10**15)
    batch.accept()
    first.commit()
    after_first = (pool.snapshot(), tick_fee_state(pool), pool._state_version)
    for stale_commit in (first.commit, second.commit, batch.commit):
        with pytest.raises(AMMError):
            stale_commit()
    assert (pool.snapshot(), tick_fee_state(pool), pool._state_version) == after_first


@settings(max_examples=40, deadline=None)
@given(
    swaps=st.lists(SWAP, min_size=1, max_size=10),
    direction=st.booleans(),
)
def test_batch_with_nothing_accepted_leaves_pool_untouched(swaps, direction):
    pool = build_pool()
    before = pool.snapshot()
    version = pool._state_version
    ticks_before = tick_fee_state(pool)
    batch = pool.begin_swap_batch()
    for zero_for_one, exact_input, amount, _ in swaps:
        try:
            batch.quote(zero_for_one, amount if exact_input else -amount)
        except AMMError:
            pass
    batch.commit()
    assert pool.snapshot() == before
    assert pool._state_version == version
    assert tick_fee_state(pool) == ticks_before


# -- executor level -------------------------------------------------------------

RICH = ("u0", "u1", "u2")


@dataclass
class LimitOrderTx(SwapTx):
    """A swap subclass no executor registers: dispatch falls back along
    the MRO, so it executes as the swap it is."""


@dataclass
class NoteTx(SidechainTx):
    """A transaction type with no handler anywhere up its MRO."""


#: Every executor under comparison mints a copy of this, so the position
#: (its id hashes the transaction id) is the same one on each.
SEED_MINT = MintTx(
    user="u1",
    tick_lower=-600,
    tick_upper=600,
    amount0_desired=10**16,
    amount1_desired=10**16,
)
SEED_POSITION = SidechainExecutor._new_position_id(SEED_MINT)

TX = st.tuples(
    # 0-2 rich user, 3 poor (swaps); 4 mint, 5 swap subclass, 6 unknown
    # type, 7 burn, 8 collect
    st.integers(min_value=0, max_value=8),
    st.booleans(),  # zero_for_one
    st.booleans(),  # exact_input
    st.one_of(st.just(0), st.integers(min_value=10**13, max_value=3 * 10**17)),
    st.integers(min_value=0, max_value=2),  # 0 none, 1 slippage, 2 deadline
)


def build_executor(pool: Pool | None = None) -> SidechainExecutor:
    executor = SidechainExecutor(pool or build_pool())
    deposits = {user: [10**20, 10**20] for user in RICH}
    deposits["poor"] = [0, 0]
    executor.begin_epoch(deposits)
    if executor.pool.initialized:
        assert executor.process(copy.deepcopy(SEED_MINT))
    return executor


def assert_same_books(a: SidechainExecutor, b: SidechainExecutor) -> None:
    assert a.pool.snapshot() == b.pool.snapshot()
    assert a.pool._state_version == b.pool._state_version
    assert tick_fee_state(a.pool) == tick_fee_state(b.pool)
    assert a.deposits == b.deposits
    assert a.processed_count == b.processed_count
    assert a.rejected_count == b.rejected_count


def make_txs(entries):
    txs = []
    for user_idx, zero_for_one, exact_input, amount, reject_mode in entries:
        if user_idx == 4:
            tx = MintTx(
                user="u0",
                tick_lower=-1200,
                tick_upper=1200,
                amount0_desired=10**15,
                amount1_desired=10**15,
            )
        elif user_idx == 6:
            tx = NoteTx(user="u0")
        elif user_idx == 7:
            # u1 owns the seeded position; the others' burns are refused.
            tx = BurnTx(
                user="u1" if exact_input else "u2",
                position_id=SEED_POSITION,
                liquidity=10**12,
            )
        elif user_idx == 8:
            tx = CollectTx(user="u1", position_id=SEED_POSITION)
        else:
            tx_type = LimitOrderTx if user_idx == 5 else SwapTx
            user = "poor" if user_idx == 3 else RICH[user_idx % 3]
            amount_limit = None
            deadline = None
            if reject_mode == 1:
                # Unsatisfiable slippage bound: min output (exact input)
                # or max input (exact output) no swap can meet.
                amount_limit = 10**30 if exact_input else 1
            elif reject_mode == 2:
                deadline = 1  # already passed at current_round = 5
            tx = tx_type(
                user=user,
                zero_for_one=zero_for_one,
                exact_input=exact_input,
                amount=amount,
                amount_limit=amount_limit,
                deadline=deadline,
            )
        txs.append(tx)
    return txs


@settings(max_examples=60, deadline=None)
@given(entries=st.lists(TX, min_size=1, max_size=14))
def test_process_round_batch_equals_sequential(entries):
    batch_ex = build_executor()
    seq_ex = build_executor()
    batch_txs = make_txs(entries)
    seq_txs = make_txs(entries)

    batch_accepted = batch_ex.process_round(batch_txs, current_round=5)
    seq_accepted = [
        tx for tx in seq_txs if seq_ex.process(tx, current_round=5)
    ]

    assert len(batch_accepted) == len(seq_accepted)
    for b, s in zip(batch_txs, seq_txs):
        assert b.reject_reason == s.reject_reason
        # A fresh mint's position id hashes its transaction id, which
        # differs between the two copies.
        if not isinstance(b, MintTx):
            assert b.effects == s.effects
        if type(b) is LimitOrderTx and not b.reject_reason:
            assert b.effects["fee"] > 0
        if type(b) is NoteTx:
            assert b.reject_reason == "unknown transaction type NoteTx"
    assert_same_books(batch_ex, seq_ex)


@settings(max_examples=60, deadline=None)
@given(entries=st.lists(TX, min_size=1, max_size=10))
def test_process_equals_process_round_of_one(entries):
    """process(tx) ≡ process_round([tx]) ≡ fill_block([tx], None, r)."""
    single_ex = build_executor()
    round_ex = build_executor()
    block_ex = build_executor()
    for single_tx, round_tx, block_tx in zip(
        make_txs(entries), make_txs(entries), make_txs(entries)
    ):
        accepted = single_ex.process(single_tx, current_round=5)
        assert round_ex.process_round([round_tx], current_round=5) == (
            [round_tx] if accepted else []
        )
        assert block_ex.fill_block([block_tx], None, 5) == (
            ([block_tx], 0) if accepted else ([], 1)
        )
        assert single_tx.reject_reason == round_tx.reject_reason
        assert single_tx.reject_reason == block_tx.reject_reason
        if not isinstance(single_tx, MintTx):
            assert single_tx.effects == round_tx.effects == block_tx.effects
        assert_same_books(single_ex, round_ex)
        assert_same_books(single_ex, block_ex)


def test_uninitialized_pool_rejects_each_swap_with_the_pools_message():
    def txs():
        return [
            SwapTx(user="u0", zero_for_one=True, exact_input=True, amount=10**15),
            # Checks that come before the walk still answer first.
            SwapTx(user="u0", zero_for_one=True, exact_input=True, amount=10**15,
                   deadline=1),
            SwapTx(user="u0", zero_for_one=False, exact_input=True, amount=0),
            SwapTx(user="u1", zero_for_one=False, exact_input=False, amount=10**15),
        ]

    reasons = [
        "pool not initialized",
        "deadline round 1 passed",
        "swap amount must be positive",
        "pool not initialized",
    ]
    single_ex = build_executor(Pool(PoolConfig(token0="A", token1="B")))
    round_ex = build_executor(Pool(PoolConfig(token0="A", token1="B")))
    single_txs, round_txs = txs(), txs()
    assert not any(single_ex.process(tx, current_round=5) for tx in single_txs)
    assert round_ex.process_round(round_txs, current_round=5) == []
    assert [tx.reject_reason for tx in single_txs] == reasons
    assert [tx.reject_reason for tx in round_txs] == reasons
    assert single_ex.rejected_count == round_ex.rejected_count == 4
    assert_same_books(single_ex, round_ex)
