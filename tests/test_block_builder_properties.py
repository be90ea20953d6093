"""Property suite: block packing is pinned against the two-loop reference.

``RoundExecutionPhase.mine_meta_block`` (and the executor entry points
under it) must pack byte-for-byte like ``tests/block_packing_reference.py``
— the run pre-selection / identity re-match / ``isinstance`` ladder code
the block builder replaced.  Generated mixed queues go through both on
identically built books, block after block until the queue drains, and
everything observable is compared: block contents and order, bytes used,
the queue remainder, reject reasons, effects, inclusion stamps, deposits,
positions, the pool book and the counters.

The named tests pin the cases the property is there for — a swap that
rejects mid-run under a tight capacity (it "frees its bytes"), an oversize
transaction at an empty and at a part-filled block, a swap run interrupted
by position transactions, cross-shard legs inside a swap run on a
``ShardExecutor``, an uninitialized pool.
"""

import copy
from collections import deque
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.amm.fixed_point import encode_price_sqrt
from repro.amm.pool import Pool, PoolConfig
from repro.core.executor import SidechainExecutor
from repro.core.phases import RoundExecutionPhase
from repro.core.transactions import BurnTx, CollectTx, MintTx, SwapTx
from repro.metrics.collector import MetricsCollector
from repro.sharding.escrow import (
    CrossShardSwapTx,
    CrossShardTransferTx,
    EscrowLedger,
)
from repro.sharding.shard import ShardExecutor
from repro.sidechain.chain import SidechainLedger
from tests.block_packing_reference import (
    ReferenceExecutor,
    ReferenceShardExecutor,
    reference_mine_meta_block,
)
from tests.test_amm_batch_properties import tick_fee_state

RICH = ("u0", "u1", "u2")
ROUND = 5


class OwnershipLog:
    """Stands in for the user population: records the ownership feed."""

    def __init__(self) -> None:
        self.events: list[tuple[str, str, str]] = []

    def on_position_created(self, address: str, position_id: str) -> None:
        self.events.append(("created", address, position_id))

    def on_position_deleted(self, address: str, position_id: str) -> None:
        self.events.append(("deleted", address, position_id))


def seed_mints() -> list[MintTx]:
    """One position per rich user, straddling the price so fees accrue."""
    return [
        MintTx(
            user=user,
            tick_lower=-600 - 60 * slot,
            tick_upper=600 + 60 * slot,
            amount0_desired=10**17,
            amount1_desired=10**17,
        )
        for slot, user in enumerate(RICH)
    ]


def build_system(reference, sharded, initialized, seeds, txs, capacity):
    """The slice of a deployment ``mine_meta_block`` touches, on a fresh
    book, around the live executor or its two-loop ``reference``."""
    if sharded:
        executor_cls = ReferenceShardExecutor if reference else ShardExecutor
    else:
        executor_cls = ReferenceExecutor if reference else SidechainExecutor
    pool = Pool(PoolConfig(token0="A", token1="B", fee_pips=3000))
    if initialized:
        pool.initialize(encode_price_sqrt(1, 1))
        pool.mint("lp", -600, 600, 10**18)
        pool.mint("lp", -120, 120, 5 * 10**17)
        pool.mint("lp", 60, 240, 3 * 10**17)
    if sharded:
        shard = SimpleNamespace(
            index=0,
            current_epoch=0,
            ledger=EscrowLedger(0),
            system=SimpleNamespace(clock=SimpleNamespace(now=0.0)),
        )
        executor = executor_cls(pool, shard)
    else:
        executor = executor_cls(pool)
    deposits = {user: [10**20, 10**20] for user in RICH}
    deposits["poor"] = [0, 0]
    executor.begin_epoch(deposits)
    if initialized:
        for mint in copy.deepcopy(seeds):
            executor._process_mint(mint)
    return SimpleNamespace(
        executor=executor,
        pool=pool,
        queue=deque(copy.deepcopy(txs)),
        metrics=MetricsCollector(),
        config=SimpleNamespace(meta_block_size=capacity),
        ledger=SidechainLedger(),
        population=OwnershipLog(),
        _global_round=ROUND,
        _epoch_txs={},
        _committee=None,
    )


def tx_view(tx) -> tuple:
    return (
        tx.tx_id,
        tx.reject_reason,
        tx.effects,
        tx.included_round,
        tx.included_epoch,
        tx.included_at,
    )


def assert_same_state(live, ref, live_txs, ref_txs) -> None:
    assert [tx_view(tx) for tx in live_txs] == [tx_view(tx) for tx in ref_txs]
    assert [tx.tx_id for tx in live.queue] == [tx.tx_id for tx in ref.queue]
    a, b = live.executor, ref.executor
    assert a.deposits == b.deposits
    assert a.positions == b.positions
    assert (a.processed_count, a.rejected_count) == (
        b.processed_count, b.rejected_count
    )
    assert a.pool.snapshot() == b.pool.snapshot()
    assert a.pool._state_version == b.pool._state_version
    assert tick_fee_state(a.pool) == tick_fee_state(b.pool)
    assert a.pool.positions == b.pool.positions
    for stat in ("processed_txs", "rejected_txs"):
        assert getattr(live.metrics, stat) == getattr(ref.metrics, stat)
    la, lb = live.metrics.sidechain_latency, ref.metrics.sidechain_latency
    assert (la.count, la.total, la.minimum, la.maximum) == (
        lb.count, lb.total, lb.minimum, lb.maximum
    )
    assert live.population.events == ref.population.events
    assert {
        epoch: [tx.tx_id for tx in txs] for epoch, txs in live._epoch_txs.items()
    } == {
        epoch: [tx.tx_id for tx in txs] for epoch, txs in ref._epoch_txs.items()
    }
    if hasattr(a, "shard"):
        assert a.shard.ledger.records == b.shard.ledger.records
        assert a.shard.ledger._epoch_counters == b.shard.ledger._epoch_counters



def pack_both(txs, seeds, capacity, *, sharded=False, initialized=True):
    """Drain ``txs`` through the live and the reference packer, block by
    block, comparing after every block.

    Returns the live side's blocks and its copies of ``txs``.
    """
    live = build_system(False, sharded, initialized, seeds, txs, capacity)
    ref = build_system(True, sharded, initialized, seeds, txs, capacity)
    live_txs, ref_txs = list(live.queue), list(ref.queue)
    round_index = 0
    while live.queue or ref.queue:
        assert round_index <= len(txs), "packing stopped making progress"
        round_end = 7.0 * (round_index + 1)
        RoundExecutionPhase.mine_meta_block(live, 0, round_index, round_end)
        reference_mine_meta_block(ref, 0, round_index, round_end)
        live_block = live.ledger.meta_blocks[0][-1]
        ref_block = ref.ledger.meta_blocks[0][-1]
        assert [tx.tx_id for tx in live_block.transactions] == [
            tx.tx_id for tx in ref_block.transactions
        ]
        assert live_block.size_bytes == ref_block.size_bytes
        assert sum(tx.size_bytes for tx in live_block.transactions) <= capacity
        assert live_block.tx_root == ref_block.tx_root
        assert_same_state(live, ref, live_txs, ref_txs)
        round_index += 1
    return live.ledger.meta_blocks.get(0, []), live_txs


# -- generated queues -------------------------------------------------------------

KINDS = ("swap", "swap", "swap", "mint", "burn", "collect", "xfer", "xswap")

ENTRY = st.tuples(
    st.sampled_from(KINDS),
    # 0-2 rich user, 3 poor, 4 a user the deposit table has never seen
    st.integers(min_value=0, max_value=4),
    st.booleans(),  # zero_for_one
    st.booleans(),  # exact_input
    st.one_of(st.just(0), st.integers(min_value=10**13, max_value=3 * 10**17)),
    st.integers(min_value=0, max_value=3),  # reject mode, read per kind below
    st.sampled_from((150, 150, 220, 400, 5000)),  # 5000 exceeds every block
    st.integers(min_value=0, max_value=2),  # position / transfer-id slot
)


def make_txs(entries, seeds):
    """Transactions for one example; burns, collects and top-ups name the
    positions the ``seeds`` mints will create."""
    position_ids = [SidechainExecutor._new_position_id(mint) for mint in seeds]
    txs = []
    for index, entry in enumerate(entries):
        kind, user_idx, zero_for_one, exact_input, amount, mode, size, slot = entry
        user = (*RICH, "poor", "stranger")[user_idx]
        swap_fields = dict(
            zero_for_one=zero_for_one,
            exact_input=exact_input,
            amount=amount,
            # Mode 1: an unsatisfiable slippage bound; 2: a passed deadline.
            amount_limit=(10**30 if exact_input else 1) if mode == 1 else None,
            deadline=1 if mode == 2 else None,
            size_bytes=size,
        )
        if kind == "swap":
            tx = SwapTx(user=user, **swap_fields)
        elif kind == "xswap":
            tx = CrossShardSwapTx(
                user=user,
                transfer_id=f"in-{index}",
                home_shard=1,
                return_output=mode != 3,
                **swap_fields,
            )
        elif kind == "xfer":
            tx = CrossShardTransferTx(
                user=user,
                # Three ids only, so later transfers hit "already prepared".
                transfer_id=f"t-{slot}",
                dest_shard=1,
                dest_pool="p1",
                return_output=mode == 3,
                **swap_fields,
            )
        elif kind == "mint":
            tx = MintTx(
                user=user,
                tick_lower=-1200 + 60 * slot,
                tick_upper=1200,
                amount0_desired=amount // 100,
                amount1_desired=amount // 100,
                # Mode 1 tops up a seeded position (someone else's unless
                # the drawn user happens to own it).
                position_id=position_ids[slot] if mode == 1 else None,
                size_bytes=size,
            )
        else:
            # Mode 1 keeps the drawn user, usually not the owner.
            owner = user if mode == 1 else RICH[slot]
            if kind == "burn":
                tx = BurnTx(
                    user=owner,
                    position_id=position_ids[slot],
                    liquidity=None if exact_input else 10**14,
                    size_bytes=size,
                )
            else:
                tx = CollectTx(
                    user=owner,
                    position_id=position_ids[slot],
                    amount0=-1 if mode == 2 else None,
                    amount1=None if exact_input else 10**9,
                    size_bytes=size,
                )
        txs.append(tx)
    return txs


@settings(max_examples=120, deadline=None)
@given(
    entries=st.lists(ENTRY, min_size=1, max_size=24),
    capacity=st.sampled_from((450, 1000, 2500)),
    sharded=st.booleans(),
)
def test_packing_matches_the_two_loop_reference(entries, capacity, sharded):
    # On a plain executor the cross-shard classes are just SwapTx
    # subclasses and must execute as swaps, as ``isinstance`` had it.
    seeds = seed_mints()
    pack_both(make_txs(entries, seeds), seeds, capacity, sharded=sharded)


@settings(max_examples=25, deadline=None)
@given(entries=st.lists(ENTRY, min_size=1, max_size=12), sharded=st.booleans())
def test_packing_on_an_uninitialized_pool(entries, sharded):
    seeds = seed_mints()
    blocks, txs = pack_both(
        make_txs(entries, seeds), seeds, 1000, sharded=sharded, initialized=False
    )
    # Only a cross-shard prepare (no pool involved) can be accepted.
    assert all(
        type(tx) is CrossShardTransferTx
        for block in blocks
        for tx in block.transactions
    )


@settings(max_examples=60, deadline=None)
@given(entries=st.lists(ENTRY, min_size=1, max_size=14), sharded=st.booleans())
def test_list_entry_points_match_the_reference(entries, sharded):
    """``process_round`` over the whole list and ``process`` one at a time."""
    seeds = seed_mints()
    txs = make_txs(entries, seeds)
    for one_at_a_time in (False, True):
        live = build_system(False, sharded, True, seeds, txs, 0)
        ref = build_system(True, sharded, True, seeds, txs, 0)
        live_txs, ref_txs = list(live.queue), list(ref.queue)
        if one_at_a_time:
            live_ok = [tx for tx in live_txs if live.executor.process(tx, ROUND)]
            ref_ok = [tx for tx in ref_txs if ref.executor.process(tx, ROUND)]
        else:
            live_ok = live.executor.process_round(live_txs, current_round=ROUND)
            ref_ok = ref.executor.process_round(ref_txs, current_round=ROUND)
        assert [tx.tx_id for tx in live_ok] == [tx.tx_id for tx in ref_ok]
        assert len(live_txs) == len(txs)  # the caller's list is not consumed
        live.queue.clear()
        ref.queue.clear()
        assert_same_state(live, ref, live_txs, ref_txs)


# -- the named cases ---------------------------------------------------------------


def swap(user="u0", amount=10**15, size=200, **fields) -> SwapTx:
    return SwapTx(
        user=user, zero_for_one=True, exact_input=True, amount=amount,
        size_bytes=size, **fields,
    )


def test_a_swap_rejected_mid_run_frees_its_bytes():
    """Capacity 600 holds three 200-byte swaps.  The second of four is
    rejected, so the fourth — which the conservative pre-selection left
    out of the run — still lands in the same block."""
    seeds = seed_mints()
    txs = [swap(), swap(user="poor"), swap(), swap(), swap()]
    blocks, live_txs = pack_both(txs, seeds, 600)
    assert [[tx.tx_id for tx in block.transactions] for block in blocks] == [
        [txs[0].tx_id, txs[2].tx_id, txs[3].tx_id],
        [txs[4].tx_id],
    ]
    assert live_txs[1].reject_reason.startswith("deposit 0 cannot cover swap input")


@pytest.mark.parametrize("sharded", [False, True])
def test_oversize_transaction_at_an_empty_and_at_a_part_filled_block(sharded):
    seeds = seed_mints()
    txs = [
        swap(size=5000),  # used == 0: rejected, not stalled
        swap(),
        swap(size=5000),  # used > 0: closes the block, rejected at the next
        swap(),
    ]
    blocks, live_txs = pack_both(txs, seeds, 1000, sharded=sharded)
    assert [[tx.tx_id for tx in block.transactions] for block in blocks] == [
        [txs[1].tx_id],
        [txs[3].tx_id],
    ]
    assert [tx.reject_reason for tx in live_txs] == [
        "transaction exceeds meta-block size", "",
        "transaction exceeds meta-block size", "",
    ]


def test_a_swap_run_interrupted_by_position_transactions():
    seeds = seed_mints()
    position_ids = [SidechainExecutor._new_position_id(mint) for mint in seeds]
    txs = [
        swap(),
        swap(amount=0),
        MintTx(user="u1", tick_lower=-1200, tick_upper=1200,
               amount0_desired=10**15, amount1_desired=10**15, size_bytes=300),
        swap(user="u2"),
        CollectTx(user="u0", position_id=position_ids[0], size_bytes=150),
        CollectTx(user="u1", position_id=position_ids[0], size_bytes=150),
        swap(),
        BurnTx(user="u2", position_id=position_ids[2], size_bytes=150),
        swap(),
    ]
    blocks, live_txs = pack_both(txs, seeds, 100_000)
    assert len(blocks) == 1 and len(blocks[0].transactions) == 7
    assert live_txs[5].reject_reason.startswith("u1 does not own position")
    # The collect saw the fees of the swaps before it: the batch they ran
    # on was committed before the position transaction executed.
    assert live_txs[4].effects["amount0"] > 0


def test_cross_shard_legs_inside_a_swap_run_on_a_shard_executor():
    seeds = seed_mints()
    leg = dict(zero_for_one=True, exact_input=True, amount=10**15, size_bytes=200)
    txs = [
        swap(),
        CrossShardTransferTx(user="u1", transfer_id="t-0", dest_shard=1,
                             dest_pool="p1", **leg),
        swap(),
        CrossShardSwapTx(user="u2", transfer_id="in-0", home_shard=1,
                         return_output=True, **leg),
        swap(user="poor"),
        CrossShardTransferTx(user="u1", transfer_id="t-0", dest_shard=1,
                             dest_pool="p1", **leg),
        CrossShardSwapTx(user="u2", transfer_id="in-1", home_shard=1, **leg),
        swap(),
    ]
    blocks, live_txs = pack_both(txs, seeds, 1300, sharded=True)
    assert [len(block.transactions) for block in blocks] == [6]
    assert live_txs[5].reject_reason == "transfer t-0 already prepared"
    # The round trip escrowed its whole output: nothing left to pay out.
    assert live_txs[3].effects["delta1"] == 0 and live_txs[3].effects["fee"] > 0
    assert live_txs[6].effects["delta1"] > 0
