"""Property suite: copy-on-epoch snapshots quote like the frozen pool.

Four guarantees back the serving layer's snapshot isolation:

* equivalence — ``PoolSnapshot.quote(...)`` returns exactly what
  ``quote_swap(pool, ...)`` returned on the live pool at freeze time,
  and what the naive sequential swap of ``tests/swap_oracle.py`` (which
  shares no code with the walker both of those run on) computes, for
  generated pool states and quote parameters (amounts, directions,
  price limits, error cases included);
* statelessness — the snapshot answers every quote from one persistent,
  never-committed walker, and thousands of interleaved quotes leave no
  trace in it: each answer equals the first answer to the same question;
* immutability — mutating the live pool afterwards (swaps, mints,
  burns, flash fees, epoch advances) never changes an outstanding
  snapshot's answers;
* error transparency — ``NoLiquidityError`` (and the other AMM errors)
  propagate through the gateway path with the same type and message as
  the direct quoter.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.amm.fixed_point import encode_price_sqrt
from repro.amm.pool import Pool, PoolConfig
from repro.amm.quoter import Quote, quote_swap
from repro.core.transactions import IdSpace
from repro.errors import AMMError, NoLiquidityError, SlippageError
from repro.serving.gateway import QuoteGateway
from tests.swap_oracle import oracle_quote


def build_pool(positions) -> Pool:
    pool = Pool(PoolConfig(token0="A", token1="B", fee_pips=3000))
    pool.initialize(encode_price_sqrt(1, 1))
    for lower_idx, width_idx, liquidity in positions:
        lower = lower_idx * 60
        upper = lower + width_idx * 60
        pool.mint("lp", lower, upper, liquidity)
    return pool


POSITION = st.tuples(
    st.integers(min_value=-40, max_value=20),  # lower tick, in spacing units
    st.integers(min_value=1, max_value=40),    # width, in spacing units
    st.integers(min_value=10**15, max_value=10**18),
)

QUOTE = st.tuples(
    st.booleans(),
    st.integers(min_value=10**13, max_value=4 * 10**17),
)

MUTATION = st.tuples(
    st.sampled_from(("swap", "mint", "burn")),
    st.booleans(),
    st.integers(min_value=10**13, max_value=2 * 10**17),
)


def _outcome(fn, *args):
    """Value-or-error outcome, comparable across quote paths."""
    try:
        return ("ok", fn(*args))
    except (NoLiquidityError, SlippageError) as exc:
        return ("err", type(exc).__name__, str(exc))
    except AMMError as exc:
        return ("err", type(exc).__name__, str(exc))


def _oracle_as_quote(*args) -> Quote:
    swap = oracle_quote(*args)
    return Quote(
        swap.amount0, swap.amount1, swap.sqrt_price_after_x96, swap.fee_paid
    )


@settings(max_examples=60, deadline=None)
@given(
    positions=st.lists(POSITION, min_size=1, max_size=6),
    quotes=st.lists(QUOTE, min_size=1, max_size=8),
)
def test_snapshot_quote_equivalent_to_live_quoter(positions, quotes):
    pool = build_pool(positions)
    snapshot = pool.freeze(epoch=1)
    for zero_for_one, amount in quotes:
        live = _outcome(quote_swap, pool, zero_for_one, amount)
        frozen = _outcome(snapshot.quote, zero_for_one, amount)
        assert frozen == live
        assert frozen == _outcome(_oracle_as_quote, pool, zero_for_one, amount)


@pytest.mark.parametrize(
    "positions, nudge, error_kinds",
    [
        # Price inside overlapping ranges, off the initial tick boundary:
        # quotes cross ticks both ways.
        (
            [(-20, 40, 10**17), (-4, 8, 10**18), (2, 6, 5 * 10**17)],
            10**16,
            {"AMMError", "SlippageError"},
        ),
        # Price above every range: upward quotes find nothing, downward
        # ones first jump the empty gap.
        (
            [(-20, 15, 10**17), (-6, 4, 10**18)],
            0,
            {"AMMError", "SlippageError", "NoLiquidityError"},
        ),
    ],
)
def test_persistent_walker_leaks_no_state_between_quotes(
    positions, nudge, error_kinds
):
    """4000 interleaved quotes — both directions, exact input and output,
    tick-crossing sizes, price limits, every error kind — each answered
    exactly like the first time the same question was asked."""
    pool = build_pool(positions)
    if nudge:
        pool.swap(True, nudge)
    snapshot = pool.freeze(epoch=1)
    price = snapshot.sqrt_price_x96
    questions = [
        (zero_for_one, sign * amount, limit)
        for zero_for_one in (True, False)
        for sign in (1, -1)
        for amount in (10**13, 10**16, 3 * 10**17, 10**19)
        for limit in (None, price - price // 300 if zero_for_one else price + price // 300)
    ]
    questions += [
        (True, 0, None),            # AMMError: zero amount
        (True, 10**15, price + 1),  # SlippageError: limit on the wrong side
        (False, 10**15, price),     # SlippageError: limit at the price
    ]
    first = [_outcome(snapshot.quote, *question) for question in questions]
    assert {answer[1] for answer in first if answer[0] == "err"} == error_kinds
    assert any(answer[0] == "ok" for answer in first)
    assert first == [_outcome(_oracle_as_quote, pool, *q) for q in questions]
    state = snapshot.snapshot()
    # A stride coprime to the list length visits the questions in an order
    # that puts every kind of quote right after every other kind.
    assert math.gcd(11, len(questions)) == 1
    for i in range(4000):
        k = (i * 11) % len(questions)
        assert _outcome(snapshot.quote, *questions[k]) == first[k]
    assert snapshot.snapshot() == state


@settings(max_examples=40, deadline=None)
@given(
    positions=st.lists(POSITION, min_size=1, max_size=5),
    quotes=st.lists(QUOTE, min_size=1, max_size=5),
    mutations=st.lists(MUTATION, min_size=1, max_size=8),
)
def test_snapshot_immutable_under_live_mutations(positions, quotes, mutations):
    pool = build_pool(positions)
    snapshot = pool.freeze(epoch=1)
    baseline = [
        _outcome(snapshot.quote, zero_for_one, amount)
        for zero_for_one, amount in quotes
    ]
    state_before = snapshot.snapshot()
    for kind, flag, amount in mutations:
        try:
            if kind == "swap":
                pool.swap(flag, amount)
            elif kind == "mint":
                pool.mint("lp2", -120, 120, amount)
            else:
                pool.burn("lp2", -120, 120, min(amount, 10**14))
        except AMMError:
            pass  # a rejected mutation is still a fine test input
    assert snapshot.snapshot() == state_before
    for (zero_for_one, amount), expected in zip(quotes, baseline):
        assert _outcome(snapshot.quote, zero_for_one, amount) == expected


@settings(max_examples=30, deadline=None)
@given(
    positions=st.lists(POSITION, min_size=1, max_size=4),
    epochs=st.integers(min_value=2, max_value=5),
    quote=QUOTE,
)
def test_snapshots_independent_across_epoch_advances(positions, epochs, quote):
    """Each boundary's snapshot keeps quoting its own epoch's state."""
    pool = build_pool(positions)
    zero_for_one, amount = quote
    snapshots = []
    expected = []
    for epoch in range(epochs):
        snap = pool.freeze(epoch=epoch)
        snapshots.append(snap)
        expected.append(_outcome(snap.quote, zero_for_one, amount))
        try:
            pool.swap(epoch % 2 == 0, amount)  # the "epoch" mutates state
        except AMMError:
            pass
    for snap, want in zip(snapshots, expected):
        assert _outcome(snap.quote, zero_for_one, amount) == want


def _gateway_quote(pool: Pool, zero_for_one: bool, amount: int):
    """One quote through the full gateway path."""
    gateway = QuoteGateway(pool, IdSpace())
    gateway.publish_snapshot(0)
    reply = gateway.quote(0, 0, zero_for_one, amount)
    gateway.process_tick()
    return reply.result()


def test_no_liquidity_error_propagates_through_gateway():
    pool = Pool(PoolConfig(token0="A", token1="B", fee_pips=3000))
    pool.initialize(encode_price_sqrt(1, 1))  # no liquidity minted
    with pytest.raises(NoLiquidityError) as direct:
        quote_swap(pool, True, 10**15)
    with pytest.raises(NoLiquidityError) as via_gateway:
        _gateway_quote(pool, True, 10**15)
    assert str(via_gateway.value) == str(direct.value)
    assert type(via_gateway.value) is type(direct.value)


@settings(max_examples=30, deadline=None)
@given(quote=QUOTE)
def test_gateway_quote_matches_direct_quoter(quote):
    zero_for_one, amount = quote
    pool = build_pool([(-20, 40, 10**17)])
    direct = _outcome(quote_swap, pool, zero_for_one, amount)
    response_or_err = _outcome(_gateway_quote, pool, zero_for_one, amount)
    if direct[0] == "err":
        assert response_or_err == direct
    else:
        response = response_or_err[1]
        want = direct[1]
        amount_in, amount_out = want.trader_amounts(zero_for_one)
        assert (response.amount_in, response.amount_out) == (
            amount_in, amount_out,
        )
        assert response.fee_paid == want.fee_paid
