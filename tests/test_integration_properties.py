"""End-to-end property tests over randomised traffic.

These encode the paper's Theorem 1 invariants operationally: under any
transaction sequence the sidechain accepts, (i) tokens are conserved,
(ii) deposits never go negative, (iii) the independent Figure-4
summariser reproduces the executor's state exactly, and (iv) after a
sync TokenBank mirrors the sidechain.
"""

from hypothesis import given, settings, strategies as st

from repro.amm.fixed_point import encode_price_sqrt
from repro.amm.pool import Pool, PoolConfig
from repro.core.executor import SidechainExecutor
from repro.core.summary import summarize_epoch
from repro.core.transactions import BurnTx, CollectTx, MintTx, SwapTx
from repro.sidechain.blocks import MetaBlock
from repro.simulation.rng import DeterministicRng
from tests.conftest import small_system

DEPOSIT = 10**21
USERS = [f"user{i}" for i in range(4)]


def random_traffic(rng, executor, count):
    """Generate a plausible random tx against current executor state."""
    txs = []
    for _ in range(count):
        kind = rng.choice(["swap", "swap", "swap", "mint", "burn", "collect"])
        user = rng.choice(USERS)
        if kind == "mint":
            lower = rng.randint(-80, 40) * 60
            txs.append(
                MintTx(
                    user=user,
                    tick_lower=lower,
                    tick_upper=lower + rng.randint(1, 40) * 60,
                    amount0_desired=rng.randint(10**14, 10**18),
                    amount1_desired=rng.randint(10**14, 10**18),
                )
            )
        elif kind == "burn" and executor.positions:
            position_id = rng.choice(sorted(executor.positions))
            txs.append(BurnTx(user=user, position_id=position_id))
        elif kind == "collect" and executor.positions:
            position_id = rng.choice(sorted(executor.positions))
            txs.append(CollectTx(user=user, position_id=position_id))
        else:
            txs.append(
                SwapTx(
                    user=user,
                    zero_for_one=rng.random() < 0.5,
                    exact_input=rng.random() < 0.8,
                    amount=rng.randint(10**13, 10**17),
                )
            )
    return txs


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_executor_invariants_under_random_traffic(seed):
    rng = DeterministicRng(seed)
    pool = Pool(PoolConfig(token0="A", token1="B", fee_pips=3000))
    pool.initialize(encode_price_sqrt(1, 1))
    executor = SidechainExecutor(pool)
    initial = {user: [DEPOSIT, DEPOSIT] for user in USERS}
    executor.begin_epoch(initial)

    blocks = []
    for round_index in range(4):
        block = MetaBlock(epoch=0, round_index=round_index)
        for tx in random_traffic(rng, executor, 15):
            if executor.process(tx, current_round=round_index):
                tx.included_round = round_index
                tx.included_epoch = 0
                tx.included_at = float(round_index)
                block.transactions.append(tx)
        block.seal()
        blocks.append(block)

    # (i) conservation
    total0 = sum(b[0] for b in executor.deposits.values()) + pool.balance0
    total1 = sum(b[1] for b in executor.deposits.values()) + pool.balance1
    assert total0 == len(USERS) * DEPOSIT
    assert total1 == len(USERS) * DEPOSIT

    # (ii) no negative balances anywhere
    for balance in executor.deposits.values():
        assert balance[0] >= 0 and balance[1] >= 0
    assert pool.balance0 >= 0 and pool.balance1 >= 0

    # (iii) the independent summariser agrees with the executor
    summary = summarize_epoch(0, blocks, initial, pool.balance0, pool.balance1)
    payouts = {user: (b0, b1) for user, b0, b1 in summary.payouts}
    for user, balance in executor.deposits.items():
        assert payouts[user] == (balance[0], balance[1])
    live_positions = {
        position_id: after
        for position_id, _, _, _, _, after, _, _, deleted in summary.positions
        if not deleted
    }
    assert live_positions == {
        pid: record.liquidity for pid, record in executor.positions.items()
    }


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**4))
def test_full_system_invariants_under_random_seeds(seed):
    """The complete deployment conserves tokens for any seed."""
    system = small_system(seed=seed, daily_volume=150_000)
    system.run(num_epochs=2)
    held0 = system.token0.balance_of("tokenbank")
    held1 = system.token1.balance_of("tokenbank")
    deposits0 = sum(b[0] for b in system.token_bank.deposits.values())
    deposits1 = sum(b[1] for b in system.token_bank.deposits.values())
    assert held0 == deposits0 + system.token_bank.pool_balance0
    assert held1 == deposits1 + system.token_bank.pool_balance1
    for user, balance in system.executor.deposits.items():
        assert system.token_bank.deposit_of(user) == (balance[0], balance[1])
