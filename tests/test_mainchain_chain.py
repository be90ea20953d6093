"""Tests for the mainchain simulator."""

import pytest

from repro.errors import RevertError, RollbackError, UnknownContractError
from repro.mainchain.chain import Mainchain, MainchainConfig
from repro.mainchain.contracts.base import CallContext, Contract
from repro.mainchain.transactions import TxStatus


class Counter(Contract):
    """A tiny contract for runtime tests."""

    def __init__(self, address="counter"):
        super().__init__(address)
        self.value = 0

    def increment(self, ctx: CallContext, by: int = 1):
        if by <= 0:
            raise RevertError("by must be positive")
        ctx.gas.charge(5_000, "inc")
        self.value += by
        return self.value

    def boom(self, ctx: CallContext):
        raise RevertError("always fails")


@pytest.fixture
def chain():
    c = Mainchain()
    c.deploy(Counter())
    return c


def test_blocks_produced_on_interval(chain):
    chain.produce_blocks_until(36.0)
    assert chain.height == 3
    assert [b.timestamp for b in chain.blocks] == [12.0, 24.0, 36.0]


def test_transaction_execution_and_result(chain):
    tx = chain.submit_call("alice", "counter", "increment", 5)
    chain.produce_blocks_until(12.0)
    assert tx.status is TxStatus.CONFIRMED
    assert tx.result == 5
    assert chain.contract_at("counter").value == 5


def test_reverted_transaction_recorded(chain):
    tx = chain.submit_call("alice", "counter", "boom")
    chain.produce_blocks_until(12.0)
    assert tx.status is TxStatus.REVERTED
    assert "always fails" in tx.revert_reason


def test_revert_does_not_stop_other_txs(chain):
    chain.submit_call("alice", "counter", "boom")
    good = chain.submit_call("alice", "counter", "increment", 1)
    chain.produce_blocks_until(12.0)
    assert good.status is TxStatus.CONFIRMED


def test_unknown_contract_reverts(chain):
    tx = chain.submit_call("alice", "nowhere", "f")
    chain.produce_blocks_until(12.0)
    assert tx.status is TxStatus.REVERTED


def test_unknown_function_reverts(chain):
    tx = chain.submit_call("alice", "counter", "missing")
    chain.produce_blocks_until(12.0)
    assert tx.status is TxStatus.REVERTED


def test_gas_accounting(chain):
    tx = chain.submit_call("alice", "counter", "increment", 1)
    chain.produce_blocks_until(12.0)
    assert tx.gas_used == 5_000
    assert tx.gas_breakdown == {"inc": 5_000}
    assert chain.total_gas_used == 5_000


def test_latency_is_submission_to_inclusion(chain):
    chain.produce_blocks_until(5.0)  # now = 5, next block at 12
    tx = chain.submit_call("alice", "counter", "increment", 1)
    chain.produce_blocks_until(24.0)
    assert tx.latency == 7.0


def test_tx_submitted_at_block_time_waits_for_next_block(chain):
    chain.produce_blocks_until(12.0)
    tx = chain.submit_call("alice", "counter", "increment", 1)  # at t=12
    chain.produce_blocks_until(24.0)
    assert tx.included_at == 24.0


def test_dependent_tx_waits_for_earlier_block(chain):
    dep = chain.submit_call("alice", "counter", "increment", 1)
    tx = chain.submit_call("alice", "counter", "increment", 1, depends_on=[dep])
    chain.produce_blocks_until(24.0)
    assert dep.block_number == 0
    assert tx.block_number == 1


def test_dependency_chain_spreads_over_blocks(chain):
    a = chain.submit_call("alice", "counter", "increment", 1)
    b = chain.submit_call("alice", "counter", "increment", 1, depends_on=[a])
    c = chain.submit_call("alice", "counter", "increment", 1, depends_on=[b])
    chain.produce_blocks_until(48.0)
    assert (a.block_number, b.block_number, c.block_number) == (0, 1, 2)


def test_block_gas_limit_defers_txs():
    chain = Mainchain(config=MainchainConfig(block_gas_limit=10_000))
    chain.deploy(Counter())
    first = chain.submit_call("a", "counter", "increment", 1, gas_limit=6_000)
    second = chain.submit_call("a", "counter", "increment", 1, gas_limit=6_000)
    chain.produce_blocks_until(12.0)
    assert first.status is TxStatus.CONFIRMED
    assert second.status is TxStatus.PENDING
    chain.produce_blocks_until(24.0)
    assert second.status is TxStatus.CONFIRMED


def test_jumbo_tx_gets_dedicated_block():
    chain = Mainchain(config=MainchainConfig(block_gas_limit=10_000))
    chain.deploy(Counter())
    jumbo = chain.submit_call("a", "counter", "increment", 1, gas_limit=50_000)
    small = chain.submit_call("a", "counter", "increment", 1, gas_limit=6_000)
    chain.produce_blocks_until(24.0)
    assert jumbo.status is TxStatus.CONFIRMED
    assert small.status is TxStatus.CONFIRMED
    assert jumbo.block_number != small.block_number


def test_chain_growth_accounting(chain):
    chain.submit_call("a", "counter", "increment", 1, size_bytes=100)
    chain.submit_call("a", "counter", "increment", 1, size_bytes=150)
    chain.produce_blocks_until(12.0)
    assert chain.growth.tx_bytes == 250
    assert chain.growth.num_txs == 2
    assert chain.growth.total_bytes > 250  # header overhead included


def test_rollback_evicts_transactions(chain):
    tx = chain.submit_call("a", "counter", "increment", 1)
    chain.produce_blocks_until(24.0)
    evicted = chain.rollback(2)
    assert tx in evicted
    assert tx.status is TxStatus.DROPPED
    assert chain.height == 0


def test_rollback_updates_growth(chain):
    chain.submit_call("a", "counter", "increment", 1, size_bytes=100)
    chain.produce_blocks_until(12.0)
    before = chain.growth.total_bytes
    chain.rollback(1)
    assert chain.growth.total_bytes < before
    assert chain.growth.num_blocks == 0


def test_rollback_depth_validation(chain):
    chain.produce_blocks_until(12.0)
    with pytest.raises(RollbackError):
        chain.rollback(0)
    with pytest.raises(RollbackError):
        chain.rollback(5)


def test_forks_in_a_row_cannot_reach_below_the_final_height():
    chain = Mainchain(config=MainchainConfig(max_rollback_depth=3))
    chain.produce_blocks_until(12.0 * 5)
    assert (chain.height, chain.final_height) == (5, 2)
    chain.rollback(2)
    # The peak, not the current height, sets the floor.
    assert (chain.height, chain.final_height) == (3, 2)
    with pytest.raises(RollbackError):
        chain.rollback(2)
    chain.rollback(1)
    assert chain.height == chain.final_height == 2
    chain.produce_blocks_until(12.0 * 6)
    assert (chain.height, chain.final_height) == (6, 3)
    chain.rollback(3)
    assert chain.height == 3

def test_chain_continues_after_rollback(chain):
    chain.produce_blocks_until(24.0)
    chain.rollback(1)
    chain.produce_blocks_until(36.0)
    assert chain.height == 3


def test_duplicate_deployment_rejected(chain):
    with pytest.raises(ValueError):
        chain.deploy(Counter())


def test_contract_at_unknown_address(chain):
    with pytest.raises(UnknownContractError):
        chain.contract_at("missing")


def test_is_confirmed(chain):
    tx = chain.submit_call("a", "counter", "increment", 1)
    assert not chain.is_confirmed(tx)
    chain.produce_blocks_until(12.0)
    assert chain.is_confirmed(tx)


def test_internal_contract_calls():
    class Outer(Contract):
        def call_counter(self, ctx):
            return ctx.call_contract("counter", "increment", 3)

    chain = Mainchain()
    chain.deploy(Counter())
    chain.deploy(Outer("outer"))
    tx = chain.submit_call("alice", "outer", "call_counter")
    chain.produce_blocks_until(12.0)
    assert tx.result == 3
    assert tx.gas_used == 5_000  # inner call charged the same meter
