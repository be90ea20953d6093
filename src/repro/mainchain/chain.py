"""The mainchain simulator.

Models a Sepolia-like chain: blocks at a fixed interval, a FIFO mempool
bounded by the block gas limit, byte-accurate growth accounting, and
rollbacks (for the mass-sync recovery experiments).  Dependent
transactions (a deposit behind its ERC20 approvals) wait until their
prerequisites confirm, reproducing the multi-block deposit latency of
Table II.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro import constants
from repro.errors import (
    OutOfGasError,
    RevertError,
    RollbackError,
    UnknownContractError,
)
from repro.mainchain.blocks import MainchainBlock
from repro.mainchain.contracts.base import CallContext, Contract
from repro.mainchain.gas import GasMeter
from repro.mainchain.transactions import MainchainTransaction, TxStatus
from repro.simulation.clock import SimClock


@dataclass
class MainchainConfig:
    """Tunable parameters of the simulated mainchain."""

    block_interval: float = constants.MAINCHAIN_BLOCK_INTERVAL_S
    block_gas_limit: int = constants.MAINCHAIN_BLOCK_GAS_LIMIT
    #: Blocks kept reorg-safe; rollbacks reaching more than this below
    #: the chain's peak raise (see :attr:`Mainchain.final_height`).
    max_rollback_depth: int = 64


@dataclass
class ChainGrowth:
    """Cumulative size accounting for the chain."""

    total_bytes: int = 0
    tx_bytes: int = 0
    num_blocks: int = 0
    num_txs: int = 0

    def record_block(self, block: MainchainBlock) -> None:
        self.total_bytes += block.size_bytes
        self.tx_bytes += sum(tx.size_bytes for tx in block.transactions)
        self.num_blocks += 1
        self.num_txs += len(block.transactions)

    def unrecord_block(self, block: MainchainBlock) -> None:
        self.total_bytes -= block.size_bytes
        self.tx_bytes -= sum(tx.size_bytes for tx in block.transactions)
        self.num_blocks -= 1
        self.num_txs -= len(block.transactions)


class Mainchain:
    """An account-model, smart-contract-enabled chain simulator."""

    def __init__(
        self,
        clock: SimClock | None = None,
        config: MainchainConfig | None = None,
    ) -> None:
        self.clock = clock if clock is not None else SimClock()
        self.config = config if config is not None else MainchainConfig()
        self.blocks: list[MainchainBlock] = []
        self.mempool: list[MainchainTransaction] = []
        self.contracts: dict[str, Contract] = {}
        self.growth = ChainGrowth()
        self._last_block_time = self.clock.now
        #: The highest the chain has ever been (see :attr:`final_height`).
        self._peak_height = 0
        self.total_gas_used = 0
        self._tx_ids = itertools.count(1)

    # -- deployment ------------------------------------------------------------

    def deploy(self, contract: Contract) -> Contract:
        """Deploy ``contract`` at its address (immediately, free of charge).

        Deployment cost is outside the paper's evaluation scope; only the
        per-operation traffic is metered.
        """
        if contract.address in self.contracts:
            raise ValueError(f"address already in use: {contract.address}")
        self.contracts[contract.address] = contract
        return contract

    def contract_at(self, address: str) -> Contract:
        contract = self.contracts.get(address)
        if contract is None:
            raise UnknownContractError(f"no contract at {address}")
        return contract

    # -- transaction flow --------------------------------------------------------

    def submit(self, tx: MainchainTransaction) -> MainchainTransaction:
        """Add a transaction to the mempool at the current time."""
        tx.submitted_at = self.clock.now
        tx.status = TxStatus.PENDING
        self.mempool.append(tx)
        return tx

    def submit_call(
        self,
        sender: str,
        contract: str,
        function: str,
        *args,
        size_bytes: int = 200,
        gas_limit: int = 10_000_000,
        depends_on: list[MainchainTransaction] | None = None,
        label: str = "",
        **kwargs,
    ) -> MainchainTransaction:
        """Build, number and submit a call transaction."""
        tx = MainchainTransaction(
            tx_id=next(self._tx_ids),
            sender=sender,
            contract=contract,
            function=function,
            args=args,
            kwargs=kwargs,
            size_bytes=size_bytes,
            gas_limit=gas_limit,
            depends_on=depends_on or [],
            label=label or function,
        )
        return self.submit(tx)

    # -- block production ----------------------------------------------------------

    @property
    def height(self) -> int:
        return len(self.blocks)

    @property
    def final_height(self) -> int:
        """Blocks numbered below this are final: no rollback reaches them.

        Counted from the highest the chain has ever been, so forks in a
        row cannot together reach deeper than one fork of
        ``max_rollback_depth``.
        """
        return max(0, self._peak_height - self.config.max_rollback_depth)

    @property
    def next_block_time(self) -> float:
        return self._last_block_time + self.config.block_interval

    def produce_blocks_until(self, t: float) -> list[MainchainBlock]:
        """Mine every block due up to time ``t`` (inclusive)."""
        mined = []
        while self.next_block_time <= t:
            block_time = self.next_block_time
            if self.clock.now < block_time:
                self.clock.advance_to(block_time)
            mined.append(self._mine_block(block_time))
        if self.clock.now < t:
            self.clock.advance_to(t)
        return mined

    def _mine_block(self, block_time: float) -> MainchainBlock:
        block = MainchainBlock(number=self.height, timestamp=block_time)
        gas_left = self.config.block_gas_limit
        remaining: list[MainchainTransaction] = []
        for tx in self.mempool:
            if not self._includable(tx, block):
                remaining.append(tx)
                continue
            if tx.gas_limit > gas_left:
                # A "jumbo" transaction larger than a whole block gets a
                # dedicated block (a deployment would split it into chunks;
                # the gas and byte totals are identical either way).
                if tx.gas_limit > self.config.block_gas_limit and not block.transactions:
                    self._execute(tx, block)
                    gas_left = 0
                    block.transactions.append(tx)
                else:
                    remaining.append(tx)
                continue
            self._execute(tx, block)
            gas_left -= tx.gas_used
            block.transactions.append(tx)
        self.mempool = remaining
        self.blocks.append(block)
        self._peak_height = max(self._peak_height, self.height)
        self.growth.record_block(block)
        self._last_block_time = block_time
        return block

    @staticmethod
    def _includable(tx: MainchainTransaction, block: MainchainBlock) -> bool:
        """Inclusion rules reproducing the paper's multi-block pipelines.

        A transaction submitted at exactly the block's timestamp waits for
        the next block (propagation), and a dependent transaction is only
        included once its prerequisites confirmed in an *earlier* block —
        users wait for a confirmation before submitting the next step,
        which is why a two-approval deposit takes ~4 blocks (Table II).
        """
        if tx.submitted_at >= block.timestamp:
            return False
        for dep in tx.depends_on:
            if dep.status is not TxStatus.CONFIRMED:
                return False
            if dep.block_number is None or dep.block_number >= block.number:
                return False
        return True

    def _execute(self, tx: MainchainTransaction, block: MainchainBlock) -> None:
        meter = GasMeter(limit=tx.gas_limit)
        ctx = CallContext(
            sender=tx.sender,
            gas=meter,
            block_number=block.number,
            timestamp=block.timestamp,
            chain=self,
        )
        try:
            contract = self.contract_at(tx.contract)
            tx.result = contract.execute(tx.function, ctx, *tx.args, **tx.kwargs)
            tx.status = TxStatus.CONFIRMED
        except (RevertError, OutOfGasError, UnknownContractError) as exc:
            tx.status = TxStatus.REVERTED
            tx.revert_reason = str(exc)
        tx.gas_used = meter.used
        tx.gas_breakdown = dict(meter.by_label)
        tx.included_at = block.timestamp
        tx.block_number = block.number
        self.total_gas_used += meter.used

    # -- rollbacks -------------------------------------------------------------------

    def rollback(self, depth: int) -> list[MainchainTransaction]:
        """Abandon the most recent ``depth`` blocks (fork switch).

        Their transactions are marked DROPPED, lose their block number
        and inclusion time, and are returned to the caller; nothing puts
        them back in the mempool, so none is mined again.  Contract state
        is *not* rewound — the affected ammBoost syncs are recovered by
        mass-syncing, which is idempotent by design, and the recovery
        tests exercise exactly that path.  A deposit in an abandoned
        block thus stays debited from its ERC20 and is never credited
        again (ROADMAP, "A fork rewinds the chain, not a snapshot of one
        contract", journals contract writes and resubmits the evicted
        transactions).  No fork reaches below :attr:`final_height`.
        """
        if depth <= 0:
            raise RollbackError(f"rollback depth must be positive, got {depth}")
        if depth > self.height - self.final_height:
            raise RollbackError(
                f"cannot roll back {depth} of {len(self.blocks)} blocks"
            )
        evicted: list[MainchainTransaction] = []
        for _ in range(depth):
            block = self.blocks.pop()
            self.growth.unrecord_block(block)
            for tx in reversed(block.transactions):
                tx.status = TxStatus.DROPPED
                tx.included_at = None
                tx.block_number = None
                evicted.append(tx)
        self._last_block_time -= depth * self.config.block_interval
        return evicted

    def is_confirmed(self, tx: MainchainTransaction) -> bool:
        """A transaction counts as confirmed once its block is on-chain."""
        return (
            tx.status is TxStatus.CONFIRMED
            and tx.block_number is not None
            and tx.block_number < self.height
        )
