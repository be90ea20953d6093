"""Slow reference for block packing: the two-loop code ``fill_block`` replaced.

Until PR 24 a meta-block was packed by two cooperating loops:
``RoundExecutionPhase.mine_meta_block`` pre-selected the longest run of
plain swaps that would fit the block *if every one were accepted*, handed
it to ``SidechainExecutor.process_round`` (which found the same run again
and executed it on one ``SwapBatch``), and re-matched the accepted list
back by object identity; every other transaction went through
``process``, an ``isinstance`` ladder that ``ShardExecutor`` overrode.
This module keeps that code — bodies verbatim, minus the writes to the
never-read ``executor.current_round`` — as the reference
``tests/test_block_builder_properties.py`` packs against.

The reference executors subclass the live ones only for what the packing
does not decide: the mint / burn / collect / transfer handlers, the
return-leg escrow and the bookkeeping attributes.  ``fill_block`` is
never reached from here.
"""

from __future__ import annotations

from repro.amm.pool import SwapBatch
from repro.core.executor import SidechainExecutor
from repro.core.phases import RoundExecutionPhase
from repro.core.transactions import (
    BurnTx,
    CollectTx,
    MintTx,
    SidechainTx,
    SwapTx,
)
from repro.errors import AMMError, DepositError, EscrowError, PositionError
from repro.sharding.escrow import CrossShardSwapTx, CrossShardTransferTx
from repro.sharding.shard import ShardExecutor
from repro.sidechain.blocks import MetaBlock


class ReferenceExecutor(SidechainExecutor):
    """``SidechainExecutor`` with the pre-PR-24 dispatch and swap-run code."""

    def __init__(self, pool) -> None:
        super().__init__(pool)
        self._round_tx: list[SwapTx] = []
        self._round_delta0: list[int] = []
        self._round_delta1: list[int] = []
        self._round_fee: list[int] = []

    def process(self, tx: SidechainTx, current_round: int = 0) -> bool:
        if isinstance(tx, SwapTx):
            accepted: list[SidechainTx] = []
            self._process_swap_run([tx], accepted, current_round)
            return bool(accepted)
        try:
            if isinstance(tx, MintTx):
                self._process_mint(tx)
            elif isinstance(tx, BurnTx):
                self._process_burn(tx)
            elif isinstance(tx, CollectTx):
                self._process_collect(tx)
            else:
                raise AMMError(f"unknown transaction type {type(tx).__name__}")
        except (AMMError, DepositError, PositionError) as exc:
            tx.reject_reason = str(exc)
            self.rejected_count += 1
            return False
        self.processed_count += 1
        return True

    def process_round(
        self, txs: list[SidechainTx], current_round: int = 0
    ) -> list[SidechainTx]:
        accepted: list[SidechainTx] = []
        i, n = 0, len(txs)
        while i < n:
            tx = txs[i]
            # Exact-type check: SwapTx *subclasses* (cross-shard legs) carry
            # extra semantics in overridden ``process`` methods and must keep
            # the virtual per-tx dispatch.
            if type(tx) is SwapTx:
                j = i + 1
                while j < n and type(txs[j]) is SwapTx:
                    j += 1
                self._process_swap_run(txs[i:j], accepted, current_round)
                i = j
            else:
                if self.process(tx, current_round=current_round):
                    accepted.append(tx)
                i += 1
        return accepted

    def _process_swap_run(
        self,
        swaps: list[SwapTx],
        accepted: list[SidechainTx],
        current_round: int,
    ) -> None:
        # Opened at the first swap that reaches the walk, so an
        # uninitialized pool rejects each such swap with the pool's error.
        batch: SwapBatch | None = None
        rec_tx = self._round_tx
        rec_delta0 = self._round_delta0
        rec_delta1 = self._round_delta1
        rec_fee = self._round_fee
        rec_tx.clear()
        rec_delta0.clear()
        rec_delta1.clear()
        rec_fee.clear()
        deposit_of = self.deposit_of
        for tx in swaps:
            try:
                if tx.deadline is not None and current_round > tx.deadline:
                    raise AMMError(f"deadline round {tx.deadline} passed")
                if tx.amount <= 0:
                    raise AMMError("swap amount must be positive")
                amount_specified = tx.amount if tx.exact_input else -tx.amount
                if batch is None:
                    batch = self.pool.begin_swap_batch()
                batch.quote(
                    tx.zero_for_one, amount_specified, tx.sqrt_price_limit_x96
                )
                amount_in, amount_out = batch.trader_amounts()
                if tx.exact_input:
                    if tx.amount_limit is not None and amount_out < tx.amount_limit:
                        raise AMMError(
                            f"slippage: output {amount_out} < minimum "
                            f"{tx.amount_limit}"
                        )
                else:
                    if tx.amount_limit is not None and amount_in > tx.amount_limit:
                        raise AMMError(
                            f"slippage: input {amount_in} > maximum "
                            f"{tx.amount_limit}"
                        )
                balance = deposit_of(tx.user)
                in_index = 0 if tx.zero_for_one else 1
                if balance[in_index] < amount_in:
                    raise DepositError(
                        f"deposit {balance[in_index]} cannot cover swap input "
                        f"{amount_in}"
                    )
            except (AMMError, DepositError, PositionError) as exc:
                tx.reject_reason = str(exc)
                self.rejected_count += 1
                continue
            batch.accept()
            delta0, delta1 = -batch.amount0, -batch.amount1
            balance[0] += delta0
            balance[1] += delta1
            rec_tx.append(tx)
            rec_delta0.append(delta0)
            rec_delta1.append(delta1)
            rec_fee.append(batch.fee_paid)
            self.processed_count += 1
        if batch is not None:
            batch.commit()
        for idx, tx in enumerate(rec_tx):
            tx.effects = {
                "delta0": rec_delta0[idx],
                "delta1": rec_delta1[idx],
                "fee": rec_fee[idx],
            }
            accepted.append(tx)


class ReferenceShardExecutor(ReferenceExecutor):
    """``ShardExecutor`` with the pre-PR-24 ``process`` override."""

    _process_transfer = ShardExecutor._process_transfer
    _escrow_return_leg = ShardExecutor._escrow_return_leg

    def __init__(self, pool, shard) -> None:
        super().__init__(pool)
        self.shard = shard

    def process(self, tx, current_round: int = 0) -> bool:
        if isinstance(tx, CrossShardTransferTx):
            try:
                self._process_transfer(tx)
            except (DepositError, EscrowError) as exc:
                tx.reject_reason = str(exc)
                self.rejected_count += 1
                return False
            self.processed_count += 1
            return True
        accepted = super().process(tx, current_round=current_round)
        if (
            accepted
            and isinstance(tx, CrossShardSwapTx)
            and tx.return_output
        ):
            self._escrow_return_leg(tx)
        return accepted


def reference_mine_meta_block(
    system, epoch: int, round_index: int, round_end: float
) -> None:
    """The pre-PR-24 body of ``RoundExecutionPhase.mine_meta_block``."""
    block = MetaBlock(
        epoch=epoch,
        round_index=round_index,
        timestamp=round_end,
        proposer=system._committee.leader() if system._committee else "",
    )
    executor = system.executor
    queue = system.queue
    metrics = system.metrics
    capacity = system.config.meta_block_size
    current_round = system._global_round
    epoch_txs = system._epoch_txs.setdefault(epoch, [])
    record_latency = metrics.sidechain_latency.record
    block_txs = block.transactions
    used = 0
    while queue:
        tx = queue[0]
        if used + tx.size_bytes > capacity:
            if used == 0:
                # A single transaction larger than the whole block can
                # never be included; reject it instead of stalling.
                queue.popleft()
                tx.reject_reason = "transaction exceeds meta-block size"
                metrics.rejected_txs += 1
                continue
            break
        if type(tx) is SwapTx:
            # Pull the longest run of consecutive swaps that fits the
            # remaining capacity even if every one is accepted, and
            # execute it through the executor's batch walker.  The
            # conservative selection packs byte-for-byte like the
            # one-at-a-time loop: a rejected swap frees its bytes and
            # the outer loop re-enters to fill the freed space.  Exact
            # type only: SwapTx subclasses (cross-shard legs) need the
            # executor's virtual per-tx dispatch.
            run: list[SidechainTx] = [queue.popleft()]
            run_bytes = tx.size_bytes
            while queue:
                nxt = queue[0]
                if type(nxt) is not SwapTx:
                    break
                if used + run_bytes + nxt.size_bytes > capacity:
                    break
                run_bytes += nxt.size_bytes
                run.append(queue.popleft())
            run_accepted = executor.process_round(
                run, current_round=current_round
            )
            accept_index = 0
            for swap in run:
                if (
                    accept_index < len(run_accepted)
                    and run_accepted[accept_index] is swap
                ):
                    accept_index += 1
                    used += swap.size_bytes
                    swap.included_round = round_index
                    swap.included_epoch = epoch
                    swap.included_at = round_end
                    block_txs.append(swap)
                    epoch_txs.append(swap)
                    metrics.processed_txs += 1
                    record_latency(round_end - swap.submitted_at)
                else:
                    metrics.rejected_txs += 1
            continue
        queue.popleft()
        accepted = executor.process(tx, current_round=current_round)
        if not accepted:
            metrics.rejected_txs += 1
            continue
        used += tx.size_bytes
        tx.included_round = round_index
        tx.included_epoch = epoch
        tx.included_at = round_end
        block_txs.append(tx)
        epoch_txs.append(tx)
        metrics.processed_txs += 1
        record_latency(round_end - tx.submitted_at)
        RoundExecutionPhase.track_position_ownership(system, tx)
    block.seal()
    system.ledger.append_meta_block(block)
