"""The sidechain AMM executor (Section IV-B, transaction processing).

Processes swaps, mints, burns and collects against the pool state, using
the original AMM engine (:mod:`repro.amm`) — "ammBoost does not change the
logic based on which an AMM operates, it just migrates that to the
sidechain".  Deposit coverage is enforced before execution (the sidechain
holds no tokens, so it must only accept transactions backed by mainchain
deposits), and every accepted transaction's effects are recorded for the
epoch summariser.  :meth:`SidechainExecutor.fill_block` is the one block
builder: a round's meta-block, a list of transactions and a single
transaction all execute through it.

Positions are keyed by an executor-generated identifier ("the hash of the
mint transaction and the LP's public key"); ownership is the issuer's
public key, verified on burns and collects.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from typing import Any

from repro.amm import backend, liquidity_math
from repro.amm.pool import Pool, SwapBatch
from repro.core.transactions import (
    BurnTx,
    CollectTx,
    MintTx,
    SidechainTx,
    SwapTx,
)
from repro.crypto.hashing import keccak256
from repro.errors import AMMError, DepositError, PositionError


@dataclass
class PositionRecord:
    """Executor-side view of a liquidity position."""

    position_id: str
    owner: str
    tick_lower: int
    tick_upper: int
    liquidity: int


class SidechainExecutor:
    """Epoch-scoped AMM execution off the mainchain snapshot."""

    #: What a handler raises to reject its transaction.
    REJECTS: tuple[type[Exception], ...] = (AMMError, DepositError, PositionError)

    def __init__(self, pool: Pool) -> None:
        self.pool = pool
        #: Working deposit balances, refreshed from TokenBank each epoch.
        self.deposits: dict[str, list[int]] = {}
        #: position_id -> record; persists across epochs on the sidechain.
        self.positions: dict[str, PositionRecord] = {}
        self.processed_count = 0
        self.rejected_count = 0
        #: Exact transaction type -> handler, for everything but swaps.  A
        #: handler executes its transaction or raises one of ``REJECTS``.
        self._handlers: dict[type, Callable[[Any], None]] = {
            MintTx: self._process_mint,
            BurnTx: self._process_burn,
            CollectTx: self._process_collect,
        }
        #: Exact type of every transaction executed as a swap -> what to
        #: run on it once accepted (None: nothing).
        self._swap_hooks: dict[type, Callable[[Any], None] | None] = {SwapTx: None}

    # -- epoch lifecycle -----------------------------------------------------------

    def begin_epoch(self, deposits_snapshot: dict[str, list[int]]) -> None:
        """Load the epoch-start deposit snapshot (SnapshotBank output)."""
        self.deposits = {user: list(bal) for user, bal in deposits_snapshot.items()}

    def deposit_of(self, user: str) -> list[int]:
        return self.deposits.setdefault(user, [0, 0])

    # -- transaction processing -------------------------------------------------------

    def process(self, tx: SidechainTx, current_round: int = 0) -> bool:
        """Validate and execute one transaction: a block of one.

        Returns True on acceptance; on rejection sets ``tx.reject_reason``
        and leaves all state untouched.
        """
        return bool(self.fill_block((tx,), None, current_round)[0])

    def process_round(
        self, txs: list[SidechainTx], current_round: int = 0
    ) -> list[SidechainTx]:
        """Execute a list of transactions in order; returns those accepted."""
        return self.fill_block(txs, None, current_round)[0]

    def fill_block(
        self,
        queue: Iterable[SidechainTx] | deque[SidechainTx],
        capacity: int | None,
        current_round: int,
    ) -> tuple[list[SidechainTx], int]:
        """Execute ``queue`` in order until ``capacity`` bytes are accepted.

        The one block builder: returns the accepted transactions (the
        block's contents, in order) and how many were rejected.  With a
        ``capacity`` the queue is the deployment's deque and every
        transaction decided — accepted or rejected — is popped off its
        front; the walk stops at the first one that no longer fits, except
        that a transaction larger than the whole block is rejected rather
        than left to stall the queue.  ``capacity=None`` means a list, not
        a block: everything is executed and nothing is consumed.

        Only accepted transactions use bytes, so a rejected one frees its
        space for whatever follows.  Rejected transactions carry
        ``reject_reason`` and leave all state untouched (every check runs
        before any mutation; swaps are checked against a quote).

        Consecutive swaps share one :class:`SwapBatch` — one amortized
        tick walk — opened at the first swap that reaches the walk (so an
        uninitialized pool rejects each such swap with the pool's error)
        and committed when a non-swap arrives or the block ends, with
        decisions, reject reasons and effects identical to a batch per
        swap.  Swap checks run in the order deadline, amount, quote,
        slippage, deposit coverage.
        """
        accepted: list[SidechainTx] = []
        rejected = oversize = used = 0
        batch: SwapBatch | None = None
        handlers = self._handlers
        swap_hooks = self._swap_hooks
        accept_swap = self._accept_swap
        for tx in queue:
            if capacity is not None and used + tx.size_bytes > capacity:
                if used:
                    break
                tx.reject_reason = "transaction exceeds meta-block size"
                oversize += 1
                continue
            kind = type(tx)
            is_swap = kind in swap_hooks
            if not is_swap and kind not in handlers:
                is_swap = self._register_subclass(kind)
            reason: str | None = None
            if not is_swap:
                if batch is not None:
                    batch.commit()
                    batch = None
                try:
                    handlers[kind](tx)
                except self.REJECTS as exc:
                    reason = str(exc)
            elif tx.deadline is not None and current_round > tx.deadline:
                reason = f"deadline round {tx.deadline} passed"
            elif tx.amount <= 0:
                reason = "swap amount must be positive"
            else:
                try:
                    if batch is None:
                        batch = self.pool.begin_swap_batch()
                    batch.quote(
                        tx.zero_for_one,
                        tx.amount if tx.exact_input else -tx.amount,
                        tx.sqrt_price_limit_x96,
                    )
                except AMMError as exc:
                    reason = str(exc)
                else:
                    reason = accept_swap(tx, batch, swap_hooks[kind])
            if reason is None:
                used += tx.size_bytes
                accepted.append(tx)
            else:
                tx.reject_reason = reason
                rejected += 1
        if batch is not None:
            batch.commit()
        self.processed_count += len(accepted)
        self.rejected_count += rejected
        if capacity is not None:
            for _ in range(len(accepted) + rejected + oversize):
                queue.popleft()
        return accepted, rejected + oversize

    def _accept_swap(
        self,
        tx: SwapTx,
        batch: SwapBatch,
        hook: Callable[[Any], None] | None,
    ) -> str | None:
        """Check the batch's outstanding quote for ``tx`` against its
        slippage limit and deposit; accept it, or return the reject reason."""
        amount_in, amount_out = batch.trader_amounts()
        limit = tx.amount_limit
        if limit is not None:
            if tx.exact_input:
                if amount_out < limit:
                    return f"slippage: output {amount_out} < minimum {limit}"
            elif amount_in > limit:
                return f"slippage: input {amount_in} > maximum {limit}"
        balance = self.deposit_of(tx.user)
        in_index = 0 if tx.zero_for_one else 1
        if balance[in_index] < amount_in:
            return (
                f"deposit {balance[in_index]} cannot cover swap input "
                f"{amount_in}"
            )
        batch.accept()
        delta0, delta1 = -batch.amount0, -batch.amount1
        balance[0] += delta0
        balance[1] += delta1
        tx.effects = {"delta0": delta0, "delta1": delta1, "fee": batch.fee_paid}
        if hook is not None:
            hook(tx)
        return None

    def _register_subclass(self, kind: type) -> bool:
        """File an unseen transaction class under its nearest known base.

        Returns whether it executes as a swap: a ``SwapTx`` subclass nobody
        registered still does; a class with no known base is filed under
        the handler that rejects it as an unknown type.
        """
        for base in kind.__mro__[1:]:
            if base in self._swap_hooks:
                self._swap_hooks[kind] = self._swap_hooks[base]
                return True
            if base in self._handlers:
                self._handlers[kind] = self._handlers[base]
                return False
        self._handlers[kind] = self._reject_unknown
        return False

    @staticmethod
    def _reject_unknown(tx: SidechainTx) -> None:
        raise AMMError(f"unknown transaction type {type(tx).__name__}")

    # -- mints ------------------------------------------------------------------------

    def _process_mint(self, tx: MintTx) -> None:
        if tx.amount0_desired < 0 or tx.amount1_desired < 0:
            raise AMMError("mint amounts must be non-negative")
        if tx.position_id is not None:
            # Adding to an existing position: its stored range applies and
            # the transaction's tick fields are ignored.
            record = self._owned_position(tx.position_id, tx.user)
            tick_lower, tick_upper = record.tick_lower, record.tick_upper
        else:
            record = None
            backend.check_tick_range(tx.tick_lower, tx.tick_upper)
            tick_lower, tick_upper = tx.tick_lower, tx.tick_upper

        sqrt_lower = backend.get_sqrt_ratio_at_tick(tick_lower)
        sqrt_upper = backend.get_sqrt_ratio_at_tick(tick_upper)
        liquidity = liquidity_math.get_liquidity_for_amounts(
            self.pool.sqrt_price_x96,
            sqrt_lower,
            sqrt_upper,
            tx.amount0_desired,
            tx.amount1_desired,
        )
        if liquidity <= 0:
            raise AMMError("mint amounts too small for any liquidity")
        amount0, amount1 = self._amounts_for_liquidity(
            sqrt_lower, sqrt_upper, liquidity
        )
        balance = self.deposit_of(tx.user)
        if balance[0] < amount0 or balance[1] < amount1:
            raise DepositError(
                f"deposit ({balance[0]}, {balance[1]}) cannot cover mint "
                f"({amount0}, {amount1})"
            )
        if record is None:
            position_id = self._new_position_id(tx)
            record = PositionRecord(
                position_id=position_id,
                owner=tx.user,
                tick_lower=tick_lower,
                tick_upper=tick_upper,
                liquidity=0,
            )
            self.positions[position_id] = record
        liquidity_before = record.liquidity
        actual0, actual1 = self.pool.mint(
            record.position_id, tick_lower, tick_upper, liquidity
        )
        balance[0] -= actual0
        balance[1] -= actual1
        record.liquidity += liquidity
        tx.effects = {
            "position_id": record.position_id,
            "owner": record.owner,
            "tick_lower": tick_lower,
            "tick_upper": tick_upper,
            "liquidity_delta": liquidity,
            "liquidity_before": liquidity_before,
            "amount0": actual0,
            "amount1": actual1,
        }

    # -- burns ------------------------------------------------------------------------

    def _process_burn(self, tx: BurnTx) -> None:
        record = self._owned_position(tx.position_id, tx.user)
        liquidity = record.liquidity if tx.liquidity is None else tx.liquidity
        if liquidity <= 0 or liquidity > record.liquidity:
            raise AMMError(
                f"burn liquidity {liquidity} invalid for position holding "
                f"{record.liquidity}"
            )
        liquidity_before = record.liquidity
        principal0, principal1 = self.pool.burn(
            record.position_id, record.tick_lower, record.tick_upper, liquidity
        )
        # Move the principal out immediately; fees stay owed until a
        # collect (or the final payout of a fully withdrawn position).
        self.pool.collect(
            record.position_id,
            record.tick_lower,
            record.tick_upper,
            principal0,
            principal1,
        )
        record.liquidity -= liquidity
        amount0, amount1 = principal0, principal1
        deleted = record.liquidity == 0
        fees0 = fees1 = 0
        if deleted:
            # "If a deleted position has fees owed to it, the owner LP will
            # receive these fees as part of her total payout."
            fees0, fees1 = self._owed_fees(record)
            if fees0 or fees1:
                self.pool.collect(
                    record.position_id,
                    record.tick_lower,
                    record.tick_upper,
                    fees0,
                    fees1,
                )
            amount0 += fees0
            amount1 += fees1
            del self.positions[record.position_id]
        balance = self.deposit_of(tx.user)
        balance[0] += amount0
        balance[1] += amount1
        remaining0, remaining1 = (0, 0) if deleted else self._owed_fees(record)
        tx.effects = {
            "position_id": record.position_id,
            "owner": record.owner,
            "tick_lower": record.tick_lower,
            "tick_upper": record.tick_upper,
            "liquidity_delta": liquidity,
            "liquidity_before": liquidity_before,
            "amount0": amount0,
            "amount1": amount1,
            "deleted": deleted,
            "fees_owed0": remaining0,
            "fees_owed1": remaining1,
        }

    # -- collects ----------------------------------------------------------------------

    def _process_collect(self, tx: CollectTx) -> None:
        record = self._owned_position(tx.position_id, tx.user)
        # Checked before the poke: crystallising fees is a pool mutation.
        if any(a is not None and a < 0 for a in (tx.amount0, tx.amount1)):
            raise AMMError("collect amounts must be non-negative")
        if record.liquidity > 0:
            self.pool.poke(record.position_id, record.tick_lower, record.tick_upper)
        owed0, owed1 = self._owed_fees(record)
        want0 = owed0 if tx.amount0 is None else min(tx.amount0, owed0)
        want1 = owed1 if tx.amount1 is None else min(tx.amount1, owed1)
        got0, got1 = self.pool.collect(
            record.position_id, record.tick_lower, record.tick_upper, want0, want1
        )
        balance = self.deposit_of(tx.user)
        balance[0] += got0
        balance[1] += got1
        remaining0, remaining1 = self._owed_fees(record)
        tx.effects = {
            "position_id": record.position_id,
            "owner": record.owner,
            "tick_lower": record.tick_lower,
            "tick_upper": record.tick_upper,
            "liquidity_delta": 0,
            "liquidity_before": record.liquidity,
            "amount0": got0,
            "amount1": got1,
            "fees_owed0": remaining0,
            "fees_owed1": remaining1,
        }

    # -- helpers ----------------------------------------------------------------------

    def _owned_position(self, position_id: str, user: str) -> PositionRecord:
        record = self.positions.get(position_id)
        if record is None:
            raise PositionError(f"no position {position_id}")
        if record.owner != user:
            raise PositionError(
                f"{user} does not own position {position_id} (owner {record.owner})"
            )
        return record

    def _owed_fees(self, record: PositionRecord) -> tuple[int, int]:
        info = self.pool.position(
            record.position_id, record.tick_lower, record.tick_upper
        )
        if info is None:
            return 0, 0
        return info.tokens_owed0, info.tokens_owed1

    def _amounts_for_liquidity(
        self, sqrt_lower: int, sqrt_upper: int, liquidity: int
    ) -> tuple[int, int]:
        """Token amounts the pool will charge for minting ``liquidity``."""
        price = self.pool.sqrt_price_x96
        if price < sqrt_lower:
            amount0 = backend.get_amount0_delta_signed(
                sqrt_lower, sqrt_upper, liquidity
            )
            amount1 = 0
        elif price < sqrt_upper:
            amount0 = backend.get_amount0_delta_signed(
                price, sqrt_upper, liquidity
            )
            amount1 = backend.get_amount1_delta_signed(
                sqrt_lower, price, liquidity
            )
        else:
            amount0 = 0
            amount1 = backend.get_amount1_delta_signed(
                sqrt_lower, sqrt_upper, liquidity
            )
        return amount0, amount1

    @staticmethod
    def _new_position_id(tx: MintTx) -> str:
        """Position id = hash of the mint transaction and the LP's key."""
        return keccak256(b"position", tx.tx_id, tx.user).hex()[:32]
