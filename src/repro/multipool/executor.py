"""Sidechain execution across many pools with shared per-token deposits.

Deposits are tracked per *token symbol* (the paper's ``Deposits: a map of
users' public keys and the type/amount of tokens they deposited``), so a
user's balance in token B earned on pool (A, B) is immediately spendable
on pool (B, C) within the same epoch — the multi-pool generalisation of
the paper's "newly accrued tokens are usable immediately" property.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.amm.fixed_point import encode_price_sqrt
from repro.amm.pool import Pool, PoolConfig
from repro.core.executor import SidechainExecutor
from repro.core.summary import position_row
from repro.core.transactions import BurnTx, CollectTx, MintTx, SidechainTx, SwapTx
from repro.errors import AMMError, DepositError
from repro.multipool.summary import (
    MultiPoolEpochSummary,
    PoolStateEntry,
    TokenBalanceEntry,
)


@dataclass(frozen=True)
class PoolKey:
    """Identifies a pool by its (ordered) token pair and fee tier."""

    token0: str
    token1: str
    fee_pips: int = 3000

    @property
    def pool_id(self) -> str:
        return f"{self.token0}/{self.token1}/{self.fee_pips}"


class MultiPoolExecutor:
    """Routes sidechain transactions to per-pair pools.

    Internally each pool is handled by a single-pool
    :class:`~repro.core.executor.SidechainExecutor`; this class owns the
    shared per-token deposit map and keeps the per-pool executors' views
    in sync with it before/after every transaction.
    """

    def __init__(self) -> None:
        self.pools: dict[str, Pool] = {}
        self.executors: dict[str, SidechainExecutor] = {}
        self.keys: dict[str, PoolKey] = {}
        #: user -> token -> balance (the paper's Deposits map).
        self.deposits: dict[str, dict[str, int]] = {}
        #: position_id -> pool_id, for routing burns/collects.
        self.position_pool: dict[str, str] = {}

    # -- pool management -----------------------------------------------------------

    def create_pool(self, key: PoolKey, sqrt_price_x96: int | None = None) -> Pool:
        """``createPool(A, B)``: open a new token-pair pool."""
        if key.pool_id in self.pools:
            raise AMMError(f"pool {key.pool_id} exists")
        pool = Pool(
            PoolConfig(token0=key.token0, token1=key.token1, fee_pips=key.fee_pips)
        )
        pool.initialize(sqrt_price_x96 or encode_price_sqrt(1, 1))
        executor = SidechainExecutor(pool)
        executor.begin_epoch({})
        self.pools[key.pool_id] = pool
        self.executors[key.pool_id] = executor
        self.keys[key.pool_id] = key
        return pool

    # -- deposits ----------------------------------------------------------------------

    def credit_deposit(self, user: str, token: str, amount: int) -> None:
        """Merge a confirmed mainchain deposit into the working balances."""
        if amount < 0:
            raise DepositError("deposit amount must be non-negative")
        balances = self.deposits.setdefault(user, {})
        balances[token] = balances.get(token, 0) + amount

    def balance_of(self, user: str, token: str) -> int:
        return self.deposits.get(user, {}).get(token, 0)

    # -- processing ---------------------------------------------------------------------

    def process(self, pool_id: str, tx: SidechainTx, current_round: int = 0) -> bool:
        """Validate and execute ``tx`` against pool ``pool_id``."""
        executor = self.executors.get(pool_id)
        if executor is None:
            tx.reject_reason = f"no pool {pool_id}"
            return False
        if isinstance(tx, (BurnTx, CollectTx)):
            owning_pool = self.position_pool.get(tx.position_id)
            if owning_pool is not None and owning_pool != pool_id:
                tx.reject_reason = (
                    f"position {tx.position_id} belongs to pool {owning_pool}"
                )
                return False
        key = self.keys[pool_id]
        self._load_balances(executor, key, tx.user)
        accepted = executor.process(tx, current_round=current_round)
        if accepted:
            self._store_balances(executor, key, tx.user)
            if isinstance(tx, MintTx):
                self.position_pool[tx.effects["position_id"]] = pool_id
            elif isinstance(tx, BurnTx) and tx.effects.get("deleted"):
                self.position_pool.pop(tx.effects["position_id"], None)
        return accepted

    def _load_balances(self, executor: SidechainExecutor, key: PoolKey, user: str) -> None:
        balances = self.deposits.setdefault(user, {})
        executor.deposits[user] = [
            balances.get(key.token0, 0),
            balances.get(key.token1, 0),
        ]

    def _store_balances(self, executor: SidechainExecutor, key: PoolKey, user: str) -> None:
        pair = executor.deposits[user]
        balances = self.deposits.setdefault(user, {})
        balances[key.token0] = pair[0]
        balances[key.token1] = pair[1]

    # -- summaries -------------------------------------------------------------------------

    def summarize(self, epoch: int) -> MultiPoolEpochSummary:
        """Aggregate every pool's state into one sync summary."""
        payouts = [
            TokenBalanceEntry(user=user, token=token, balance=balance)
            for user, balances in sorted(self.deposits.items())
            for token, balance in sorted(balances.items())
        ]
        positions = []
        for pool_id in sorted(self.executors):
            for position_id, record in sorted(self.executors[pool_id].positions.items()):
                positions.append(
                    position_row(
                        position_id=position_id,
                        owner=record.owner,
                        tick_lower=record.tick_lower,
                        tick_upper=record.tick_upper,
                        liquidity_delta=0,
                        liquidity_after=record.liquidity,
                    )
                )
        pools = [
            PoolStateEntry(
                pool_id=pool_id,
                token0=self.keys[pool_id].token0,
                token1=self.keys[pool_id].token1,
                balance0=pool.balance0,
                balance1=pool.balance1,
                sqrt_price_x96=pool.sqrt_price_x96,
            )
            for pool_id, pool in sorted(self.pools.items())
        ]
        return MultiPoolEpochSummary(
            epoch=epoch, payouts=payouts, positions=positions, pools=pools
        )

    # -- invariants ------------------------------------------------------------------------

    def total_token_supply(self, token: str) -> int:
        """Deposits plus every pool's reserve of ``token`` (conservation)."""
        total = sum(b.get(token, 0) for b in self.deposits.values())
        for pool_id, pool in self.pools.items():
            key = self.keys[pool_id]
            if key.token0 == token:
                total += pool.balance0
            elif key.token1 == token:
                total += pool.balance1
        return total
