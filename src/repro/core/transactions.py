"""ammBoost transaction types (Section III, ``CreateTx``).

Swaps, mints, burns and collects are sidechain transactions; deposits and
flashes stay on the mainchain.  Wire sizes default to the measured Uniswap
averages (Table VII) so byte-capacity effects match the paper's workload.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro import constants


class IdSpace:
    """A stream of transaction ids: calling it returns the next one.

    Transaction ids feed position-id hashes and meta-block leaves, so they
    belong to the deployment that mints them
    (:attr:`~repro.core.system.AmmBoostSystem.ids` starts at 1): a run's
    bytes then depend on its config alone, not on what else ran in the
    process.
    """

    __slots__ = ("_next", "_step")

    def __init__(self, start: int = 1, step: int = 1) -> None:
        self._next = start
        self._step = step

    def __call__(self) -> int:
        tx_id = self._next
        self._next = tx_id + self._step
        return tx_id

    def seek(self, start: int) -> None:
        """Make ``start`` the next id."""
        self._next = start


#: Ids of transactions built outside a deployment (tests, examples,
#: ``create_tx``).  They count down from -1, so a hand-built transaction
#: pushed into a live deployment never shares an id with one it minted.
_hand_built = IdSpace(-1, -1)


def reset_tx_counter() -> None:
    """Restart the hand-built id space at -1.

    No deployment's ids depend on it; kept only because the benchmark
    harness (``bench/workloads.py``) still calls it before every run.
    """
    _hand_built.seek(-1)


class TxType(enum.Enum):
    SWAP = "swap"
    MINT = "mint"
    BURN = "burn"
    COLLECT = "collect"
    DEPOSIT = "deposit"
    FLASH = "flash"


@dataclass
class SidechainTx:
    """Base class for transactions processed by the sidechain."""

    user: str
    size_bytes: int = 0
    submitted_at: float = 0.0
    #: Round whose meta-block included the transaction (set on processing).
    included_round: int | None = None
    included_epoch: int | None = None
    included_at: float | None = None
    #: Why the transaction was rejected, if it was.
    reject_reason: str = ""
    #: Execution effects recorded by the executor (token deltas per type),
    #: consumed by the independent summariser.
    effects: dict = field(default_factory=dict)
    tx_id: int = field(default_factory=_hand_built)

    @property
    def accepted(self) -> bool:
        return self.included_round is not None and not self.reject_reason

    @property
    def sidechain_latency(self) -> float | None:
        if self.included_at is None:
            return None
        return self.included_at - self.submitted_at


@dataclass
class SwapTx(SidechainTx):
    """An exact-input or exact-output trade (Section IV-B, swaps)."""

    txtype = TxType.SWAP
    zero_for_one: bool = True
    exact_input: bool = True
    #: Exact-input: input amount.  Exact-output: desired output amount.
    amount: int = 0
    #: Slippage protection: minimum output (exact-in) / maximum input
    #: (exact-out); None disables the check.
    amount_limit: int | None = None
    sqrt_price_limit_x96: int | None = None
    #: Round number after which the trade is invalid.
    deadline: int | None = None

    def __post_init__(self) -> None:
        if self.size_bytes == 0:
            self.size_bytes = round(constants.SIZE_UNISWAP_ETHEREUM["swap"])


@dataclass
class MintTx(SidechainTx):
    """Create a new position or add liquidity to an owned one."""

    txtype = TxType.MINT
    tick_lower: int = 0
    tick_upper: int = 0
    amount0_desired: int = 0
    amount1_desired: int = 0
    #: None creates a new position; otherwise adds to an existing one.
    position_id: str | None = None

    def __post_init__(self) -> None:
        if self.size_bytes == 0:
            self.size_bytes = round(constants.SIZE_UNISWAP_ETHEREUM["mint"])


@dataclass
class BurnTx(SidechainTx):
    """Withdraw some or all liquidity from a position."""

    txtype = TxType.BURN
    position_id: str = ""
    #: Liquidity units to burn; None burns the whole position.
    liquidity: int | None = None

    def __post_init__(self) -> None:
        if self.size_bytes == 0:
            self.size_bytes = round(constants.SIZE_UNISWAP_ETHEREUM["burn"])


@dataclass
class CollectTx(SidechainTx):
    """Collect accrued fees from a position."""

    txtype = TxType.COLLECT
    position_id: str = ""
    #: Fee amounts to collect; None collects everything owed.
    amount0: int | None = None
    amount1: int | None = None

    def __post_init__(self) -> None:
        if self.size_bytes == 0:
            self.size_bytes = round(constants.SIZE_UNISWAP_ETHEREUM["collect"])


@dataclass
class DepositRequest:
    """A mainchain deposit backing the user's next-epoch activity."""

    user: str
    amount0: int
    amount1: int
