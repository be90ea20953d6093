"""Mainchain transactions."""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Any

#: Ids of transactions built outside :meth:`Mainchain.submit_call
#: <repro.mainchain.chain.Mainchain.submit_call>`, which numbers its own
#: from 1 per chain; these count down from -1 so the two never meet.
_hand_built = itertools.count(-1, -1)


def reset_tx_counter() -> None:
    """Restart the hand-built id count at -1; see
    :func:`repro.core.transactions.reset_tx_counter`."""
    global _hand_built
    _hand_built = itertools.count(-1, -1)


class TxStatus(enum.Enum):
    """Lifecycle of a mainchain transaction."""

    PENDING = "pending"
    CONFIRMED = "confirmed"
    REVERTED = "reverted"
    DROPPED = "dropped"  # evicted by a rollback and not yet re-included


@dataclass
class MainchainTransaction:
    """A call to a deployed contract, carried by the mainchain.

    ``size_bytes`` is what the transaction adds to the chain when included
    (calldata + envelope); ``gas_limit`` caps execution.  ``depends_on``
    enforces the sequential-prerequisite behaviour the paper observes (a
    deposit needs its two ERC20 approvals confirmed first, which is why
    deposits take ~4 blocks).
    """

    sender: str
    contract: str
    function: str
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)
    size_bytes: int = 0
    gas_limit: int = 10_000_000
    submitted_at: float = 0.0
    included_at: float | None = None
    block_number: int | None = None
    status: TxStatus = TxStatus.PENDING
    gas_used: int = 0
    gas_breakdown: dict[str, int] = field(default_factory=dict)
    result: Any = None
    revert_reason: str = ""
    depends_on: list["MainchainTransaction"] = field(default_factory=list)
    tx_id: int = field(default_factory=lambda: next(_hand_built))
    label: str = ""

    @property
    def latency(self) -> float | None:
        """Submission-to-inclusion delay, None while pending."""
        if self.included_at is None:
            return None
        return self.included_at - self.submitted_at

    def ready(self) -> bool:
        """True when all prerequisite transactions are confirmed."""
        return all(dep.status is TxStatus.CONFIRMED for dep in self.depends_on)
