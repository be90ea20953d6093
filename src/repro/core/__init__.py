"""ammBoost proper: the paper's primary contribution.

Functionality split (Section IV): a minimal ``TokenBank`` contract on the
mainchain holds tokens, deposits and synced positions; the sidechain
executor processes swaps/mints/burns/collects off an epoch-start snapshot
with the original AMM logic; summary rules fold each epoch into payout and
position lists; a TSQC-authenticated ``Sync`` call updates the mainchain
once per epoch; confirmed epochs are pruned.
"""

from repro.core.transactions import (
    BurnTx,
    CollectTx,
    DepositRequest,
    MintTx,
    SidechainTx,
    SwapTx,
    TxType,
)
from repro.core.token_bank import TokenBank, PositionEntry
from repro.core.executor import SidechainExecutor
from repro.core.summary import EpochSummary, summarize_epoch
from repro.core.sync import SyncPayload, TsqcAuthenticator
from repro.core.snapshot import SnapshotBank
from repro.core.system import AmmBoostConfig, AmmBoostSystem

__all__ = [
    "TxType",
    "SidechainTx",
    "SwapTx",
    "MintTx",
    "BurnTx",
    "CollectTx",
    "DepositRequest",
    "TokenBank",
    "PositionEntry",
    "SidechainExecutor",
    "EpochSummary",
    "summarize_epoch",
    "SyncPayload",
    "TsqcAuthenticator",
    "SnapshotBank",
    "AmmBoostConfig",
    "AmmBoostSystem",
]
