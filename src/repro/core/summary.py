"""Summary rules (Figure 4): fold an epoch's meta-blocks into lists.

The committee summarises the epoch's traffic into

* ``sumPayouts`` — every active user's updated deposit balance, and
* ``sumPositions`` — every touched liquidity position's net changes,

which together with the updated pool balance form the ``Sync`` inputs.

Both lists hold rows: a payout is a :data:`PayoutRow` and a position a
:data:`PositionRow`, exact tuples of ``str``/``int``/``bool``.  Summaries
are permanent — a summary-block keeps its rows for good and every Sync
carries them — so on a position-heavy mix they are most of what the
process retains.  CPython's cyclic collector untracks a tuple of atomics
the first time it sees one, so the rows cost a full collection nothing,
where a dataclass row would stay tracked and be rescanned by every full
collection.  The summariser folds each position into a list and emits
its tuple once.

Note on Figure 4: the paper's pseudocode credits ``Deposits[...].amntB``
on a mint (``+=``), which would create tokens out of thin air; minting
consumes both tokens, so this implementation deducts both (the rest of
the paper's text — "all provided liquidity token amounts are deducted
from their deposits" — confirms the ``+=`` is a typo).  Conservation is
enforced by property tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro import constants
from repro.core.transactions import BurnTx, CollectTx, MintTx, SidechainTx, SwapTx
from repro.errors import SyncValidationError
from repro.sidechain.blocks import MetaBlock


#: One user's updated deposit balance (a ``sumPayouts`` row):
#: ``(user, balance0, balance1)``.
PayoutRow = tuple[str, int, int]

#: One touched position's net change over the epoch (a ``sumPositions``
#: row): ``(position_id, owner, tick_lower, tick_upper, liquidity_delta,
#: liquidity_after, fees_owed0, fees_owed1, deleted)``.
#: ``liquidity_delta`` is the net change (positive mints, negative
#: burns), ``liquidity_after`` the absolute liquidity after the epoch (0
#: means fully withdrawn), ``fees_owed*`` what is still owed after the
#: epoch's collects, and ``deleted`` marks a fully withdrawn position
#: TokenBank must delete.
PositionRow = tuple[str, str, int, int, int, int, int, int, bool]


def payout_row(user: str, balance0: int, balance1: int) -> PayoutRow:
    """A :data:`PayoutRow` from its fields."""
    return (user, balance0, balance1)


def position_row(
    position_id: str,
    owner: str,
    tick_lower: int,
    tick_upper: int,
    liquidity_delta: int,
    liquidity_after: int,
    fees_owed0: int = 0,
    fees_owed1: int = 0,
    deleted: bool = False,
) -> PositionRow:
    """A :data:`PositionRow` from its fields."""
    return (
        position_id,
        owner,
        tick_lower,
        tick_upper,
        liquidity_delta,
        liquidity_after,
        fees_owed0,
        fees_owed1,
        deleted,
    )


@dataclass
class EpochSummary:
    """Everything an epoch's Sync call carries for one epoch."""

    epoch: int
    payouts: list[PayoutRow] = field(default_factory=list)
    positions: list[PositionRow] = field(default_factory=list)
    #: Updated pool token balances as tracked by the sidechain.
    pool_balance0: int = 0
    pool_balance1: int = 0
    #: Pool price state so a fresh committee can resume without replay.
    pool_sqrt_price_x96: int = 0

    @property
    def sidechain_size_bytes(self) -> int:
        """Binary-packed size inside a summary-block (Table IV)."""
        return (
            len(self.payouts) * constants.SIZE_PAYOUT_ENTRY_SIDECHAIN
            + len(self.positions) * constants.SIZE_POSITION_ENTRY_SIDECHAIN
        )

    @property
    def mainchain_size_bytes(self) -> int:
        """ABI-encoded size inside a Sync transaction (Table IV)."""
        return (
            len(self.payouts) * constants.SIZE_PAYOUT_ENTRY_MAINCHAIN
            + len(self.positions) * constants.SIZE_POSITION_ENTRY_MAINCHAIN
        )


def summarize_epoch(
    epoch: int,
    meta_blocks: Sequence[MetaBlock],
    initial_deposits: dict[str, list[int]],
    pool_balance0: int,
    pool_balance1: int,
    pool_sqrt_price_x96: int = 0,
) -> EpochSummary:
    """Apply the Figure 4 summary rules to an epoch's meta-blocks.

    Replays the recorded execution *effects* of every accepted transaction
    (the committee validated them when mining the meta-blocks), folding
    them into updated deposits and net position changes.  This is the
    independent path the tests cross-check against the executor's live
    state — the two must agree exactly.
    """
    deposits = {user: list(bal) for user, bal in initial_deposits.items()}
    positions: dict[str, list] = {}

    for block in meta_blocks:
        if block.epoch != epoch:
            raise SyncValidationError(
                f"meta-block from epoch {block.epoch} in summary for {epoch}"
            )
        for tx in block.transactions:
            if not tx.accepted:
                continue
            _fold_tx(tx, deposits, positions)

    return EpochSummary(
        epoch=epoch,
        payouts=[(user, bal[0], bal[1]) for user, bal in sorted(deposits.items())],
        positions=[tuple(positions[k]) for k in sorted(positions)],
        pool_balance0=pool_balance0,
        pool_balance1=pool_balance1,
        pool_sqrt_price_x96=pool_sqrt_price_x96,
    )


def _fold_tx(
    tx: SidechainTx,
    deposits: dict[str, list[int]],
    positions: dict[str, list],
) -> None:
    """Fold one accepted transaction into the working deposits and the
    position's working list (a :data:`PositionRow` still being edited)."""
    effects = tx.effects
    balance = deposits.setdefault(tx.user, [0, 0])

    if isinstance(tx, SwapTx):
        balance[0] += effects["delta0"]
        balance[1] += effects["delta1"]
        return

    position_id = effects["position_id"]
    entry = positions.get(position_id)
    if entry is None:
        entry = positions[position_id] = [
            position_id,
            effects["owner"],
            effects["tick_lower"],
            effects["tick_upper"],
            0,
            effects["liquidity_before"],
            0,
            0,
            False,
        ]

    # entry[4] is the liquidity delta, entry[5] the liquidity after,
    # entry[6:8] the owed fees and entry[8] the deletion mark.
    if isinstance(tx, MintTx):
        entry[4] += effects["liquidity_delta"]
        entry[5] += effects["liquidity_delta"]
        balance[0] -= effects["amount0"]
        balance[1] -= effects["amount1"]
    elif isinstance(tx, BurnTx):
        entry[4] -= effects["liquidity_delta"]
        entry[5] -= effects["liquidity_delta"]
        balance[0] += effects["amount0"]
        balance[1] += effects["amount1"]
        if entry[5] == 0 and effects.get("deleted"):
            entry[8] = True
    elif isinstance(tx, CollectTx):
        balance[0] += effects["amount0"]
        balance[1] += effects["amount1"]
    else:
        raise SyncValidationError(f"unknown sidechain tx type {type(tx).__name__}")

    entry[6] = effects.get("fees_owed0", entry[6])
    entry[7] = effects.get("fees_owed1", entry[7])
