"""Cross-shard transfers: transaction types, the per-shard escrow ledger,
and the settlement instructions the coordinator exchanges with shards.

The two-phase commit, end to end:

1. **Prepare** (source shard, epoch *e*, in-round): a
   :class:`CrossShardTransferTx` is mined into a meta-block like any
   sidechain transaction.  The shard executor debits the sender's working
   balance and records the transfer's :data:`TransferRow` as
   ``prepared`` in the shard's :class:`EscrowLedger`; at the end of the
   epoch the shard locks the same value in its mainchain TokenBank
   (:meth:`~repro.core.token_bank.TokenBank.escrow_lock`) — the prepare
   is carried to the mainchain by the epoch summary whose payouts already
   reflect the debit.
2. **Resolve** (coordinator, boundary *e* → *e+1*): the cross-shard
   router decides settle or abort per transfer.  Resolution is deferred
   while either endpoint shard is offline (a partitioned committee can
   neither release its escrow nor credit an inbound settle), so value in
   flight is never duplicated or dropped.
3. **Settle** (epoch *e+1*): the source bank releases the escrow
   (:meth:`~repro.core.token_bank.TokenBank.escrow_release`), the
   destination bank mints the bridged value via ``credit_external`` —
   which rides the ordinary deposit-merge pipeline into the destination
   executor — and the continuation leg (a :class:`CrossShardSwapTx`) is
   enqueued for the destination's first round.
4. **Abort** (epoch *e+1*): the source bank refunds the escrow to the
   sender (again through ``credit_external`` + deposit merge), and both
   the ledger's :data:`LedgerRow` and the bank's
   :data:`~repro.core.token_bank.EscrowRow` carry the typed abort reason
   as their last field.

Every identifier is deterministic (per-shard, per-epoch counters), so the
whole protocol is bit-identical under any scheduler job count.

**Wire format.**  Per-transfer data crosses the scheduler pipes, and is
kept on both sides of them, as exact tuples of ``str``/``int``/``bool``,
not as dataclasses: a prepare is a :data:`TransferRow` (built by
:func:`transfer_row`, which names its fields), and a settlement item is
an :data:`Instruction` — ``("credit", row)`` to the destination or
``("resolve", transfer_id, settle, reason, code)`` to the source.  The
ledger's row for a transfer wraps the very ``TransferRow`` the shard
ships.  Plain tuples pickle in C and drop out of the cyclic GC once it
has seen them; see ``sharding/README.md`` for the measured cost of the
alternatives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Literal

from repro.core.transactions import SwapTx
from repro.errors import EscrowError


#: A prepared transfer, on the wire and in every process that keeps it:
#: ``(transfer_id, user, source_shard, dest_shard, dest_pool, amount0,
#: amount1, epoch, zero_for_one, exact_input, swap_amount,
#: return_output)``.  ``amount0``/``amount1`` are the escrowed value
#: (canonical pair, non-negative); ``epoch`` is the source shard's epoch
#: the prepare was mined in; the last four fields are the continuation
#: swap for the destination leg, ``return_output`` escrowing its output
#: straight back to the source shard (the multi-hop round trip).
TransferRow = tuple[str, str, int, int, str, int, int, int, bool, bool, int, bool]

#: A transfer in a shard's :class:`EscrowLedger`: ``(row, status,
#: abort_reason)``, ``row`` being the :data:`TransferRow` the shard
#: ships and ``status`` one of :data:`PREPARED`, :data:`SETTLED`,
#: :data:`ABORTED`.
LedgerRow = tuple[TransferRow, str, str]
PREPARED = "prepared"
SETTLED = "settled"
ABORTED = "aborted"


def transfer_row(
    transfer_id: str,
    user: str,
    source_shard: int,
    dest_shard: int,
    dest_pool: str,
    amount0: int,
    amount1: int,
    epoch: int,
    zero_for_one: bool = True,
    exact_input: bool = True,
    swap_amount: int = 0,
    return_output: bool = False,
) -> TransferRow:
    """A :data:`TransferRow` from its fields."""
    return (
        transfer_id,
        user,
        source_shard,
        dest_shard,
        dest_pool,
        amount0,
        amount1,
        epoch,
        zero_for_one,
        exact_input,
        swap_amount,
        return_output,
    )


#: One escrow settlement item, tagged by its first element:
#: ``("credit", row)`` delivers value arriving from an escrow to the
#: destination shard; ``("resolve", transfer_id, settle, reason, code)``
#: tells the source shard to release (``settle``) or refund its escrow.
#: ``code`` is the machine-readable abort code ("" for settles);
#: retryable codes are listed in
#: :data:`repro.sharding.router.RETRYABLE_ABORTS`; a misroute
#: (``stale_route``, ``unknown_shard``) is not among them, because the
#: pool assignment never changes and the same leg would abort again.
Instruction = (
    tuple[Literal["credit"], TransferRow]
    | tuple[Literal["resolve"], str, bool, str, str]
)

#: One shard's settlement inbox for an epoch.  Beyond the escrow
#: instructions it may carry the bridge journal's fork compensations
#: (see :mod:`repro.sharding.journal`); the list type stays permissive
#: so the escrow module does not depend on the journal, which imports it.
ShardInstructions = list[Any]


def transfer_sort_key(transfer_id: str) -> tuple:
    """FIFO ordering key for ``x{shard}-{epoch}-{seq}`` transfer ids.

    Plain string sorting would put ``x0-2-10`` before ``x0-2-2``; the
    numeric key preserves preparation order, which is the order credits
    (and therefore continuation swaps) must apply in.  Ids that do not
    match the scheme sort after all well-formed ones, by string.
    """
    head, sep, _ = transfer_id.partition("-")
    parts = transfer_id[1:].split("-") if sep else []
    if head.startswith("x") and len(parts) == 3:
        try:
            return (0, int(parts[0]), int(parts[1]), int(parts[2]))
        except ValueError:
            pass
    return (1, transfer_id)


class EscrowLedger:
    """Per-shard registry of cross-shard transfers (sidechain side).

    ``records`` maps a transfer id to its :data:`LedgerRow`; a
    transition stores a new row around the same :data:`TransferRow`.
    """

    def __init__(self, shard_index: int) -> None:
        self.shard_index = shard_index
        self.records: dict[str, LedgerRow] = {}
        #: This shard's own prepares, by the epoch they were mined in.
        self._prepared_by_epoch: dict[int, list[TransferRow]] = {}
        self._epoch_counters: dict[int, int] = {}

    def next_transfer_id(self, epoch: int) -> str:
        """Deterministic id: shard index, epoch, per-epoch sequence."""
        count = self._epoch_counters.get(epoch, 0)
        self._epoch_counters[epoch] = count + 1
        return f"x{self.shard_index}-{epoch}-{count}"

    def prepare(self, row: TransferRow) -> None:
        transfer_id = row[0]
        if transfer_id in self.records:
            raise EscrowError(f"transfer {transfer_id} already prepared")
        self.records[transfer_id] = (row, PREPARED, "")
        if row[2] == self.shard_index:
            self._prepared_by_epoch.setdefault(row[7], []).append(row)

    def mark_settled(self, transfer_id: str) -> None:
        self.records[transfer_id] = (self._prepared(transfer_id), SETTLED, "")

    def mark_aborted(self, transfer_id: str, reason: str) -> None:
        self.records[transfer_id] = (
            self._prepared(transfer_id), ABORTED, reason
        )

    def _prepared(self, transfer_id: str) -> TransferRow:
        """The row of a transfer still ``prepared``, or raise."""
        record = self.records.get(transfer_id)
        if record is None:
            raise EscrowError(f"unknown transfer {transfer_id}")
        row, status, _ = record
        if status != PREPARED:
            raise EscrowError(f"transfer {transfer_id} already {status}")
        return row

    def prepared_in(self, epoch: int) -> list[TransferRow]:
        """Transfers this shard prepared during ``epoch``, in id order.

        Reads the epoch's own index entry, so the cost scales with that
        epoch's transfers, not the shard's whole transfer history.
        """
        return sorted(
            self._prepared_by_epoch.get(epoch, ()),
            key=lambda row: transfer_sort_key(row[0]),
        )

    def counts(self) -> dict[str, int]:
        out = {PREPARED: 0, SETTLED: 0, ABORTED: 0}
        for _, status, _ in self.records.values():
            out[status] += 1
        return out


# ---------------------------------------------------------------------------
# transaction types
# ---------------------------------------------------------------------------


@dataclass
class CrossShardTransferTx(SwapTx):
    """Leg 1 of a cross-shard trade: escrow the input on the home shard.

    Subclasses :class:`SwapTx` so the epoch summariser folds its working
    balance debit (``effects['delta0']/['delta1']``) into the payout list
    exactly like a swap — which is how the prepare reaches the mainchain.
    ``amount``/``zero_for_one``/``exact_input`` describe the *continuation*
    swap executed on the destination shard after settlement.
    """

    transfer_id: str = ""
    dest_shard: int = -1
    dest_pool: str = ""
    #: Round-trip flag: escrow the destination swap's output back home.
    return_output: bool = False


@dataclass
class CrossShardSwapTx(SwapTx):
    """Leg 2: the continuation swap executed on the destination shard.

    Enqueued by the destination shard's ingest phase after the settle
    credit lands.  With ``return_output`` the executor escrows the swap's
    proceeds straight back to ``home_shard`` — the multi-hop round trip.
    """

    transfer_id: str = ""
    home_shard: int = -1
    return_output: bool = False
