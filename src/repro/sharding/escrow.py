"""Cross-shard transfers: transaction types, the per-shard escrow ledger,
and the settlement instructions the coordinator exchanges with shards.

The two-phase commit, end to end:

1. **Prepare** (source shard, epoch *e*, in-round): a
   :class:`CrossShardTransferTx` is mined into a meta-block like any
   sidechain transaction.  The shard executor debits the sender's working
   balance and records a ``prepared`` :class:`TransferRecord` in the
   shard's :class:`EscrowLedger`; at the end of the epoch the shard locks
   the same value in its mainchain TokenBank
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
   sender (again through ``credit_external`` + deposit merge) and the
   record carries the typed abort reason
   (``TransferRecord.abort_reason`` / ``EscrowRecord.abort_reason``).

Every identifier is deterministic (per-shard, per-epoch counters), so the
whole protocol is bit-identical under any scheduler job count.

**Wire format.**  Per-transfer data crosses the scheduler pipes and lives
in the coordinator as exact tuples of ``str``/``int``/``bool``, not
as dataclasses: a prepare is a :data:`TransferRow` (the twelve immutable
:class:`TransferRecord` fields in declaration order, so
``TransferRecord(*row)`` rebuilds a prepared record), and a settlement
item is an :data:`Instruction` — ``("credit", row)`` to the destination
or ``("resolve", transfer_id, settle, reason, code)`` to the source.
Plain tuples pickle in C and drop out of the cyclic GC once it has seen
them; see ``sharding/README.md`` for the measured cost of the
alternatives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Literal

from repro.core.transactions import SwapTx
from repro.errors import EscrowError


@dataclass
class TransferRecord:
    """One cross-shard transfer's sidechain-side state."""

    transfer_id: str
    user: str
    source_shard: int
    dest_shard: int
    dest_pool: str
    #: Escrowed value (canonical pair, non-negative).
    amount0: int
    amount1: int
    #: Epoch the prepare was mined in (source shard's epoch numbering).
    epoch: int
    #: Continuation swap parameters for the destination leg.
    zero_for_one: bool = True
    exact_input: bool = True
    swap_amount: int = 0
    #: Whether the continuation swap's output is escrowed straight back
    #: to the source shard (the multi-hop round trip).
    return_output: bool = False
    status: str = "prepared"
    abort_reason: str = ""

    PREPARED = "prepared"
    SETTLED = "settled"
    ABORTED = "aborted"

    def row(self) -> TransferRow:
        """The record's wire form: every field but the shard-side
        ``status`` and ``abort_reason``, in declaration order."""
        return (
            self.transfer_id,
            self.user,
            self.source_shard,
            self.dest_shard,
            self.dest_pool,
            self.amount0,
            self.amount1,
            self.epoch,
            self.zero_for_one,
            self.exact_input,
            self.swap_amount,
            self.return_output,
        )


#: A prepared transfer on the wire: ``(transfer_id, user, source_shard,
#: dest_shard, dest_pool, amount0, amount1, epoch, zero_for_one,
#: exact_input, swap_amount, return_output)``.
TransferRow = tuple[str, str, int, int, str, int, int, int, bool, bool, int, bool]

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
#: instructions it may carry the recovery layer's fork compensations
#: (see :mod:`repro.recovery`); the list type stays permissive so the
#: escrow module does not depend on the recovery package.
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
    """Per-shard registry of cross-shard transfers (sidechain side)."""

    def __init__(self, shard_index: int) -> None:
        self.shard_index = shard_index
        self.records: dict[str, TransferRecord] = {}
        #: This shard's own prepares, by the epoch they were mined in.
        self._prepared_by_epoch: dict[int, list[TransferRecord]] = {}
        self._epoch_counters: dict[int, int] = {}

    def next_transfer_id(self, epoch: int) -> str:
        """Deterministic id: shard index, epoch, per-epoch sequence."""
        count = self._epoch_counters.get(epoch, 0)
        self._epoch_counters[epoch] = count + 1
        return f"x{self.shard_index}-{epoch}-{count}"

    def prepare(self, record: TransferRecord) -> TransferRecord:
        if record.transfer_id in self.records:
            raise EscrowError(
                f"transfer {record.transfer_id} already prepared"
            )
        if record.status != TransferRecord.PREPARED:
            raise EscrowError(
                f"cannot prepare a record in state {record.status!r}"
            )
        self.records[record.transfer_id] = record
        if record.source_shard == self.shard_index:
            self._prepared_by_epoch.setdefault(record.epoch, []).append(record)
        return record

    def mark_settled(self, transfer_id: str) -> TransferRecord:
        record = self._prepared(transfer_id)
        record.status = TransferRecord.SETTLED
        return record

    def mark_aborted(self, transfer_id: str, reason: str) -> TransferRecord:
        record = self._prepared(transfer_id)
        record.status = TransferRecord.ABORTED
        record.abort_reason = reason
        return record

    def _prepared(self, transfer_id: str) -> TransferRecord:
        record = self.records.get(transfer_id)
        if record is None:
            raise EscrowError(f"unknown transfer {transfer_id}")
        if record.status != TransferRecord.PREPARED:
            raise EscrowError(
                f"transfer {transfer_id} already {record.status}"
            )
        return record

    def prepared_in(self, epoch: int) -> list[TransferRecord]:
        """Transfers this shard prepared during ``epoch``, in id order.

        Reads the epoch's own index entry, so the cost scales with that
        epoch's transfers, not the shard's whole transfer history.
        """
        return sorted(
            self._prepared_by_epoch.get(epoch, ()),
            key=lambda r: transfer_sort_key(r.transfer_id),
        )

    def counts(self) -> dict[str, int]:
        out = {
            TransferRecord.PREPARED: 0,
            TransferRecord.SETTLED: 0,
            TransferRecord.ABORTED: 0,
        }
        for record in self.records.values():
            out[record.status] += 1
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
