"""TokenBank: the minimal base AMM contract on the mainchain (Figure 3).

Tracks pools, user deposits and liquidity positions; accepts epoch-based
deposits; processes TSQC-authenticated ``Sync`` calls; serves flash loans
in real time.  All gas charges follow the Table II itemisation.

Two calibration notes:

* **Deposit gas.**  Table II reports 105,392 gas for a two-token deposit
  *pipeline* (two ERC20 approvals plus the Deposit call).  The approvals
  are separate transactions charged by the ERC20 contract (24,000 each);
  the Deposit call charges the remainder so the pipeline total matches
  the paper exactly.

* **Idempotent syncs.**  Summaries carry absolute balances (updated
  deposits, absolute position liquidity, absolute pool balances), so
  re-applying a summary is harmless.  This is what makes mass-syncing
  after a mainchain rollback safe (Section IV-C, handling interruptions).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from repro import constants
from repro.core.summary import EpochSummary
from repro.core.sync import KeyHandover, SyncPayload
from repro.crypto.bls import bls_verify
from repro.crypto.groups import G2Element
from repro.errors import EscrowError, FlashLoanError, RevertError, SyncAuthError
from repro.mainchain.contracts.base import CallContext, Contract
from repro.mainchain.contracts.erc20 import ERC20Token, GAS_APPROVE

#: Packed storage footprint of one liquidity position (Table II: "each
#: consists of 192 bytes (or 6 words)").
POSITION_STORAGE_BYTES = 192
#: Storage for the committee verification key + signature (Table IV).
AUTH_STORAGE_BYTES = constants.SIZE_VKC + constants.SIZE_BLS_SIGNATURE
#: Storage for the pool balance pair (two words).
POOL_BALANCE_STORAGE_BYTES = 64

#: Deposit-call execution gas: pipeline total minus the two approvals.
GAS_DEPOSIT_CALL = constants.GAS_DEPOSIT_TWO_TOKENS - 2 * GAS_APPROVE


@dataclass
class EscrowRecord:
    """One cross-shard transfer's mainchain-side two-phase-commit state.

    ``prepared`` value has left the owner's balance (via the epoch
    summary that carried the prepare) and is held in the bank until the
    coordinator either releases it (settle: the value re-materialises on
    the destination shard's bank) or refunds it (abort: the value returns
    to the owner's deposit, and the sidechain re-credits it through the
    ordinary deposit-merge pipeline).
    """

    transfer_id: str
    user: str
    amount0: int
    amount1: int
    status: str = "prepared"
    abort_reason: str = ""

    PREPARED = "prepared"
    SETTLED = "settled"
    REFUNDED = "refunded"


@dataclass
class PositionEntry:
    """A liquidity position as stored by TokenBank."""

    position_id: str
    owner: str
    tick_lower: int
    tick_upper: int
    liquidity: int
    fees_owed0: int = 0
    fees_owed1: int = 0


class TokenBank(Contract):
    """The mainchain half of the AMM."""

    def __init__(
        self,
        address: str,
        token0: ERC20Token,
        token1: ERC20Token,
    ) -> None:
        super().__init__(address)
        self.token0 = token0
        self.token1 = token1
        #: User deposit balances: user -> [token0, token1].
        self.deposits: dict[str, list[int]] = {}
        #: Liquidity positions synced from the sidechain.
        self.positions: dict[str, PositionEntry] = {}
        #: Pool token balances (single pool in the PoC use case).
        self.pool_balance0 = 0
        self.pool_balance1 = 0
        self.pool_created = False
        #: Committee verification key accepted for the next sync.
        self.vkc: G2Element | None = None
        self.last_synced_epoch = -1
        self.synced_epochs: set[int] = set()
        self.sync_count = 0
        #: Optional Remark-3 extension: an attached
        #: :class:`~repro.core.nft.PositionNftRegistry` mints/burns the
        #: wrapping NFTs as positions are synced.
        self.nft_registry = None
        #: Confirmed deposit events ``(timestamp, user, amount0, amount1)``;
        #: the sidechain merges entries newer than its last snapshot so
        #: mid-epoch deposits are credited without waiting for a sync.
        self.deposit_events: list[tuple[float, str, int, int]] = []
        #: Cross-shard escrow records by transfer id (see
        #: :class:`EscrowRecord`).  Settled/refunded records are kept for
        #: auditability; only ``prepared`` ones hold value.
        self.escrows: dict[str, EscrowRecord] = {}

    # -- setup ------------------------------------------------------------------

    def set_genesis_committee(self, vkc: G2Element) -> None:
        """Record the first epoch committee's key (deployment-time setup)."""
        if self.vkc is not None:
            raise RevertError("genesis committee already set")
        self.vkc = vkc

    def create_pool(self, ctx: CallContext) -> None:
        """Initialise the (token0, token1) pool (Figure 3, createPool)."""
        if self.pool_created:
            raise RevertError("pool already created")
        self.pool_created = True
        self._store(ctx, POOL_BALANCE_STORAGE_BYTES, "pool-storage")

    # -- deposits ----------------------------------------------------------------

    def deposit(self, ctx: CallContext, amount0: int, amount1: int) -> None:
        """Epoch-based deposit: lock tokens backing next-epoch activity.

        Requires prior ERC20 approvals (submitted as separate
        transactions, which is why deposits confirm in ~4 blocks).
        """
        if amount0 < 0 or amount1 < 0:
            raise RevertError("deposit amounts must be non-negative")
        if amount0 == 0 and amount1 == 0:
            raise RevertError("empty deposit")
        self._pull(ctx.sender, self.token0, amount0)
        self._pull(ctx.sender, self.token1, amount1)
        balance = self.deposits.setdefault(ctx.sender, [0, 0])
        balance[0] += amount0
        balance[1] += amount1
        self.deposit_events.append((ctx.timestamp, ctx.sender, amount0, amount1))
        ctx.gas.charge(GAS_DEPOSIT_CALL, "deposit")

    def withdraw(self, ctx: CallContext, amount0: int, amount1: int) -> None:
        """Withdraw actual tokens from the caller's synced deposit balance."""
        balance = self.deposits.get(ctx.sender)
        if balance is None or balance[0] < amount0 or balance[1] < amount1:
            raise RevertError("withdrawal exceeds deposit balance")
        balance[0] -= amount0
        balance[1] -= amount1
        if amount0 > 0:
            self.token0._move(self.address, ctx.sender, amount0)
            ctx.gas.charge(constants.GAS_PAYOUT_ENTRY, "withdraw")
        if amount1 > 0:
            self.token1._move(self.address, ctx.sender, amount1)
            ctx.gas.charge(constants.GAS_PAYOUT_ENTRY, "withdraw")

    def _pull(self, owner: str, token: ERC20Token, amount: int) -> None:
        """transferFrom into the bank; allowance semantics, calibrated gas."""
        if amount == 0:
            return
        allowed = token.allowance(owner, self.address)
        if allowed < amount:
            raise RevertError(
                f"{token.symbol}: deposit needs approval ({allowed} < {amount})"
            )
        token._move(owner, self.address, amount)
        token.allowances[(owner, self.address)] = allowed - amount

    # -- syncing ---------------------------------------------------------------------

    def sync(self, ctx: CallContext, payload: SyncPayload) -> None:
        """Apply one or more epoch summaries (Figure 3, Sync).

        Authenticates the payload against the recorded committee key with
        the TSQC check (hash-to-point + pairing verification), then applies
        payouts, position updates and the pool balance, and finally records
        the next committee's verification key.
        """
        self._authenticate(ctx, payload)
        fresh = [s for s in payload.summaries if s.epoch > self.last_synced_epoch]
        if not fresh and all(s.epoch in self.synced_epochs for s in payload.summaries):
            raise RevertError("stale sync: all epochs already applied")
        for summary in sorted(payload.summaries, key=lambda s: s.epoch):
            self._apply_summary(ctx, summary)
        self.vkc = payload.vkc_next
        if self.sync_count == 0:
            self._store(ctx, AUTH_STORAGE_BYTES, "auth-storage")
        else:
            # The vk_c / signature slots are overwritten each sync.
            ctx.gas.charge_sstore(AUTH_STORAGE_BYTES, "auth-storage")
        self.sync_count += 1

    def _authenticate(self, ctx: CallContext, payload: SyncPayload) -> None:
        if self.vkc is None:
            raise SyncAuthError("no committee key recorded")
        if payload.signature is None:
            raise SyncAuthError("sync payload is unsigned")
        # Walk the hand-over certificate chain (empty in normal operation;
        # used by mass-syncs whose committee key was never recorded).
        key = self.vkc
        for handover in payload.handovers:
            ctx.gas.charge_pairing_check("auth-handover")
            if not bls_verify(
                key, handover.signature, *KeyHandover.message(handover.epoch, handover.vkc)
            ):
                raise SyncAuthError(
                    f"invalid key hand-over certificate for epoch {handover.epoch}"
                )
            key = handover.vkc
        # Hash-to-point: keccak over the summaries, then a G1 scalar mul.
        ctx.gas.charge_keccak(payload.summary_bytes, "auth-hash")
        ctx.gas.charge_ecmul("auth-hash")
        # Pairing check e(sig, g2) == e(H(m), vkc).
        ctx.gas.charge_pairing_check("auth-verify")
        if not bls_verify(key, payload.signature, payload.digest()):
            raise SyncAuthError("TSQC verification failed: wrong committee")

    def _apply_summary(self, ctx: CallContext, summary: EpochSummary) -> None:
        for payout in summary.payouts:
            # Payout entries are absolute updated deposit balances.
            self.deposits[payout.user] = [payout.balance0, payout.balance1]
            ctx.gas.charge(constants.GAS_PAYOUT_ENTRY, "payout")
        for delta in summary.positions:
            existing = self.positions.get(delta.position_id)
            if delta.deleted or delta.liquidity_after == 0:
                if existing is not None:
                    del self.positions[delta.position_id]
                    self._release(POSITION_STORAGE_BYTES)
                    ctx.gas.charge(5_000, "position-delete")
                    if self.nft_registry is not None:
                        self.nft_registry.on_position_deleted(delta.position_id)
                continue
            self.positions[delta.position_id] = PositionEntry(
                position_id=delta.position_id,
                owner=delta.owner,
                tick_lower=delta.tick_lower,
                tick_upper=delta.tick_upper,
                liquidity=delta.liquidity_after,
                fees_owed0=delta.fees_owed0,
                fees_owed1=delta.fees_owed1,
            )
            if existing is None:
                self._store(ctx, POSITION_STORAGE_BYTES, "position-storage")
            else:
                # Updating an existing entry overwrites its slots.
                ctx.gas.charge_sstore(POSITION_STORAGE_BYTES, "position-storage")
            if self.nft_registry is not None:
                # Remark 3: the wrapping NFT is created at the epoch
                # boundary, when the position first reaches the mainchain.
                self.nft_registry.on_position_synced(ctx, delta.position_id)
        self.pool_balance0 = summary.pool_balance0
        self.pool_balance1 = summary.pool_balance1
        # Pool-balance slots are overwritten in place: gas is charged per
        # store (the Table II accounting) but the state footprint is flat.
        ctx.gas.charge_sstore(POOL_BALANCE_STORAGE_BYTES, "pool-storage")
        if summary.epoch > self.last_synced_epoch:
            self.last_synced_epoch = summary.epoch
        self.synced_epochs.add(summary.epoch)

    # -- flash loans --------------------------------------------------------------------

    def flash(
        self,
        ctx: CallContext,
        amount0: int,
        amount1: int,
        callback: Callable[[int, int], tuple[int, int]],
        fee_pips: int = 3000,
    ) -> tuple[int, int]:
        """Short-term loan within one mainchain block (Figure 3, Flash).

        Flashes are the one operation ammBoost keeps on the mainchain: they
        need instant token dispensing, not end-of-epoch payout.
        """
        if not self.pool_created:
            raise RevertError("no pool")
        if amount0 < 0 or amount1 < 0:
            raise FlashLoanError("flash amounts must be non-negative")
        if amount0 > self.pool_balance0 or amount1 > self.pool_balance1:
            raise FlashLoanError("flash exceeds pool balance")
        fee0 = -(-amount0 * fee_pips // 1_000_000)
        fee1 = -(-amount1 * fee_pips // 1_000_000)
        paid0, paid1 = callback(fee0, fee1)
        if paid0 < amount0 + fee0 or paid1 < amount1 + fee1:
            raise FlashLoanError("flash loan not repaid with fees")
        self.pool_balance0 += paid0 - amount0
        self.pool_balance1 += paid1 - amount1
        ctx.gas.charge(30_000, "flash")
        return fee0, fee1

    # -- cross-shard escrow (two-phase commit, mainchain side) --------------------------
    #
    # Escrow records track value crossing between shard banks.  Like Sync
    # payouts, amounts are committee-attested sidechain facts (the prepare
    # is carried in the source shard's epoch summary), so these methods
    # take no CallContext: they are coordinator-driven state transitions,
    # not user transactions.  The owner's balance delta itself flows
    # through the summary's absolute payouts; locking therefore does NOT
    # touch ``deposits`` — the record *is* the escrowed value.

    def escrow_lock(
        self, transfer_id: str, user: str, amount0: int, amount1: int
    ) -> EscrowRecord:
        """Prepare: park an outbound cross-shard transfer in the bank."""
        if amount0 < 0 or amount1 < 0:
            raise EscrowError("escrow amounts must be non-negative")
        if amount0 == 0 and amount1 == 0:
            raise EscrowError("empty escrow")
        if transfer_id in self.escrows:
            raise EscrowError(f"transfer {transfer_id} already escrowed")
        record = EscrowRecord(
            transfer_id=transfer_id, user=user, amount0=amount0, amount1=amount1
        )
        self.escrows[transfer_id] = record
        return record

    def escrow_release(self, transfer_id: str) -> tuple[int, int]:
        """Settle: the escrowed value bridges out to the destination bank."""
        record = self._active_escrow(transfer_id)
        record.status = EscrowRecord.SETTLED
        return record.amount0, record.amount1

    def escrow_refund(
        self, transfer_id: str, timestamp: float, reason: str = ""
    ) -> tuple[int, int]:
        """Abort: return the escrowed value to its owner's deposit.

        The refund also lands in ``deposit_events`` so the sidechain
        re-credits the owner's working balance at the next epoch boundary
        through the ordinary deposit-merge pipeline.
        """
        record = self._active_escrow(transfer_id)
        record.status = EscrowRecord.REFUNDED
        record.abort_reason = reason
        self.credit_external(
            record.user, record.amount0, record.amount1, timestamp
        )
        return record.amount0, record.amount1

    def credit_external(
        self, user: str, amount0: int, amount1: int, timestamp: float
    ) -> None:
        """Credit value arriving from outside this bank (bridge settle).

        Used for cross-shard settles (value released from another shard's
        escrow) and refunds.  Rides the same ``deposit_events`` pipeline
        as ordinary deposits so the sidechain merges it at the next epoch
        boundary.
        """
        if amount0 < 0 or amount1 < 0:
            raise EscrowError("bridge credits must be non-negative")
        balance = self.deposits.setdefault(user, [0, 0])
        balance[0] += amount0
        balance[1] += amount1
        self.deposit_events.append((timestamp, user, amount0, amount1))

    def _active_escrow(self, transfer_id: str) -> EscrowRecord:
        record = self.escrows.get(transfer_id)
        if record is None:
            raise EscrowError(f"unknown transfer {transfer_id}")
        if record.status != EscrowRecord.PREPARED:
            raise EscrowError(
                f"transfer {transfer_id} already {record.status}"
            )
        return record

    def escrow_balance(self) -> tuple[int, int]:
        """Value currently held in prepared escrows (conservation term)."""
        total0 = total1 = 0
        for record in self.escrows.values():
            if record.status == EscrowRecord.PREPARED:
                total0 += record.amount0
                total1 += record.amount1
        return total0, total1

    # -- rollback support ---------------------------------------------------------------

    def state_snapshot(self) -> dict:
        """Capture the contract state a mainchain rollback would rewind to.

        The simulated chain does not rewind contract storage on rollback
        (see :meth:`repro.mainchain.chain.Mainchain.rollback`); the
        ammBoost system captures this snapshot before submitting a sync
        and restores it if that sync's block is abandoned, reproducing
        real rollback semantics for the recovery experiments.
        """
        return {
            "deposits": {u: list(b) for u, b in self.deposits.items()},
            "positions": dict(self.positions),
            "pool_balance0": self.pool_balance0,
            "pool_balance1": self.pool_balance1,
            "vkc": self.vkc,
            "last_synced_epoch": self.last_synced_epoch,
            "synced_epochs": set(self.synced_epochs),
            "sync_count": self.sync_count,
            "storage_bytes": self.storage_bytes,
            "deposit_events": list(self.deposit_events),
            "escrows": {
                tid: replace(r) for tid, r in self.escrows.items()
            },
        }

    def restore_state(self, snapshot: dict) -> None:
        """Rewind to a previously captured snapshot (rollback recovery)."""
        self.deposits = {u: list(b) for u, b in snapshot["deposits"].items()}
        self.positions = dict(snapshot["positions"])
        self.pool_balance0 = snapshot["pool_balance0"]
        self.pool_balance1 = snapshot["pool_balance1"]
        self.vkc = snapshot["vkc"]
        self.last_synced_epoch = snapshot["last_synced_epoch"]
        self.synced_epochs = set(snapshot["synced_epochs"])
        self.sync_count = snapshot["sync_count"]
        self.storage_bytes = snapshot["storage_bytes"]
        self.deposit_events = list(snapshot["deposit_events"])
        self.escrows = {
            tid: replace(r) for tid, r in snapshot.get("escrows", {}).items()
        }

    # -- views ------------------------------------------------------------------------

    def deposit_of(self, user: str) -> tuple[int, int]:
        balance = self.deposits.get(user, [0, 0])
        return balance[0], balance[1]

    def snapshot_deposits(self) -> dict[str, list[int]]:
        """The SnapshotBank read: all deposits at epoch start."""
        return {user: list(bal) for user, bal in self.deposits.items()}
