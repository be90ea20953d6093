"""Escrow state machines: TokenBank (mainchain) and EscrowLedger (shard)."""

from types import SimpleNamespace

import pytest

from repro.core.token_bank import (
    ESCROW_PREPARED,
    ESCROW_REFUNDED,
    ESCROW_SETTLED,
    TokenBank,
)
from repro.errors import EscrowError
from repro.mainchain.contracts.erc20 import ERC20Token
from repro.sharding.escrow import EscrowLedger, TransferRow, transfer_row
from repro.sharding.journal import ResyncResolve
from repro.sharding.shard import Shard

#: Field positions of an ``EscrowRow``.
STATUS, ABORT_REASON = 4, 5


def make_bank() -> TokenBank:
    return TokenBank("tokenbank", ERC20Token("erc20:A", "A"), ERC20Token("erc20:B", "B"))


class TestTokenBankEscrow:
    def test_lock_release_settles(self):
        bank = make_bank()
        bank.escrow_lock("t1", "alice", 100, 0)
        assert bank.escrow_balance() == (100, 0)
        assert bank.escrow_release("t1") == (100, 0)
        assert bank.escrow_balance() == (0, 0)
        assert bank.escrows["t1"][STATUS] == ESCROW_SETTLED

    def test_refund_credits_owner_and_emits_event(self):
        bank = make_bank()
        bank.escrow_lock("t1", "alice", 70, 30)
        bank.escrow_refund("t1", timestamp=5.0, reason="dest offline")
        assert bank.deposit_of("alice") == (70, 30)
        assert bank.deposit_events == [(5.0, "alice", 70, 30)]
        assert bank.escrows["t1"] == (
            "t1", "alice", 70, 30, ESCROW_REFUNDED, "dest offline"
        )

    def test_double_lock_rejected(self):
        bank = make_bank()
        bank.escrow_lock("t1", "alice", 1, 0)
        with pytest.raises(EscrowError, match="already escrowed"):
            bank.escrow_lock("t1", "alice", 1, 0)

    def test_release_then_refund_rejected(self):
        bank = make_bank()
        bank.escrow_lock("t1", "alice", 1, 0)
        bank.escrow_release("t1")
        with pytest.raises(EscrowError, match="already settled"):
            bank.escrow_refund("t1", timestamp=0.0)

    def test_unknown_transfer_rejected(self):
        with pytest.raises(EscrowError, match="unknown"):
            make_bank().escrow_release("ghost")

    def test_empty_or_negative_escrow_rejected(self):
        bank = make_bank()
        with pytest.raises(EscrowError):
            bank.escrow_lock("t1", "alice", 0, 0)
        with pytest.raises(EscrowError):
            bank.escrow_lock("t2", "alice", -1, 5)

    def test_credit_external_rides_deposit_events(self):
        bank = make_bank()
        bank.credit_external("bob", 10, 20, timestamp=3.0)
        assert bank.deposit_of("bob") == (10, 20)
        assert bank.deposit_events == [(3.0, "bob", 10, 20)]

    def test_snapshot_roundtrips_escrows(self):
        bank = make_bank()
        bank.escrow_lock("t1", "alice", 9, 9)
        snapshot = bank.state_snapshot()
        bank.escrow_release("t1")
        bank.restore_state(snapshot)
        assert bank.escrows["t1"][STATUS] == ESCROW_PREPARED
        assert bank.escrow_balance() == (9, 9)

    @pytest.mark.parametrize(
        "transition", ["release", "refund", "resync_settle", "resync_refund"]
    )
    def test_transitions_replace_records_the_snapshot_shares(self, transition):
        bank = make_bank()
        bank.escrow_lock("t1", "alice", 9, 4)
        bank.escrow_lock("t2", "bob", 1, 0)
        snapshot = bank.state_snapshot()
        shared = dict(snapshot["escrows"])
        assert shared["t1"] is bank.escrows["t1"]
        if transition == "release":
            bank.escrow_release("t1")
        elif transition == "refund":
            bank.escrow_refund("t1", timestamp=1.0, reason="dest offline")
        else:
            shard = SimpleNamespace(system=SimpleNamespace(token_bank=bank))
            resync = ResyncResolve(
                "t1", settle=transition == "resync_settle", reason="fork"
            )
            Shard._apply_resync(shard, resync)
        assert bank.escrows["t1"][STATUS] != ESCROW_PREPARED
        assert bank.escrows["t1"] is not shared["t1"]
        # The snapshot's own rows never moved.
        assert snapshot["escrows"] == shared
        assert all(snapshot["escrows"][t] is shared[t] for t in shared)
        assert shared["t1"][STATUS] == ESCROW_PREPARED
        assert shared["t1"][ABORT_REASON] == ""
        bank.restore_state(snapshot)
        assert bank.escrows["t1"][STATUS] == ESCROW_PREPARED
        assert bank.escrow_balance() == (10, 4)
        # A second transition after the restore leaves the snapshot intact.
        bank.escrow_release("t2")
        assert snapshot["escrows"]["t2"][STATUS] == ESCROW_PREPARED

    def test_records_are_immutable(self):
        """Escrows are exact tuples of atomics: immutable, and left out
        of the cyclic GC's scans."""
        bank = make_bank()
        row = bank.escrow_lock("t1", "alice", 9, 9)
        assert type(row) is tuple
        assert row == ("t1", "alice", 9, 9, ESCROW_PREPARED, "")
        bank.escrow_refund("t1", timestamp=0.0, reason="late")
        assert type(bank.escrows["t1"]) is tuple
        assert row[STATUS] == ESCROW_PREPARED


def record(tid: str, epoch: int = 0, **fields) -> TransferRow:
    return transfer_row(
        **{
            "transfer_id": tid, "user": "alice", "source_shard": 0,
            "dest_shard": 1, "dest_pool": "pool-1", "amount0": 10,
            "amount1": 0, "epoch": epoch, **fields,
        }
    )


class TestEscrowLedger:
    def test_ids_are_deterministic_per_epoch(self):
        ledger = EscrowLedger(2)
        assert ledger.next_transfer_id(0) == "x2-0-0"
        assert ledger.next_transfer_id(0) == "x2-0-1"
        assert ledger.next_transfer_id(1) == "x2-1-0"

    def test_prepare_settle_abort_lifecycle(self):
        ledger = EscrowLedger(0)
        ledger.prepare(record("a"))
        ledger.prepare(record("b"))
        ledger.mark_settled("a")
        ledger.mark_aborted("b", "pool not on shard")
        assert ledger.counts() == {"prepared": 0, "settled": 1, "aborted": 1}
        assert ledger.records["b"] == (
            record("b"), "aborted", "pool not on shard"
        )

    def test_double_prepare_rejected(self):
        ledger = EscrowLedger(0)
        ledger.prepare(record("a"))
        with pytest.raises(EscrowError, match="already prepared"):
            ledger.prepare(record("a"))

    def test_double_resolution_rejected(self):
        ledger = EscrowLedger(0)
        ledger.prepare(record("a"))
        ledger.mark_settled("a")
        with pytest.raises(EscrowError, match="already settled"):
            ledger.mark_aborted("a", "late abort")

    def test_prepared_in_orders_by_id(self):
        ledger = EscrowLedger(0)
        ledger.prepare(record("x0-0-1", epoch=0))
        ledger.prepare(record("x0-0-0", epoch=0))
        ledger.prepare(record("x0-1-0", epoch=1))
        assert [r[0] for r in ledger.prepared_in(0)] == [
            "x0-0-0", "x0-0-1",
        ]

    def test_double_digit_sequences_stay_fifo(self):
        """Regression: ids sort numerically, not lexicographically."""
        from repro.sharding.escrow import transfer_sort_key

        ledger = EscrowLedger(0)
        for _ in range(12):
            ledger.prepare(record(ledger.next_transfer_id(0), epoch=0))
        sequence = [r[0] for r in ledger.prepared_in(0)]
        assert sequence == [f"x0-0-{i}" for i in range(12)]
        # Malformed ids sort after well-formed ones instead of crashing.
        assert transfer_sort_key("x0-0-2") < transfer_sort_key("x0-0-10")
        assert transfer_sort_key("weird") > transfer_sort_key("x9-9-9")

    def test_prepared_in_matches_a_full_scan(self):
        """Return legs prepared out of id order across interleaved epochs
        come back exactly as a scan of the whole history orders them."""
        from repro.sharding.escrow import transfer_sort_key

        ledger = EscrowLedger(0)
        for tid, epoch in (
            ("x0-1-2", 1), ("x0-0-10", 0), ("x0-1-0", 1), ("x0-0-2", 0),
            ("x0-2-0", 2), ("x0-1-1", 1), ("x0-0-0", 0),
        ):
            ledger.prepare(record(tid, epoch=epoch, dest_pool=""))
        # A transfer another shard sourced is never this shard's prepare.
        ledger.prepare(record("x1-1-0", epoch=1, source_shard=1))
        for epoch in range(4):
            scan = sorted(
                (
                    row for row, _, _ in ledger.records.values()
                    if row[7] == epoch and row[2] == 0
                ),
                key=lambda r: transfer_sort_key(r[0]),
            )
            assert ledger.prepared_in(epoch) == scan
            assert all(
                row is ledger.records[row[0]][0]
                for row in ledger.prepared_in(epoch)
            )
        assert [r[0] for r in ledger.prepared_in(1)] == [
            "x0-1-0", "x0-1-1", "x0-1-2",
        ]
