"""Settled bridge history: exact rows the cyclic GC never scans.

A sharded run keeps every cross-shard transfer it settled: the
coordinator's registry keeps each completed transfer, and each shard's
token bank and escrow ledger keep one entry per transfer.  Those entries
are exact tuples of ``str``/``int``/``bool`` (or of such tuples), which
CPython's cyclic collector untracks once it has seen them, so a full
collection does not rescan the history.  A transfer's mutable registry
entry lives only while the transfer has work left.

A row that holds a row is untracked by the first collection that finds
the inner row already untracked.  When both are born between two
collections, that collection may visit the outer row first, so the test
collects twice.
"""

from __future__ import annotations

import gc

from repro.core.system import AmmBoostConfig
from repro.sharding import ShardedConfig, ShardedSystem
from repro.sharding.router import InFlightTransfer

ATOMS = (str, int, bool)


def bridge_deployment() -> ShardedSystem:
    system = ShardedSystem(
        ShardedConfig(
            num_shards=2,
            num_pools=4,
            base=AmmBoostConfig(
                committee_size=8,
                miner_population=16,
                num_users=10,
                daily_volume=400_000,
                rounds_per_epoch=6,
                seed=0,
            ),
            cross_shard_ratio=0.3,
            jobs=1,
        )
    )
    system.run(num_epochs=3)
    return system


def assert_atoms(row, width: int) -> None:
    assert type(row) is tuple and len(row) == width, row
    assert all(type(field) in ATOMS for field in row), row


def test_bridge_history_is_untracked():
    live_before = {
        id(o) for o in gc.get_objects() if type(o) is InFlightTransfer
    }
    system = bridge_deployment()
    gc.collect()
    gc.collect()

    registry = system.registry
    assert not registry.entries
    assert registry.completed
    for transfer, settle, reason, code in registry.completed.values():
        assert_atoms(transfer, 12)
        assert type(settle) is bool and type(reason) is str
        assert type(code) is str
    rows = list(registry.completed.values())

    for index in range(2):
        shard = system.scheduler.shard(index)
        escrows = list(shard.system.token_bank.escrows.values())
        ledger = list(shard.ledger.records.values())
        assert escrows and ledger
        for escrow in escrows:
            assert_atoms(escrow, 6)
        for record in ledger:
            assert type(record) is tuple and len(record) == 3
            transfer, status, reason = record
            assert_atoms(transfer, 12)
            # One row per transfer: the coordinator (in-process at
            # jobs=1) keeps the very row the shard prepared.
            assert transfer is registry.completed[transfer[0]][0]
        rows += escrows + ledger

    tracked = [row for row in rows if gc.is_tracked(row)]
    assert not tracked, tracked[:3]
    leaked = [
        o
        for o in gc.get_objects()
        if type(o) is InFlightTransfer and id(o) not in live_before
    ]
    assert not leaked, leaked[:3]
