"""The position path's retained history: plain rows, pinned outputs.

Summary-blocks, unsynced summaries and confirmed Sync payloads keep one
row per touched position for every epoch a deployment has run, and the
pool keys every live position.  Those rows and keys are exact tuples of
``str``/``int``/``bool``, which CPython's cyclic collector untracks once
it has seen them, so a full collection does not rescan the history.
The pinned digests hold the run's outputs fixed across that layout.
"""

from __future__ import annotations

import gc
import hashlib

import repro.core.transactions as core_tx
import repro.mainchain.transactions as main_tx
from repro.core.executor import PositionRecord
from repro.core.system import AmmBoostConfig, AmmBoostSystem
from repro.core.token_bank import PositionEntry
from repro.workload.distribution import TrafficDistribution


def positions_deployment(epochs: int, daily_volume: int) -> AmmBoostSystem:
    """The ``epoch_positions`` shape (20/40/20/20 swap/mint/burn/collect)
    at test size, run for ``epochs`` traffic epochs."""
    core_tx.reset_tx_counter()
    main_tx.reset_tx_counter()
    system = AmmBoostSystem(
        AmmBoostConfig(
            seed=11,
            committee_size=8,
            num_users=40,
            rounds_per_epoch=6,
            daily_volume=daily_volume,
        ),
        TrafficDistribution.from_percentages(20, 40, 20, 20),
    )
    system.run(epochs)
    return system


def _sha256(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode())
    return h.hexdigest()


def test_run_digests_are_pinned():
    system = positions_deployment(5, 1_000_000)
    records = system._confirmed_syncs + system._pending_syncs
    assert [r.epochs for r in records] == [[0], [1], [2], [3], [4]]
    syncs = hashlib.sha256()
    for record in records:
        syncs.update(record.payload.digest())
    bank = _sha256(
        (pid, e.position_id, e.owner, e.tick_lower, e.tick_upper, e.liquidity,
         e.fees_owed0, e.fees_owed1)
        for pid, e in sorted(system.token_bank.positions.items())
    )
    executor = _sha256(
        (pid, r.position_id, r.owner, r.tick_lower, r.tick_upper, r.liquidity)
        for pid, r in sorted(system.executor.positions.items())
    )
    assert len(system.token_bank.positions) == 279
    # Captured when summary rows were still dataclasses: the row layout
    # must not move what a run signs, syncs or keeps.
    assert (syncs.hexdigest(), bank, executor) == (
        "43559bec362290cd55527d06f9e56ad07ad3667b8ca0fd66e4378aaefffc5586",
        "941959e5d0f2cce821326d3c0bef6273814025809c58285c80a28690291ced70",
        "fdc541c733b140d4a84e735cda0b4bf11746aa12dd6c53b52cce999698160c1c",
    )


def test_position_path_history_is_untracked():
    system = positions_deployment(3, 1_000_000)
    gc.collect()
    summaries = [
        summary
        for record in system._confirmed_syncs + system._pending_syncs
        for summary in record.payload.summaries
    ] + list(system._unsynced)
    blocks = list(system.ledger.summary_blocks.values())
    assert len(blocks) == 3 and len(summaries) == 3
    payouts = [row for x in blocks + summaries for row in x.payouts]
    positions = [row for x in blocks + summaries for row in x.positions]
    keys = list(system.pool.positions)
    assert positions and keys
    for rows, width in ((payouts, 3), (positions, 9), (keys, 3)):
        for row in rows:
            assert type(row) is tuple and len(row) == width, row
            assert all(type(f) in (str, int, bool) for f in row), row
            assert not gc.is_tracked(row), row
    bank_entry = next(iter(system.token_bank.positions.values()))
    executor_record = next(iter(system.executor.positions.values()))
    assert type(bank_entry) is PositionEntry
    assert type(executor_record) is PositionRecord
    assert not hasattr(bank_entry, "__dict__")
    assert not hasattr(executor_record, "__dict__")
