"""The shard boundary's wire format: plain tuples, pinned outcomes.

Per-transfer data crosses the scheduler pipes as exact tuples of
``str``/``int``/``bool`` (``TransferRow`` prepares, ``("credit", row)`` /
``("resolve", ...)`` inbox items).  These tests pin what that format must
preserve and guard against a dataclass creeping back onto the wire:

* the pins were taken on the dataclass wire format this one replaced —
  the run digests, registry counts and journal sizes must not move;
* a row survives ``pickle`` with every field and every field type;
* every per-transfer item a ``jobs=2`` run posts or receives is an exact
  tuple of atomics (a dataclass pickles 4-6x slower and stays tracked
  by the cyclic GC in the coordinator).
"""

import multiprocessing
import pickle
from types import SimpleNamespace

import pytest
from hypothesis import example, given, strategies as st

from repro.core.system import AmmBoostConfig
from repro.errors import EscrowError
from repro.faults import FaultPlan, Rollback, ShardFault
from repro.sharding import ShardedConfig, ShardedSystem
from repro.sharding.escrow import transfer_row
from repro.sharding.journal import RelockEscrow, ResyncResolve
from repro.sharding.router import CrossShardRouter, TransferRegistry

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()

#: The exact field types of a ``TransferRow``, in order.
ROW_TYPES = (str, str, int, int, str, int, int, int, bool, bool, int, bool)
#: Boundary directives that stay dataclasses: rare, not per-transfer.
DIRECTIVES = (RelockEscrow, ResyncResolve)

OFFLINE_DEST = (ShardFault(shard=1, offline_epochs=frozenset({1, 2})),)
FORK = (ShardFault(shard=0, plan=FaultPlan((Rollback(epoch=2, depth=2),))),)


def small_base() -> AmmBoostConfig:
    return AmmBoostConfig(
        committee_size=8,
        miner_population=16,
        num_users=10,
        daily_volume=400_000,
        rounds_per_epoch=6,
        seed=0,
    )


def run(jobs: int, faults=()):
    config = ShardedConfig(
        num_shards=2,
        num_pools=4,
        base=small_base(),
        cross_shard_ratio=0.3,
        return_ratio=0.5,
        jobs=jobs,
        shard_faults=tuple(faults),
    )
    system = ShardedSystem(config)
    return system, system.run(num_epochs=4)


PLAIN_DIGEST = "216efd8540eb130cb5360b66044d4116468dd31756b44031471ffcffb253b91c"

#: name -> (faults, digest, registry counts, abort codes, journal counts,
#: journal length), all recorded on the dataclass wire format.
PINS = {
    "plain": (
        (),
        PLAIN_DIGEST,
        {"prepared": 0, "settled": 236, "aborted": 0},
        {},
        {"rollbacks": 0, "relocks": 0, "resyncs": 0},
        708,
    ),
    "offline_destination": (
        OFFLINE_DEST,
        "67f339d15a63579ad2781385ad9c3697676d2f7e755b5cbc195793ff55927072",
        {"prepared": 0, "settled": 94, "aborted": 54},
        {"dest_partitioned": 54},
        {"rollbacks": 0, "relocks": 0, "resyncs": 0},
        390,
    ),
    # The fork's 23 relocks are rebuilt from registry rows; the digest
    # equals the unforked run's because every compensation restores the
    # erased escrow exactly.
    "mainchain_fork": (
        FORK,
        PLAIN_DIGEST,
        {"prepared": 0, "settled": 236, "aborted": 0},
        {},
        {"rollbacks": 1, "relocks": 23, "resyncs": 0},
        731,
    ),
}


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("name", sorted(PINS))
def test_outcomes_pinned(name, jobs):
    if jobs > 1 and not HAVE_FORK:
        pytest.skip("fork start method unavailable")
    faults, digest, counts, codes, journal, journal_len = PINS[name]
    system, report = run(jobs, faults)
    assert report.digest() == digest
    assert system.registry.counts() == counts
    assert system.registry.abort_codes() == codes
    assert system.journal.counts() == journal
    assert len(system.journal) == journal_len


@given(
    transfer_id=st.text(max_size=24),
    user=st.text(max_size=24),
    source_shard=st.integers(0, 2**16),
    dest_shard=st.integers(-1, 2**16),
    # "" is a return leg's destination pool.
    dest_pool=st.one_of(st.just(""), st.text(max_size=24)),
    amount0=st.integers(0, 2**255),
    amount1=st.integers(0, 2**255),
    epoch=st.integers(0, 2**31),
    zero_for_one=st.booleans(),
    exact_input=st.booleans(),
    swap_amount=st.integers(0, 2**255),
    return_output=st.booleans(),
)
@example(
    transfer_id="x1-3-7", user="Zoë-ユーザー", source_shard=1, dest_shard=0,
    dest_pool="", amount0=2**255, amount1=0, epoch=3, zero_for_one=False,
    exact_input=False, swap_amount=0, return_output=True,
)
def test_row_round_trips_through_pickle(**fields):
    built = transfer_row(**fields)
    row = pickle.loads(pickle.dumps(built))
    assert type(row) is tuple and row == built
    assert tuple(type(value) for value in row) == ROW_TYPES
    assert transfer_row(*row) == built


def assert_row(row) -> None:
    assert type(row) is tuple
    assert tuple(type(value) for value in row) == ROW_TYPES


def assert_inbox_item(item) -> None:
    if isinstance(item, DIRECTIVES):
        if isinstance(item, RelockEscrow):
            assert_row(item.transfer)
        return
    assert type(item) is tuple, f"{type(item).__name__} on the wire"
    if item[0] == "credit":
        assert len(item) == 2
        assert_row(item[1])
    else:
        assert tuple(type(value) for value in item) == (
            str, str, bool, str, str,
        )
        assert item[0] == "resolve"


@pytest.mark.skipif(not HAVE_FORK, reason="fork start method unavailable")
def test_per_transfer_wire_items_are_plain_tuples():
    system, _ = run(2, OFFLINE_DEST + FORK)
    seen = {"credit": 0, "resolve": 0, "relock": 0, "prepare": 0}
    # The replay log keeps the bytes each message went down the pipe as.
    for slot_messages in system.scheduler._sent:
        for message in map(pickle.loads, slot_messages):
            if message[0] != "epoch":
                continue
            for inbox in message[3].values():
                for item in inbox:
                    assert_inbox_item(item)
                    if isinstance(item, RelockEscrow):
                        seen["relock"] += 1
                    elif type(item) is tuple:
                        seen[item[0]] += 1
    # The records below came back through the pipes.
    for records in system.epoch_records:
        for record in records.values():
            assert type(record.prepares) is list
            for row in record.prepares:
                assert_row(row)
                seen["prepare"] += 1
    assert all(seen.values()), seen


def test_duplicate_prepare_is_an_escrow_error():
    registry = TransferRegistry(
        CrossShardRouter({"pool-0": 0, "pool-1": 1}, num_shards=2)
    )
    row = transfer_row(
        transfer_id="x0-0-0", user="alice", source_shard=0, dest_shard=1,
        dest_pool="pool-1", amount0=5, amount1=0, epoch=0, swap_amount=5,
    )
    registry.add_prepares([row])
    with pytest.raises(EscrowError, match="x0-0-0 prepared twice"):
        registry.add_prepares([row])
    registry.instructions_for(frozenset())
    assert not registry.has_pending()  # moved to the completed map
    with pytest.raises(EscrowError, match="x0-0-0 prepared twice"):
        registry.add_prepares([row])


def test_shard_refuses_an_instruction_it_does_not_know():
    """A per-transfer object sent in place of a tagged tuple fails
    loudly at the shard instead of being skipped."""
    system = ShardedSystem(
        ShardedConfig(num_shards=2, base=small_base(), cross_shard_ratio=0.0)
    )
    stray = SimpleNamespace(
        transfer=transfer_row(
            transfer_id="x1-0-0", user="alice", source_shard=1, dest_shard=0,
            dest_pool="pool-0", amount0=5, amount1=0, epoch=0,
        )
    )
    with pytest.raises(EscrowError, match="cannot apply instruction"):
        system.scheduler.shard(0)._apply_instructions([stray])
