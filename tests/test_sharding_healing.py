"""Heal or fail: every worker kill point of a small sharded run.

A lost scheduler worker ends a run in exactly one of two ways.  A
transient kill (the worker dies once) is healed by respawn + replay and
the run is bit-identical to serial; a persistent kill (every respawn
dies at the same message) exhausts the respawn budget and
``ShardedSystem.run`` raises ``WorkerLostError`` with every worker
reaped.  Both are checked at every (slot, message) of the run.
"""

import multiprocessing

import pytest

from repro.core.system import AmmBoostConfig
from repro.errors import WorkerLostError
from repro.sharding import ShardedConfig, ShardedSystem

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="scheduler workers need fork",
)

SLOTS = 2
#: Messages each worker is sent: 3 traffic + 2 drain epochs, then finish.
MESSAGES = 6


def run(jobs: int):
    system = ShardedSystem(
        ShardedConfig(
            num_shards=2,
            num_pools=4,
            cross_shard_ratio=0.3,
            jobs=jobs,
            base=AmmBoostConfig(
                committee_size=8,
                miner_population=16,
                num_users=8,
                daily_volume=200_000,
                rounds_per_epoch=4,
                seed=3,
            ),
        )
    )
    return system, system.run(num_epochs=3)


@pytest.fixture(scope="module")
def serial():
    system, report = run(jobs=1)
    return system, report


def test_enumeration_covers_every_message(serial):
    system, report = serial
    assert len(system.epoch_records) + 1 == MESSAGES
    assert report.transfers["settled"] > 0  # cross-shard traffic flows


@pytest.mark.parametrize("message", range(MESSAGES))
@pytest.mark.parametrize("slot", range(SLOTS))
def test_transient_kill_heals_bit_identically(serial, kill_worker, slot, message):
    kill_worker(slot, message)
    _, healed = run(jobs=SLOTS)
    _, expected = serial
    assert healed.digest() == expected.digest()
    assert healed.transfers == expected.transfers


@pytest.mark.parametrize("message", range(MESSAGES))
@pytest.mark.parametrize("slot", range(SLOTS))
def test_persistent_kill_raises_with_workers_reaped(kill_worker, slot, message):
    kill_worker(slot, message, persistent=True)
    with pytest.raises(WorkerLostError, match=f"worker {slot} "):
        run(jobs=SLOTS)
    assert multiprocessing.active_children() == []
