"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

import pytest

from repro.amm.fixed_point import encode_price_sqrt
from repro.amm.pool import Pool, PoolConfig
from repro.core.phases import EpochPhase
from repro.core.system import AmmBoostConfig, AmmBoostSystem
from repro.core.transactions import SwapTx
from repro.faults import FaultPlan, SyncWithhold
from repro.simulation.clock import SimClock
from repro.simulation.events import EventScheduler
from repro.simulation.network import Network
from repro.simulation.rng import DeterministicRng


@pytest.fixture
def rng():
    return DeterministicRng(1234)


@pytest.fixture
def scheduler():
    return EventScheduler(SimClock())


@pytest.fixture
def network(scheduler, rng):
    return Network(scheduler, rng)


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(cls, "name")`` wraps the classmethod ``cls.name`` for
    the test and returns the list its argument tuples are appended to —
    exact operation counts pin a complexity without a clock."""

    def install(cls, name: str) -> list[tuple]:
        calls: list[tuple] = []
        real = getattr(cls, name).__func__

        def counting(klass, *args):
            calls.append(args)
            return real(klass, *args)

        monkeypatch.setattr(cls, name, classmethod(counting))
        return calls

    return install


@pytest.fixture
def kill_worker(monkeypatch, tmp_path):
    """``kill_worker(slot, message, persistent=False)`` hard-exits a forked
    shard-scheduler worker: the worker in ``slot`` calls ``os._exit(1)``
    just before serving its ``message``-th message (0-based, counting
    the replay a respawned worker runs first).

    The worker-side ``_serve_message`` is patched in this process, so
    every worker forked afterwards inherits the patch; the coordinator
    itself never dies.  A transient kill fires once — a marker file
    remembers it across the respawn — a persistent one every time.
    """
    from repro.sharding import scheduler

    coordinator = os.getpid()
    serve = scheduler._serve_message

    def install(slot: int, message: int, persistent: bool = False) -> None:
        marker = tmp_path / f"killed-{slot}-{message}"
        served = [0]  # per process: each fork starts from the parent's 0

        def killing(shards, msg):
            index = served[0]
            served[0] += 1
            # Slots own shards round-robin, so slot s's lowest shard is s.
            if (
                os.getpid() != coordinator
                and min(shards) == slot
                and index == message
                and (persistent or not marker.exists())
            ):
                marker.touch()
                os._exit(1)
            return serve(shards, msg)

        monkeypatch.setattr(scheduler, "_serve_message", killing)

    return install


@pytest.fixture
def pool():
    """A fresh 0.3% pool at price 1."""
    p = Pool(PoolConfig(token0="A", token1="B", fee_pips=3000))
    p.initialize(encode_price_sqrt(1, 1))
    return p


@pytest.fixture
def funded_pool(pool):
    """A pool with one wide liquidity position from 'lp0'."""
    pool.mint("lp0", -60000, 60000, 10**20)
    return pool


def small_system(fault_plan: FaultPlan | None = None, **overrides) -> AmmBoostSystem:
    """An ammBoost deployment small enough for per-test runs."""
    defaults = dict(
        committee_size=8,
        miner_population=16,
        num_users=10,
        daily_volume=200_000,
        rounds_per_epoch=6,
        seed=7,
    )
    defaults.update(overrides)
    return AmmBoostSystem(AmmBoostConfig(**defaults), fault_plan=fault_plan)


class EndlessBacklog(EpochPhase):
    """Leaves one fresh swap queued after every epoch, so no drain ends."""

    def run(self, system, ctx) -> None:
        tx = SwapTx(
            user=system.population.addresses[0], amount=10**12, tx_id=system.ids()
        )
        tx.submitted_at = system.clock.now
        system.queue.append(tx)


def withheld_syncs(*epochs: int) -> FaultPlan:
    """A plan whose leaders withhold the Sync call in ``epochs``."""
    return FaultPlan(tuple(SyncWithhold(epoch) for epoch in epochs))


@pytest.fixture
def system():
    return small_system()
