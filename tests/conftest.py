"""Shared fixtures for the test suite."""

from __future__ import annotations

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
