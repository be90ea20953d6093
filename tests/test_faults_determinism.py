"""Determinism: the same FaultPlan + seed is bit-identical everywhere.

The PR 2 runner guarantee extended to fault scenarios: the same plan and
seed produce identical output serially, across worker processes, and
across repeated runs — fault schedules derive from
:class:`~repro.simulation.rng.DeterministicRng` substreams, never from
global state.
"""

from repro.core.system import AmmBoostConfig, AmmBoostSystem
from repro.faults import (
    FaultDriver,
    FaultPlan,
    Rollback,
    SyncWithhold,
    ViewChangeBurst,
)
from repro.scenarios.faults import (
    crash_churn_spec,
    delta_sweep_spec,
    interrupted_recovery_spec,
    partition_heal_spec,
)
from repro.scenarios.runner import ScenarioRunner
from repro.simulation.rng import DeterministicRng
from tests.fault_plans import random_message_plan


def test_fault_scenarios_jobs1_and_jobs4_bit_identical():
    """The acceptance guarantee: --jobs 1 == --jobs 4, byte for byte."""
    specs = [
        partition_heal_spec(),
        crash_churn_spec(),
        delta_sweep_spec(deltas=(0.5, 1.0)),
        interrupted_recovery_spec(),
    ]
    serial = ScenarioRunner(jobs=1).run_many(specs)
    parallel = ScenarioRunner(jobs=4).run_many(specs)
    for spec, a, b in zip(specs, serial, parallel):
        assert not isinstance(a, Exception), (spec.name, a)
        assert not isinstance(b, Exception), (spec.name, b)
        assert a.rows == b.rows, spec.name
        assert a.headers == b.headers
        assert a.notes == b.notes


def test_same_plan_and_seed_yield_identical_system_runs():
    plan = FaultPlan(
        (
            ViewChangeBurst(epoch=0, round_index=1, views=2),
            SyncWithhold(epoch=1),
            Rollback(epoch=2),
        )
    )

    def run():
        config = AmmBoostConfig(
            committee_size=8, miner_population=16, num_users=8,
            daily_volume=150_000, rounds_per_epoch=4, seed=13,
        )
        system = AmmBoostSystem(config, fault_plan=plan)
        metrics = system.run(num_epochs=3)
        return (
            metrics.summary(),
            [(r.epoch, r.kind, r.round_index, r.delay) for r in system.faults.log],
            sorted(system.token_bank.synced_epochs),
        )

    assert run() == run()


def test_generated_plans_are_seed_deterministic():
    members = [f"m{i}" for i in range(8)]
    a = random_message_plan(DeterministicRng("det/1"), members, f=2)
    b = random_message_plan(DeterministicRng("det/1"), members, f=2)
    c = random_message_plan(DeterministicRng("det/2"), members, f=2)
    assert a.events == b.events
    assert a.events != c.events  # different substream, different plan


def test_driver_drop_stream_is_plan_scoped_not_global():
    """Two drivers from the same seed replay identical drop decisions."""
    from repro.faults import Drop
    from repro.simulation.network import Message

    plan = FaultPlan((Drop(start=0.0, end=10.0, fraction=0.5),))

    def decisions(seed):
        driver = FaultDriver(plan, rng=DeterministicRng(seed))
        msg = Message(sender="x:a", recipient="x:b", kind="k", payload=None)
        from repro.simulation.network import NetworkConfig

        config = NetworkConfig()
        return [
            driver.outbound(msg, now=1.0, delay=0.1, config=config) is None
            for _ in range(50)
        ]

    assert decisions("s") == decisions("s")
    assert True in decisions("s") and False in decisions("s")
