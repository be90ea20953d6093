"""Unit tests for the declarative FaultPlan model and its compilation."""

import pytest

from repro.errors import ConfigurationError
from repro.faults import (
    EMPTY_PLAN,
    Corrupt,
    Crash,
    Delay,
    Drop,
    FaultPlan,
    FaultSession,
    Partition,
    Rollback,
    SyncWithhold,
    ViewChangeBurst,
)
from repro.simulation.clock import SimClock


# -- event validation ----------------------------------------------------------


def test_partition_rejects_inverted_window():
    with pytest.raises(ConfigurationError):
        Partition(start=5.0, end=1.0, members=frozenset({"m0"}))


def test_partition_rejects_empty_member_set():
    with pytest.raises(ConfigurationError):
        Partition(start=0.0, end=1.0, members=frozenset())


def test_crash_rejects_recovery_before_start():
    with pytest.raises(ConfigurationError):
        Crash(start=3.0, node="m0", end=1.0)


def test_delay_rejects_negative_extra():
    with pytest.raises(ConfigurationError):
        Delay(start=0.0, end=1.0, extra=-0.5)


def test_drop_rejects_fraction_outside_unit_interval():
    with pytest.raises(ConfigurationError):
        Drop(start=0.0, end=1.0, fraction=1.5)


def test_view_change_burst_needs_at_least_one_view():
    with pytest.raises(ConfigurationError):
        ViewChangeBurst(epoch=0, round_index=0, views=0)


def test_rollback_depth_must_be_positive():
    with pytest.raises(ConfigurationError):
        Rollback(epoch=0, depth=0)


def test_plan_rejects_foreign_event_types():
    with pytest.raises(ConfigurationError):
        FaultPlan(("not-an-event",))


# -- plan queries --------------------------------------------------------------


def _mixed_plan() -> FaultPlan:
    return FaultPlan(
        (
            Partition(start=0.0, end=2.0, members=frozenset({"m1", "m2"})),
            Crash(start=1.0, node="m3", end=4.0),
            Corrupt(node="m4", withhold_votes=True),
            Delay(start=0.0, end=5.0, extra=0.3),
            SyncWithhold(epoch=1),
            ViewChangeBurst(epoch=0, round_index=2, views=2),
            Rollback(epoch=2),
        )
    )


def test_empty_plan_is_empty():
    assert EMPTY_PLAN.is_empty()
    assert not _mixed_plan().is_empty()


def test_layer_split():
    plan = _mixed_plan()
    assert len(plan.message_events()) == 4
    assert len(plan.epoch_events()) == 3


def test_faulty_nodes_covers_partition_crash_and_corruption():
    assert _mixed_plan().faulty_nodes() == frozenset({"m1", "m2", "m3", "m4"})


def test_behaviors_compiled_from_corrupt_events():
    behaviors = _mixed_plan().behaviors()
    assert set(behaviors) == {"m4"}
    assert behaviors["m4"].withhold_votes
    assert not behaviors["m4"].silent_as_leader


def test_budget_validation():
    plan = _mixed_plan()
    members = [f"m{i}" for i in range(8)]
    plan.validate_budget(members, f=4)
    with pytest.raises(ConfigurationError):
        plan.validate_budget(members, f=2)


def test_extend_returns_new_plan():
    plan = FaultPlan()
    extended = plan.extend(SyncWithhold(epoch=0))
    assert plan.is_empty()
    assert len(extended.events) == 1


# -- FaultSession indexing -----------------------------------------------------


def test_session_indexes_epoch_events():
    session = FaultSession(_mixed_plan(), SimClock())
    assert session.sync_withheld(1)
    assert not session.sync_withheld(0)
    assert session.view_changes(0, 2) == 2
    assert session.view_changes(0, 1) == 0
    assert session.rollback_for(2) is not None
    assert session.rollback_for(0) is None


def test_session_merges_bursts_on_the_same_round():
    plan = FaultPlan(
        (
            ViewChangeBurst(epoch=0, round_index=1, views=1),
            ViewChangeBurst(epoch=0, round_index=1, views=2),
        )
    )
    assert FaultSession(plan, SimClock()).view_changes(0, 1) == 3


def test_session_log_and_interrupted_epochs():
    session = FaultSession(EMPTY_PLAN, SimClock())
    assert session.interrupted_epochs() == set()
    session.record(1, "view_change", round_index=0, delay=0.5)
    session.record(2, "rollback")
    assert session.interrupted_epochs() == {1, 2}
    assert session.total_fault_delay() == pytest.approx(0.5)
