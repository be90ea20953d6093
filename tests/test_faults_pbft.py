"""PBFT liveness/safety regressions under injected faults.

The satellite suite of the fault engine: crash-then-recover leaders cost
exactly one view change, partitions within the ``f`` budget never block
commit, larger cuts block until healed, and the epoch layer's view-change
charge cross-checks against the message-level engine through
:class:`~repro.sidechain.timing.AgreementTimeModel` where sizes overlap.
"""

from dataclasses import asdict

import pytest

from repro import constants
from repro.core.system import AmmBoostConfig, AmmBoostSystem
from repro.crypto.groups import SchnorrGroup
from repro.crypto.keys import generate_keypair
from repro.faults import (
    Corrupt,
    Crash,
    Delay,
    FaultDriver,
    FaultPlan,
    Partition,
    SyncWithhold,
    ViewChangeBurst,
)
from repro.sidechain.pbft import PbftConfig, PbftRound
from repro.sidechain.timing import AgreementTimeModel
from repro.simulation.events import EventScheduler
from repro.simulation.network import Network
from repro.simulation.rng import DeterministicRng
from tests.pbft_calibration import measure_agreement_time

#: The real 1536-bit group costs ~7 ms per verification; the small test
#: group keeps multi-round fault tests fast without changing semantics.
FAST_GROUP = SchnorrGroup.small_test_group()
MEMBERS = [f"m{i}" for i in range(8)]  # 3f + 2 with f = 2
F = constants.committee_fault_tolerance(len(MEMBERS))
QUORUM = constants.committee_quorum(len(MEMBERS))
TIMEOUT = 2.0


def run_with_plan(plan, seed=1, members=MEMBERS, timeout=TIMEOUT, max_time=120.0):
    keypairs = {
        m: generate_keypair(f"{seed}/{m}", group=FAST_GROUP) for m in members
    }
    scheduler = EventScheduler()
    network = Network(scheduler, DeterministicRng(seed))
    driver = FaultDriver(plan, rng=DeterministicRng(f"{seed}/faults"))
    network.install_faults(driver)
    pbft = PbftRound(
        PbftConfig(
            members=members,
            quorum=constants.committee_quorum(len(members)),
            view_timeout=timeout,
            max_views=32,
        ),
        network,
        scheduler,
        keypairs,
        proposer_fn=lambda view: {"block": view},
        validator=lambda p: isinstance(p, dict),
        faults=driver,
    )
    pbft.run_to_completion(max_time=max_time)
    scheduler.run(max_events=100_000)
    return pbft


def assert_safe(pbft):
    digests = {digest for _, digest, _ in pbft.decisions().values()}
    assert len(digests) <= 1, f"conflicting commits: {pbft.decisions()}"


# -- crash / recover -----------------------------------------------------------


def test_crash_then_recover_leader_costs_exactly_one_view_change():
    plan = FaultPlan((Crash(start=0.0, node="m0", end=3 * TIMEOUT),))
    pbft = run_with_plan(plan)
    outcome = pbft.outcome
    assert outcome.decided
    assert outcome.view == 1
    assert outcome.view_changes == 1
    # The commit lands right after the single timeout, not several.
    assert TIMEOUT < outcome.decided_at < 2 * TIMEOUT
    assert_safe(pbft)


def test_recovered_node_rejoins_and_decides_when_commit_happens_later():
    """m0 is back before the partition heals, so it sees the late commit."""
    plan = FaultPlan(
        (
            Crash(start=0.0, node="m0", end=2.0),
            Partition(start=0.0, end=9.0, members=frozenset(MEMBERS[:F + 1])),
        )
    )
    pbft = run_with_plan(plan)
    assert pbft.outcome.decided
    assert pbft.outcome.decided_at > 9.0
    assert "m0" in pbft.decisions()
    assert_safe(pbft)


def test_crashed_forever_node_does_not_block_the_rest():
    plan = FaultPlan((Crash(start=0.0, node="m3"),))
    pbft = run_with_plan(plan)
    assert pbft.outcome.decided
    assert pbft.outcome.view == 0
    decided = pbft.decisions()
    assert "m3" not in decided
    assert len(decided) == len(MEMBERS) - 1
    assert_safe(pbft)


def test_mid_protocol_crash_of_a_voter_within_budget_still_commits():
    plan = FaultPlan(
        (
            Crash(start=0.0, node="m2", end=30.0),
            Crash(start=0.0, node="m5", end=30.0),
        )
    )
    pbft = run_with_plan(plan)
    # 8 - 2 = 6 = 2f + 2: exactly quorum remains.
    assert pbft.outcome.decided
    assert pbft.outcome.view == 0
    assert_safe(pbft)


# -- partitions ----------------------------------------------------------------


@pytest.mark.parametrize("isolated", [1, F])
def test_partition_isolating_at_most_f_members_never_blocks_commit(isolated):
    heal_at = 50.0
    plan = FaultPlan(
        (Partition(start=0.0, end=heal_at, members=frozenset(MEMBERS[:isolated])),)
    )
    pbft = run_with_plan(plan)
    outcome = pbft.outcome
    assert outcome.decided
    assert outcome.decided_at < heal_at, "commit must not wait for the heal"
    # The cut includes the view-0 leader, so it costs view changes — at
    # most one per isolated leader — but never liveness.
    assert outcome.view <= isolated
    assert_safe(pbft)


def test_partition_isolating_more_than_f_blocks_until_healed():
    heal_at = 9.0
    plan = FaultPlan(
        (Partition(start=0.0, end=heal_at, members=frozenset(MEMBERS[:F + 1])),)
    )
    pbft = run_with_plan(plan)
    outcome = pbft.outcome
    assert outcome.decided, "healing must restore liveness"
    assert outcome.decided_at > heal_at
    # After the heal every member catches up — including the isolated ones.
    assert len(pbft.decisions()) == len(MEMBERS)
    assert_safe(pbft)


def test_partition_of_non_leaders_is_invisible_to_the_commit_path():
    plan = FaultPlan(
        (Partition(start=0.0, end=50.0, members=frozenset({"m6", "m7"})),)
    )
    pbft = run_with_plan(plan)
    assert pbft.outcome.decided
    assert pbft.outcome.view == 0
    assert_safe(pbft)


# -- cross-check with the epoch-level timing model -----------------------------


def test_epoch_view_change_charge_matches_calibrated_model():
    """The epoch layer charges exactly ``views * t(c)`` through its model."""
    views = 3
    plan = FaultPlan((ViewChangeBurst(epoch=0, round_index=1, views=views),))
    system = AmmBoostSystem(
        AmmBoostConfig(
            committee_size=8,
            miner_population=16,
            num_users=8,
            daily_volume=100_000,
            rounds_per_epoch=4,
            seed=5,
        ),
        fault_plan=plan,
    )
    predicted = views * system.timing.agreement_time(8)
    system.run(num_epochs=1)
    assert system.faults.total_fault_delay() == pytest.approx(predicted)
    records = [r for r in system.faults.log if r.kind == "view_change"]
    assert len(records) == 1 and records[0].round_index == 1


def test_message_level_agreement_overlaps_timing_model_extrapolation():
    """Where the two fidelities overlap (small committees), they agree on
    the order of magnitude: the Table XII fit extrapolated down vs the
    message-level engine measured directly."""
    model = AgreementTimeModel()
    for size in (5, 8):
        measured = measure_agreement_time(size, seed=0, runs=1)
        predicted = model.agreement_time(size)
        assert predicted > 0
        assert 0.1 < measured / predicted < 10.0, (size, measured, predicted)


def test_retry_rearm_survives_entering_a_new_view():
    """Regression: the retry timer must follow the node into new views.

    Five members: m4 crashed forever (so all four live votes are needed
    for every quorum), three silent leaders forcing three sequential view
    changes, and m2's inbound traffic delayed early on so it enters view
    1 late.  m2's view-1 timeout then fires *after* the others' view-2
    votes arrived — its own vote completes the quorum inside the timeout
    handler.  The old re-arm then installed a timer bound to stale view
    1, killing m2's view-2 timeout: only three of the four needed view-3
    votes could ever exist, a permanent hang (verified against the old
    code: it never decides).
    """
    members = [f"m{i}" for i in range(5)]
    plan = FaultPlan(
        (
            Crash(start=0.0, node="m4"),
            Corrupt(node="m0", silent_as_leader=True),
            Corrupt(node="m1", silent_as_leader=True),
            Corrupt(node="m2", silent_as_leader=True),
            Delay(start=0.0, end=2.5, extra=0.9, recipient="m2"),
        )
    )
    pbft = run_with_plan(plan, members=members, max_time=120.0)
    assert pbft.outcome.decided
    assert pbft.outcome.view == 3
    assert_safe(pbft)


def _epoch_config(**overrides) -> AmmBoostConfig:
    defaults = dict(
        committee_size=8, miner_population=16, num_users=8,
        daily_volume=100_000, rounds_per_epoch=4, seed=5,
    )
    defaults.update(overrides)
    return AmmBoostConfig(**defaults)


def test_fault_plan_does_not_mutate_callers_config():
    """Regression: withheld-sync epochs must not leak into a shared config."""
    config = _epoch_config()
    before = asdict(config)
    system = AmmBoostSystem(config, fault_plan=FaultPlan((SyncWithhold(epoch=1),)))
    system.run(num_epochs=2)
    assert asdict(config) == before
    assert system.faults.sync_withheld(1)
    assert not system.faults.sync_withheld(0)
    # A second deployment on the same config withholds nothing.
    assert not AmmBoostSystem(config).faults.sync_withheld(1)


def test_fault_plan_applies_on_any_default_pipeline():
    """An explicitly passed default pipeline applies a plan whole.

    The summary round ends after the stretched meta-block rounds, so a
    run is the same whether the pipeline is implicit or explicit.
    """
    from repro.core.phases import default_epoch_phases

    plan = FaultPlan(
        (
            ViewChangeBurst(epoch=0, round_index=1, views=3),
            ViewChangeBurst(epoch=1, round_index=2, views=1),
        )
    )

    def run(system):
        contexts, roots = [], {}
        run_epoch, append = system.run_epoch, system.ledger.append_meta_block

        def recording_epoch(epoch, inject):
            contexts.append(run_epoch(epoch, inject))
            return contexts[-1]

        def recording_append(block):
            roots.setdefault(block.epoch, []).append(block.tx_root)
            append(block)

        system.run_epoch = recording_epoch
        system.ledger.append_meta_block = recording_append
        metrics = system.run(num_epochs=2)
        log = [asdict(record) for record in system.faults.log]
        return contexts[:2], roots, log, metrics.summary()

    implicit = run(AmmBoostSystem(_epoch_config(), fault_plan=plan))
    explicit_system = AmmBoostSystem(
        _epoch_config(), epoch_phases=default_epoch_phases(), fault_plan=plan
    )
    explicit = run(explicit_system)
    assert explicit[1:] == implicit[1:]
    assert [r["kind"] for r in explicit[2]] == ["view_change", "view_change"]

    duration = explicit_system.config.round_duration
    agreement = explicit_system.timing.agreement_time(8)
    for ctx, views in zip(explicit[0], (3, 1)):
        assert ctx.fault_delay == pytest.approx(views * agreement)
        assert ctx.summary_end == (
            ctx.epoch_start + (ctx.rounds_used + 1) * duration + ctx.fault_delay
        )


def test_view_change_burst_on_the_summary_round_is_rejected():
    """A burst aimed at the summary round (or beyond) could never fire."""
    from repro.errors import ConfigurationError

    for round_index in (3, 7):
        plan = FaultPlan((ViewChangeBurst(epoch=0, round_index=round_index),))
        with pytest.raises(ConfigurationError, match="ViewChangeBurst") as info:
            AmmBoostSystem(_epoch_config(), fault_plan=plan)
        assert "last meta-block round of a 4-round epoch is 2" in str(info.value)
    # The last meta-block round itself is a valid target.
    plan = FaultPlan((ViewChangeBurst(epoch=0, round_index=2),))
    system = AmmBoostSystem(_epoch_config(), fault_plan=plan)
    system.run(num_epochs=1)
    assert [r.round_index for r in system.faults.log] == [2]


def test_message_only_plan_is_rejected_at_the_epoch_layer():
    """A plan the epoch system cannot apply at all must fail loudly."""
    from repro.errors import ConfigurationError

    config = AmmBoostConfig(
        committee_size=8, miner_population=16, num_users=8,
        daily_volume=100_000, rounds_per_epoch=4, seed=5,
    )
    plan = FaultPlan((Crash(start=0.0, node="miner0"),))
    with pytest.raises(ConfigurationError):
        AmmBoostSystem(config, fault_plan=plan)


def test_view_change_cost_message_level_is_timeout_plus_agreement():
    """A crashed leader costs ~one timeout plus one agreement — the
    quantity the epoch layer approximates with the model's t(c)."""
    baseline = run_with_plan(FaultPlan(), seed=9).outcome.decided_at
    crashed = run_with_plan(
        FaultPlan((Crash(start=0.0, node="m0", end=30.0),)), seed=9
    ).outcome.decided_at
    assert crashed - baseline == pytest.approx(TIMEOUT, rel=0.3)
