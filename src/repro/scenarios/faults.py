"""Fault-injection scenarios: declarative FaultPlans across both layers.

* ``partition_heal`` — message-level PBFT under partitions of growing
  size: isolating up to ``f`` members never blocks commit; isolating
  ``f + 1`` blocks it until the partition heals (liveness recovered by
  re-broadcast view changes);
* ``crash_churn`` — successive leaders crash and recover mid-protocol;
  each crashed leader costs one view change, agreement always lands;
* ``delta_sweep`` — the adversary pushes every message to the Δ bound
  for a sweep of Δ values: agreement time scales with Δ, views do not;
* ``interrupted_recovery`` — epoch-level interruption timelines
  (view-change bursts charged through the
  :class:`~repro.sidechain.timing.AgreementTimeModel`, withheld syncs,
  mainchain forks — alone and stacked) recovered end-to-end by
  mass-sync.

Fault schedules are deterministic: every plan derives from the runner's
per-point :class:`~repro.simulation.rng.DeterministicRng` substream seed,
so tables are bit-identical across runs and ``--jobs`` counts.
"""

from __future__ import annotations

from dataclasses import asdict

from repro import constants
from repro.core.system import AmmBoostConfig, AmmBoostSystem
from repro.crypto.keys import generate_keypair
from repro.faults import (
    Crash,
    Delay,
    FaultDriver,
    FaultPlan,
    Partition,
    Rollback,
    SyncWithhold,
    ViewChangeBurst,
)
from repro.scenarios.spec import ScenarioSpec
from repro.sidechain.pbft import PbftConfig, PbftRound
from repro.simulation.clock import SimClock
from repro.simulation.events import EventScheduler
from repro.simulation.network import Network, NetworkConfig
from repro.simulation.rng import DeterministicRng

#: 3f + 2 with f = 2 — small enough for message-level runs, large enough
#: that partitions of size f and f + 1 behave differently.
_MEMBERS = [f"miner{i}" for i in range(8)]
_F = constants.committee_fault_tolerance(len(_MEMBERS))


def _fault_timeline(plan: FaultPlan) -> list[dict]:
    """The plan's event timeline as JSON-safe dicts.

    Point results flow into the content-addressed artifact store, so the
    fault schedule a row was produced under travels with the row (sets
    become sorted lists — artifact encoding is strict JSON).
    """
    timeline = []
    for event in plan.events:
        record: dict = {"kind": type(event).__name__}
        for field_name, value in asdict(event).items():
            if isinstance(value, (set, frozenset)):
                value = sorted(value)
            record[field_name] = value
        timeline.append(record)
    return timeline


def _run_pbft(
    plan: FaultPlan,
    seed: int,
    view_timeout: float = 2.0,
    network_config: NetworkConfig | None = None,
    max_time: float = 300.0,
):
    """One message-level consensus slot under ``plan``; returns the round."""
    keypairs = {m: generate_keypair(f"{seed}/{m}") for m in _MEMBERS}
    scheduler = EventScheduler(SimClock())
    network = Network(scheduler, DeterministicRng(seed), config=network_config)
    driver = FaultDriver(plan, rng=DeterministicRng(f"{seed}/faults"))
    network.install_faults(driver)
    pbft = PbftRound(
        PbftConfig(
            members=_MEMBERS,
            quorum=constants.committee_quorum(len(_MEMBERS)),
            view_timeout=view_timeout,
            max_views=32,
        ),
        network,
        scheduler,
        keypairs,
        proposer_fn=lambda view: {"meta-block": view},
        validator=lambda proposal: isinstance(proposal, dict),
        faults=driver,
    )
    pbft.run_to_completion(max_time=max_time)
    scheduler.run(max_events=100_000)
    return pbft


# ---------------------------------------------------------------------------
# partition_heal — cuts of growing size, healed mid-protocol
# ---------------------------------------------------------------------------


def partition_heal_point(params) -> dict:
    isolated, heal_at, seed = params["isolated"], params["heal_at"], params["seed"]
    plan = FaultPlan(
        (Partition(start=0.0, end=heal_at, members=frozenset(_MEMBERS[:isolated])),)
    )
    pbft = _run_pbft(plan, seed)
    outcome = pbft.outcome
    blocked = outcome.decided and outcome.decided_at > heal_at
    row = [
        f"{isolated} of {len(_MEMBERS)}",
        heal_at,
        "yes" if outcome.decided else "NO",
        outcome.view,
        round(outcome.decided_at, 3),
        "yes" if blocked else "no",
        len(pbft.decisions()),
    ]
    return {"rows": [row], "fault_timeline": _fault_timeline(plan)}


def partition_heal_spec(heal_at: float = 9.0) -> ScenarioSpec:
    return ScenarioSpec(
        name="partition_heal",
        experiment_id="Extra: Partition/heal",
        title=f"Committee partitions healed mid-protocol (f={_F} of {len(_MEMBERS)})",
        headers=("isolated", "heal at s", "decided", "final view",
                 "agreement s", "waited for heal", "deciders"),
        grid=tuple(
            {"isolated": count, "heal_at": heal_at}
            for count in (1, _F, _F + 1, _F + 2)
        ),
        point=partition_heal_point,
        notes=(
            f"isolating <= f={_F} members leaves a 2f+2 quorum, so commit "
            "never waits for the heal; larger cuts block until healed and "
            "recover through re-broadcast view changes"
        ),
        group="extra",
        derive_seeds=True,
        description="partitions of growing size, healed mid-protocol",
    )


# ---------------------------------------------------------------------------
# crash_churn — successive leaders crash and recover mid-protocol
# ---------------------------------------------------------------------------


def crash_churn_point(params) -> dict:
    crashes, seed = params["crashes"], params["seed"]
    rng = DeterministicRng(f"{seed}/churn")
    events = []
    for i in range(crashes):
        # The leaders of views 0..crashes-1 are down from the start and
        # recover a few timeouts later — one forced view change each.
        events.append(
            Crash(start=0.0, node=_MEMBERS[i], end=rng.uniform(5.0, 8.0))
        )
    plan = FaultPlan(tuple(events))
    pbft = _run_pbft(plan, seed)
    outcome = pbft.outcome
    row = [
        crashes,
        "yes" if outcome.decided else "NO",
        outcome.view,
        round(outcome.decided_at, 3),
        len(pbft.decisions()),
    ]
    return {"rows": [row], "fault_timeline": _fault_timeline(plan)}


def crash_churn_spec() -> ScenarioSpec:
    return ScenarioSpec(
        name="crash_churn",
        experiment_id="Extra: Crash churn",
        title="Successive leaders crash and recover mid-protocol",
        headers=("crashed leaders", "decided", "final view", "agreement s",
                 "deciders"),
        grid=tuple({"crashes": count} for count in (0, 1, _F)),
        point=crash_churn_point,
        notes=(
            "each crashed leader costs one view change (one timeout); "
            "recovered nodes re-arm their timers and rejoin"
        ),
        group="extra",
        derive_seeds=True,
        description="crash/recover schedules against successive leaders",
    )


# ---------------------------------------------------------------------------
# delta_sweep — adversarial delay pushed to the Δ bound, Δ swept
# ---------------------------------------------------------------------------


def delta_sweep_point(params) -> dict:
    delta, seed = params["delta"], params["seed"]
    plan = FaultPlan(
        (Delay(start=0.0, end=10_000.0, extra=delta, respect_delta=True),)
    )
    config = NetworkConfig(base_delay=0.05, jitter=0.05, delta_bound=delta)
    pbft = _run_pbft(
        plan, seed, view_timeout=5.0 * delta, network_config=config
    )
    outcome = pbft.outcome
    row = [
        delta,
        "yes" if outcome.decided else "NO",
        outcome.view,
        round(outcome.decided_at, 3),
        round(outcome.decided_at / delta, 2),
    ]
    return {"rows": [row], "fault_timeline": _fault_timeline(plan)}


def delta_sweep_spec(deltas=(0.5, 1.0, 2.0, 4.0)) -> ScenarioSpec:
    return ScenarioSpec(
        name="delta_sweep",
        experiment_id="Extra: Δ sweep",
        title="Agreement under worst-case delay for a sweep of Δ bounds",
        headers=("delta s", "decided", "final view", "agreement s",
                 "agreement/delta"),
        grid=tuple({"delta": delta} for delta in deltas),
        point=delta_sweep_point,
        notes=(
            "every message is pushed to the Δ bound (timeout scaled to 5Δ): "
            "agreement time grows linearly with Δ — three hops plus jitter — "
            "and no view changes are charged"
        ),
        group="extra",
        derive_seeds=True,
        description="worst-case Δ-bound delay swept over Δ values",
    )


# ---------------------------------------------------------------------------
# interrupted_recovery — epoch-level interruption timelines, recovered
# ---------------------------------------------------------------------------


def _recovery_config(seed: int) -> AmmBoostConfig:
    return AmmBoostConfig(
        committee_size=8,
        miner_population=16,
        num_users=10,
        daily_volume=200_000,
        rounds_per_epoch=6,
        seed=seed,
    )


#: Named interruption timelines (epochs: 4 traffic epochs per run).
_RECOVERY_PLANS = {
    "baseline": FaultPlan(),
    "view_burst": FaultPlan((ViewChangeBurst(epoch=1, round_index=2, views=3),)),
    "withheld_sync": FaultPlan((SyncWithhold(epoch=1),)),
    "fork": FaultPlan((Rollback(epoch=1),)),
    "stacked": FaultPlan(
        (
            ViewChangeBurst(epoch=0, round_index=1, views=2),
            SyncWithhold(epoch=1),
            Rollback(epoch=2),
            ViewChangeBurst(epoch=3, round_index=0, views=1),
        )
    ),
}


def interrupted_recovery_point(params) -> dict:
    mode, seed = params["mode"], params["seed"]
    plan = _RECOVERY_PLANS[mode]
    epochs = 4
    system = AmmBoostSystem(_recovery_config(seed), fault_plan=plan)
    metrics = system.run(num_epochs=epochs)
    synced = sum(1 for e in range(epochs) if e in system.token_bank.synced_epochs)
    fault_log = system.faults.log
    row = [
        mode,
        metrics.processed_txs,
        metrics.num_syncs,
        len(fault_log),
        round(system.faults.total_fault_delay(), 3),
        f"{synced}/{epochs}",
        "yes" if synced == epochs else "NO",
    ]
    return {
        "rows": [row],
        "fault_timeline": _fault_timeline(plan),
        # The applied-fault log ("no silent hangs"): every fault the epoch
        # engine charged, serialized into the run's artifacts.
        "fault_log": [asdict(record) for record in fault_log],
    }


def interrupted_recovery_spec() -> ScenarioSpec:
    return ScenarioSpec(
        name="interrupted_recovery",
        experiment_id="Extra: Interrupted recovery",
        title="Epoch-level FaultPlans recovered by mass-sync (Section IV-C)",
        headers=("plan", "processed txs", "syncs", "faults applied",
                 "fault delay s", "epochs synced", "recovered"),
        grid=tuple({"mode": mode} for mode in _RECOVERY_PLANS),
        point=interrupted_recovery_point,
        notes=(
            "view-change bursts are charged through the fitted "
            "AgreementTimeModel and stretch their epoch; withheld syncs and "
            "forks are mass-synced with key hand-over certificates"
        ),
        group="extra",
        derive_seeds=True,
        description="declarative epoch interruption timelines, recovered end-to-end",
    )


#: Builders for the fault scenarios, in listing order.
FAULT_SPEC_BUILDERS = (
    partition_heal_spec,
    crash_churn_spec,
    delta_sweep_spec,
    interrupted_recovery_spec,
)
