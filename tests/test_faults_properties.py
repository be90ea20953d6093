"""Property/invariant suite: 210 generated FaultPlans across both layers.

The operational form of the paper's Section III adversary model: for any
generated plan that faults at most ``f`` of the ``3f + 2`` members (and
keeps delays within Δ),

* **safety** — committed PBFT decisions never conflict: every member
  that decides commits the same digest;
* **liveness** — every member the plan never touches decides;
* **conservation** — at the epoch level, ERC20 tokens held by TokenBank
  always equal the sum of recorded deposits plus the pool reserves;
* **no silent hangs** — every traffic epoch either finalizes on the
  mainchain (appears in ``TokenBank.synced_epochs``) or is recorded as
  interrupted in the run's fault log.

Plans are derived deterministically from the case index, so the suite is
reproducible and a failing seed pinpoints its plan exactly.  Message-layer
cases run on the small Schnorr test group (semantics identical, ~500x
faster than the 1536-bit group); the view timeout exceeds 4Δ, the
partial-synchrony condition under which this certificate-less view-change
engine is safe (see ``src/repro/faults/README.md``).
"""

import pytest

from repro import constants
from repro.core.system import AmmBoostConfig, AmmBoostSystem
from repro.crypto.groups import SchnorrGroup
from repro.crypto.keys import generate_keypair
from repro.faults import Drop, FaultDriver, FaultPlan
from repro.sidechain.pbft import PbftConfig, PbftRound
from repro.simulation.events import EventScheduler
from repro.simulation.network import Network
from repro.simulation.rng import DeterministicRng
from tests.fault_plans import random_epoch_plan, random_message_plan

FAST_GROUP = SchnorrGroup.small_test_group()

NUM_MESSAGE_CASES = 140
NUM_EPOCH_CASES = 70

#: Timeout > 4Δ (Δ = 1.0): honest decisions complete before any timer
#: fires, so view changes only ever reflect genuine faults.
VIEW_TIMEOUT = 5.0


# -- message layer: PBFT safety + liveness -------------------------------------


def _committee_for(case: int) -> tuple[list[str], int]:
    """Alternate between 3f+2 committees with f = 1 and f = 2."""
    f = 1 + case % 2
    size = 3 * f + 2
    return [f"m{i}" for i in range(size)], f


def _run_message_case(case: int):
    members, f = _committee_for(case)
    rng = DeterministicRng(f"fault-prop/{case}")
    plan = random_message_plan(rng, members, f=f, horizon=10.0)
    plan.validate_budget(members, f=f)  # generator stays within budget
    keypairs = {
        m: generate_keypair(f"{case}/{m}", group=FAST_GROUP) for m in members
    }
    scheduler = EventScheduler()
    network = Network(scheduler, DeterministicRng(case))
    driver = FaultDriver(plan, rng=DeterministicRng(f"{case}/driver"))
    network.install_faults(driver)
    pbft = PbftRound(
        PbftConfig(
            members=members,
            quorum=constants.committee_quorum(len(members)),
            view_timeout=VIEW_TIMEOUT,
            max_views=32,
        ),
        network,
        scheduler,
        keypairs,
        proposer_fn=lambda view: {"block": view},
        validator=lambda p: isinstance(p, dict),
        faults=driver,
    )
    pbft.run_to_completion(max_time=150.0)
    scheduler.run(max_events=200_000)
    return plan, members, pbft


@pytest.mark.parametrize("case", range(NUM_MESSAGE_CASES))
def test_generated_message_plan_safety_and_liveness(case):
    plan, members, pbft = _run_message_case(case)
    decisions = pbft.decisions()

    # Safety: no two members commit different digests — ever.
    digests = {digest for _, digest, _ in decisions.values()}
    assert len(digests) <= 1, f"conflicting commits under {plan}"

    # Liveness: every member the plan never touches decides.  (Members in
    # the fault budget — crashed, partitioned, corrupted or starved by a
    # targeted drop — have no guarantee; that is the adversary's right.)
    touched = set(plan.faulty_nodes())
    touched |= {e.recipient for e in plan.of_type(Drop) if e.recipient}
    untouched = set(members) - touched
    for member in untouched:
        assert member in decisions, (
            f"untouched member {member} never decided under {plan}"
        )
    assert pbft.outcome.decided


# -- epoch layer: conservation + finalize-or-interrupted -----------------------


def _epoch_config(case: int) -> AmmBoostConfig:
    return AmmBoostConfig(
        committee_size=8,
        miner_population=16,
        num_users=8,
        daily_volume=100_000 + 10_000 * (case % 4),
        rounds_per_epoch=4,
        seed=case,
    )


def _run_epoch_case(case: int):
    epochs = 3
    rng = DeterministicRng(f"fault-epoch/{case}")
    plan = random_epoch_plan(rng, num_epochs=epochs, rounds_per_epoch=4)
    system = AmmBoostSystem(_epoch_config(case), fault_plan=plan)
    system.run(num_epochs=epochs)
    return plan, system, epochs


@pytest.mark.parametrize("case", range(NUM_EPOCH_CASES))
def test_generated_epoch_plan_invariants(case):
    plan, system, epochs = _run_epoch_case(case)

    # Token-bank conservation: held ERC20 = deposits + pool reserves.
    held0 = system.token0.balance_of("tokenbank")
    held1 = system.token1.balance_of("tokenbank")
    deposits0 = sum(b[0] for b in system.token_bank.deposits.values())
    deposits1 = sum(b[1] for b in system.token_bank.deposits.values())
    assert held0 == deposits0 + system.token_bank.pool_balance0, plan
    assert held1 == deposits1 + system.token_bank.pool_balance1, plan

    # No silent hangs: every traffic epoch finalized or logged interrupted.
    interrupted = system.faults.interrupted_epochs()
    for epoch in range(epochs):
        finalized = epoch in system.token_bank.synced_epochs
        assert finalized or epoch in interrupted, (
            f"epoch {epoch} neither finalized nor recorded interrupted "
            f"under {plan}"
        )

    # Eventual consistency: once every epoch finalized, TokenBank mirrors
    # the sidechain exactly.
    if all(e in system.token_bank.synced_epochs for e in range(epochs)):
        for user, balance in system.executor.deposits.items():
            assert system.token_bank.deposit_of(user) == (
                balance[0], balance[1],
            ), plan


def test_case_count_meets_the_acceptance_floor():
    assert NUM_MESSAGE_CASES + NUM_EPOCH_CASES >= 200
