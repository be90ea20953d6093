"""Tests for the message-level PBFT engine, including fault injection."""

import pytest

from repro import constants
from repro.crypto.keys import generate_keypair
from repro.sidechain.adversary import (
    corrupt_members,
    max_delay_adversary,
    targeted_delay_adversary,
)
from repro.sidechain.pbft import ConsensusOutcome, NodeBehavior, PbftConfig, PbftRound
from repro.simulation.events import EventScheduler
from repro.simulation.network import Network
from repro.simulation.rng import DeterministicRng

MEMBERS = [f"m{i}" for i in range(5)]  # 3f + 2 with f = 1
KEYPAIRS = {m: generate_keypair(m) for m in MEMBERS}
QUORUM = constants.committee_quorum(5)  # 2f + 2 = 4


def run_round(behaviors=None, validator=None, proposer=None, seed=1,
              timeout=1.0, delay_hook=None, members=MEMBERS, quorum=QUORUM,
              max_time=120.0) -> ConsensusOutcome:
    scheduler = EventScheduler()
    network = Network(scheduler, DeterministicRng(seed))
    if delay_hook is not None:
        network.set_adversary_delay(delay_hook)
    keypairs = {m: KEYPAIRS.get(m) or generate_keypair(m) for m in members}
    pbft = PbftRound(
        PbftConfig(members=members, quorum=quorum, view_timeout=timeout),
        network,
        scheduler,
        keypairs,
        proposer_fn=proposer or (lambda view: {"block": view}),
        validator=validator or (lambda p: isinstance(p, dict)),
        behaviors=behaviors or {},
    )
    outcome = pbft.run_to_completion(max_time=max_time)
    # Drain remaining deliveries so every honest node finishes deciding.
    scheduler.run(max_events=20_000)
    return outcome


def test_honest_round_decides_in_view_zero():
    outcome = run_round()
    assert outcome.decided
    assert outcome.view == 0
    assert outcome.proposal == {"block": 0}


def test_all_honest_nodes_decide():
    outcome = run_round()
    assert len(outcome.deciders) == len(MEMBERS)


def test_decision_time_within_a_few_network_hops():
    outcome = run_round()
    # pre-prepare + prepare + commit = 3 hops of <= 0.1s each.
    assert outcome.decided_at < 1.0


def test_silent_leader_triggers_view_change():
    behaviors = corrupt_members(MEMBERS, 1, silent_as_leader=True)
    outcome = run_round(behaviors=behaviors)
    assert outcome.decided
    assert outcome.view == 1
    assert outcome.proposal == {"block": 1}


def test_invalid_proposal_triggers_view_change():
    behaviors = corrupt_members(MEMBERS, 1, propose_invalid=True)
    outcome = run_round(behaviors=behaviors)
    assert outcome.decided
    assert outcome.view >= 1


def test_f_withholding_voters_tolerated():
    # f = 1 crash-like voter (not the leader) must not block progress.
    behaviors = {MEMBERS[-1]: NodeBehavior(withhold_votes=True)}
    outcome = run_round(behaviors=behaviors)
    assert outcome.decided
    assert outcome.view == 0


def test_more_than_f_withholding_blocks_liveness():
    # 2 > f withholders: quorum of 4 out of 5 is unreachable.
    behaviors = corrupt_members(MEMBERS[1:], 2, withhold_votes=True)
    outcome = run_round(behaviors=behaviors, max_time=20.0)
    assert not outcome.decided


def test_two_consecutive_bad_leaders():
    behaviors = corrupt_members(MEMBERS, 2, silent_as_leader=True)
    outcome = run_round(behaviors=behaviors, max_time=60.0)
    assert outcome.decided
    assert outcome.view == 2


def test_adversarial_max_delay_still_decides():
    outcome = run_round(delay_hook=max_delay_adversary(1.0), timeout=5.0)
    assert outcome.decided
    assert outcome.view == 0


def test_targeted_delay_on_one_node_tolerated():
    outcome = run_round(
        delay_hook=targeted_delay_adversary("m4", 0.9), timeout=5.0
    )
    assert outcome.decided


def test_larger_committee():
    members = [f"n{i}" for i in range(11)]  # 3f + 2 with f = 3
    outcome = run_round(
        members=members, quorum=constants.committee_quorum(11)
    )
    assert outcome.decided
    assert len(outcome.deciders) == 11


def test_larger_committee_tolerates_f_faults():
    members = [f"n{i}" for i in range(11)]
    behaviors = corrupt_members(members[1:], 3, withhold_votes=True)
    outcome = run_round(
        members=members, quorum=constants.committee_quorum(11), behaviors=behaviors
    )
    assert outcome.decided


def test_decided_proposal_is_the_valid_one():
    """Even with an invalid first proposer, the decided block validates."""
    behaviors = corrupt_members(MEMBERS, 1, propose_invalid=True)
    outcome = run_round(behaviors=behaviors)
    assert isinstance(outcome.proposal, dict)


def test_quorum_exceeding_committee_rejected():
    with pytest.raises(Exception):
        PbftConfig(members=["a", "b"], quorum=3)


def test_committee_math():
    assert constants.committee_fault_tolerance(5) == 1
    assert constants.committee_fault_tolerance(500) == 166
    assert constants.committee_quorum(5) == 4
    assert constants.committee_quorum(500) == 334


def test_corrupt_members_bounds():
    with pytest.raises(ValueError):
        corrupt_members(["a"], 2)


def test_each_signed_message_is_hashed_to_the_curve_once_per_round(count_calls):
    """Voters and verifiers of one (tag, view, digest) share its G1 point:
    an honest round hashes three messages, whatever the committee size."""
    from repro.crypto.groups import PairingGroup

    hashed = count_calls(PairingGroup, "hash_to_g1")
    members = [f"m{i}" for i in range(14)]  # 3f + 2 with f = 4
    outcome = run_round(members=members, quorum=constants.committee_quorum(14))
    assert outcome.decided and outcome.view == 0
    assert sorted(parts[0] for parts in hashed) == [b"commit", b"pre-prepare", b"prepare"]
