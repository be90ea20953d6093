"""Property suite: aggregate vote verification ≡ per-vote verification.

The PBFT engine verifies each phase's votes with one aggregate pairing
check at quorum time, falling back to per-vote verification only when the
batch fails (see ``src/repro/sidechain/pbft.py``).  The properties here
pin the equivalence from three angles:

* **crypto level** — for generated signer sets with generated corruption
  patterns, ``bls_aggregate_verify`` accepts exactly the all-valid
  batches and per-signature ``bls_verify`` identifies exactly the
  corrupted indices;
* **protocol level** — a committee under a :class:`FaultPlan` with
  ``Corrupt(corrupt_votes=True)`` events still decides (the corrupted
  members stay within the ``f`` budget), never counts a corrupt vote
  toward a quorum, and attributes every recorded vote fault to a node
  the plan actually corrupted;
* **fallback equivalence** — forcing the aggregate check to fail (so
  every batch resolves through the per-vote fallback) changes nothing
  observable: same decisions, same decided time, same view, same fault
  attributions.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import constants
from repro.crypto.bls import (
    bls_aggregate_verify,
    bls_keygen,
    bls_sign,
    bls_verify,
)
from repro.crypto.groups import SchnorrGroup
from repro.crypto.keys import generate_keypair
from repro.faults import Corrupt, FaultDriver, FaultPlan
from repro.sidechain.pbft import PbftConfig, PbftRound
from repro.simulation.events import EventScheduler
from repro.simulation.network import Network
from repro.simulation.rng import DeterministicRng

FAST_GROUP = SchnorrGroup.small_test_group()
MEMBERS = [f"m{i}" for i in range(8)]  # 3f + 2 with f = 2
F = constants.committee_fault_tolerance(len(MEMBERS))


# -- crypto level ---------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=8),
    bad=st.sets(st.integers(min_value=0, max_value=7)),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_aggregate_verify_equals_per_vote(n, bad, seed):
    bad = {index for index in bad if index < n}
    keys = [bls_keygen((seed, index)) for index in range(n)]
    message = (b"vote", seed % 97)
    sigs = [
        bls_sign(kp.sk, b"corrupted", index)
        if index in bad
        else bls_sign(kp.sk, *message)
        for index, kp in enumerate(keys)
    ]
    per_vote = [bls_verify(kp.vk, sig, *message) for kp, sig in zip(keys, sigs)]
    aggregate = bls_aggregate_verify([kp.vk for kp in keys], sigs, *message)
    # Per-vote verification identifies exactly the corrupted indices.
    assert [not ok for ok in per_vote] == [index in bad for index in range(n)]
    # The aggregate check accepts iff the batch is clean (error terms
    # cancelling in the sum is cryptographically negligible).
    assert aggregate == (not bad)


# -- protocol level -------------------------------------------------------------


def run_committee(corrupted: list[str], seed: int) -> PbftRound:
    plan = FaultPlan(
        tuple(Corrupt(node=node, corrupt_votes=True) for node in corrupted)
    )
    keypairs = {
        m: generate_keypair(f"{seed}/{m}", group=FAST_GROUP) for m in MEMBERS
    }
    scheduler = EventScheduler()
    network = Network(scheduler, DeterministicRng(seed))
    driver = FaultDriver(plan, rng=DeterministicRng(f"{seed}/faults"))
    network.install_faults(driver)
    pbft = PbftRound(
        PbftConfig(
            members=MEMBERS,
            quorum=constants.committee_quorum(len(MEMBERS)),
            view_timeout=5.0,
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
    return pbft


def corrupted_for(case: int) -> list[str]:
    count = 1 + case % F
    first = case % len(MEMBERS)
    return [MEMBERS[(first + i) % len(MEMBERS)] for i in range(count)]


@pytest.mark.parametrize("case", range(24))
def test_corrupt_votes_are_attributed_and_never_counted(case):
    corrupted = corrupted_for(case)
    pbft = run_committee(corrupted, seed=case)

    # Liveness within the budget: corrupt signatures cannot block commit.
    assert pbft.outcome.decided
    digests = {digest for _, digest, _ in pbft.decisions().values()}
    assert len(digests) == 1
    honest = set(MEMBERS) - set(corrupted)
    assert honest <= set(pbft.decisions())

    # Attribution: every recorded vote fault names a plan-corrupted node.
    blamed = {sender for sender, _phase, _view in pbft.vote_faults}
    assert blamed <= set(corrupted), pbft.vote_faults

    # A corrupt vote never counts: whatever verdicts were resolved, the
    # shared verdict map refutes exactly the corrupted senders' votes.
    for (_phase, _view, _digest, sender), ok in pbft._vote_valid.items():
        assert ok == (sender not in corrupted)


def test_attribution_fires_for_corrupt_voters():
    """At least one seed exercises the fallback path end to end."""
    fired = []
    for case in range(24):
        pbft = run_committee(corrupted_for(case), seed=case)
        if pbft.vote_faults:
            fired.append(case)
    assert fired, "no case ever resolved a corrupt vote through the fallback"


def test_forced_fallback_is_observationally_identical(monkeypatch):
    """Per-vote fallback for every batch ≡ aggregate fast path."""
    corrupted = corrupted_for(3)
    fast = run_committee(corrupted, seed=3)

    import repro.sidechain.pbft as pbft_module

    monkeypatch.setattr(
        pbft_module, "bls_aggregate_verify_hashed", lambda *args, **kwargs: False
    )
    slow = run_committee(corrupted, seed=3)

    assert fast.outcome.decided and slow.outcome.decided
    assert fast.outcome.decided_at == slow.outcome.decided_at
    assert fast.outcome.view == slow.outcome.view
    assert fast.decisions() == slow.decisions()
    # The forced fallback verifies every batch per vote, so it can only
    # discover *more* faults, never different ones.
    assert set(fast.vote_faults) <= set(slow.vote_faults)
    assert {s for s, _, _ in slow.vote_faults} <= set(corrupted)
