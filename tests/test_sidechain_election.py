"""Tests for sortition-based committee election."""

import pytest

from repro.crypto.groups import PairingGroup
from repro.crypto.hashing import keccak256
from repro.crypto.vrf import vrf_input_point, vrf_keygen, vrf_values_hashed
from repro.errors import ElectionError
from repro.sidechain.election import (
    Committee,
    elect_committee,
    require_valid_committee,
    verify_election_proof,
)
from tests.election_reference import elect_committee_reference


@pytest.fixture
def miners():
    return {f"m{i}": vrf_keygen(f"m{i}") for i in range(20)}


@pytest.fixture
def stakes(miners):
    return {m: 1.0 for m in miners}


def test_committee_has_requested_size(miners, stakes):
    committee = elect_committee(miners, stakes, epoch=0, seed=b"s", committee_size=7)
    assert committee.size == 7
    assert len(set(committee.members)) == 7


def test_election_deterministic(miners, stakes):
    a = elect_committee(miners, stakes, 0, b"seed", 5)
    b = elect_committee(miners, stakes, 0, b"seed", 5)
    assert a.members == b.members


def test_different_epochs_differ(miners, stakes):
    a = elect_committee(miners, stakes, 0, b"seed", 5)
    b = elect_committee(miners, stakes, 1, b"seed", 5)
    assert a.members != b.members  # overwhelmingly likely


def test_different_seeds_differ(miners, stakes):
    a = elect_committee(miners, stakes, 0, b"seed1", 5)
    b = elect_committee(miners, stakes, 0, b"seed2", 5)
    assert a.members != b.members


def test_all_proofs_verify(miners, stakes):
    committee = elect_committee(miners, stakes, 3, b"seed", 6)
    for member in committee.members:
        assert verify_election_proof(committee.proofs[member], b"seed")
    require_valid_committee(committee)


def test_proof_bound_to_epoch(miners, stakes):
    committee = elect_committee(miners, stakes, 3, b"seed", 6)
    proof = committee.proofs[committee.members[0]]
    forged = type(proof)(
        miner_id=proof.miner_id,
        epoch=4,  # claims a different epoch
        vrf_output=proof.vrf_output,
        vrf_vk=proof.vrf_vk,
    )
    assert not verify_election_proof(forged, b"seed")


def test_invalid_committee_detected(miners, stakes):
    committee = elect_committee(miners, stakes, 0, b"seed", 5)
    impostor = committee.members[0]
    committee.proofs[impostor] = committee.proofs[committee.members[1]]
    with pytest.raises(ElectionError):
        require_valid_committee(committee)


def test_stake_weighting_biases_selection(miners):
    # One miner with overwhelming stake should almost always win a seat.
    stakes = {m: 0.01 for m in miners}
    stakes["m0"] = 1000.0
    wins = 0
    for epoch in range(20):
        committee = elect_committee(miners, stakes, epoch, b"seed", 3)
        if "m0" in committee.members:
            wins += 1
    assert wins >= 18


def test_zero_stake_miner_never_elected(miners):
    stakes = {m: 1.0 for m in miners}
    stakes["m5"] = 0.0
    for epoch in range(10):
        committee = elect_committee(miners, stakes, epoch, b"s", 10)
        assert "m5" not in committee.members


def test_oversized_committee_rejected(miners, stakes):
    with pytest.raises(ElectionError):
        elect_committee(miners, stakes, 0, b"s", 21)


def test_zero_total_stake_rejected(miners):
    with pytest.raises(ElectionError):
        elect_committee(miners, {m: 0.0 for m in miners}, 0, b"s", 3)


def test_leader_rotation():
    committee = Committee(epoch=0, members=["a", "b", "c"], proofs={}, seed=b"")
    assert committee.leader(0) == "a"
    assert committee.leader(1) == "b"
    assert committee.leader(3) == "a"


def test_one_hash_election_matches_per_miner_evaluation(miners, stakes):
    """Hashing the input once for the whole population changes nothing:
    members, their order and every proof equal what each miner's own
    ``evaluate`` (which hashes for itself) would have produced."""
    from repro.sidechain.election import election_input

    seed, epoch = b"seed", 4
    committee = elect_committee(miners, stakes, epoch, seed, 9)
    outputs = {m: kp.evaluate(*election_input(seed, epoch)) for m, kp in miners.items()}
    ranked = sorted(miners, key=lambda m: (outputs[m].as_unit_float() / (1.0 / len(miners)), m))
    assert committee.members == ranked[:9]
    for member in committee.members:
        assert committee.proofs[member].vrf_output == outputs[member]
        assert committee.proofs[member].vrf_vk == miners[member].vk
    require_valid_committee(committee)


# -- winner-only sortition against the per-miner reference ---------------------


@pytest.fixture(scope="module")
def population():
    """1 000 miners with uneven stakes, a few of them zero."""
    miners = {f"miner{i}": vrf_keygen(i) for i in range(1000)}
    stakes = {
        m: (0.4, 1.0, 2.5, 7.0)[i % 4] if i % 97 else 0.0
        for i, m in enumerate(miners)
    }
    return miners, stakes


@pytest.mark.parametrize("seed", [b"seed-a", b"seed-b", b"seed-c"])
@pytest.mark.parametrize("size", [8, 32, 500])
def test_winner_only_sortition_equals_the_reference(population, seed, size):
    miners, stakes = population
    committee = elect_committee(miners, stakes, 7, seed, size)
    reference = elect_committee_reference(miners, stakes, 7, seed, size)
    assert committee.members == reference.members
    assert committee.proofs == reference.proofs
    assert list(committee.proofs) == list(reference.proofs)
    require_valid_committee(committee)


def test_batch_vrf_values_equal_each_miners_evaluation(population):
    """Ranked values are the hashes each miner's own evaluation produces
    — with ``keccak256`` as the active backend resolves it."""
    miners, _ = population
    point = vrf_input_point(b"batch", 3)
    keypairs = list(miners.values())[:64]
    encodings = PairingGroup.encode_g1_multiples(point, [kp.keypair.sk for kp in keypairs])
    evaluations = [kp.evaluate_hashed(point) for kp in keypairs]
    assert encodings == [e.proof.encode() for e in evaluations]
    assert vrf_values_hashed(keypairs, point) == [e.value for e in evaluations]
    assert vrf_values_hashed(keypairs, point) == [keccak256(e) for e in encodings]
