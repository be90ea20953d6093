"""Committee election by cryptographic sortition.

Each epoch a fresh committee is drawn from the miner population with a
VRF-based lottery (Appendix A): every miner evaluates its VRF on the epoch
seed; those whose output falls under a threshold proportional to their
stake are elected, and the VRF proof is the publicly verifiable proof of
election that committee ``e`` checks before recording ``vk_c`` (Section
IV-C).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.groups import G2Element
from repro.crypto.vrf import VrfKeyPair, VrfOutput, vrf_input_point, vrf_verify
from repro.errors import ElectionError


@dataclass(frozen=True)
class ElectionProof:
    """Proof that a miner won a committee seat for an epoch."""

    miner_id: str
    epoch: int
    vrf_output: VrfOutput
    vrf_vk: G2Element


@dataclass
class Committee:
    """An elected epoch committee; member order fixes leader rotation."""

    epoch: int
    members: list[str]
    proofs: dict[str, ElectionProof]
    seed: bytes

    @property
    def size(self) -> int:
        return len(self.members)

    def leader(self, view: int = 0) -> str:
        """Leader for a PBFT view: round-robin over the member list."""
        return self.members[view % len(self.members)]


def election_input(seed: bytes, epoch: int) -> tuple:
    return (b"election", seed, epoch)


def elect_committee(
    miners: dict[str, VrfKeyPair],
    stakes: dict[str, float],
    epoch: int,
    seed: bytes,
    committee_size: int,
) -> Committee:
    """Run sortition: pick ``committee_size`` miners weighted by stake.

    Every miner's VRF output is scaled by its stake share to produce a
    priority; the lowest priorities win seats.  This is the lottery form
    of sortition used when a fixed committee size is required.
    """
    if committee_size > len(miners):
        raise ElectionError(
            f"committee size {committee_size} exceeds population {len(miners)}"
        )
    total_stake = sum(stakes.get(m, 0.0) for m in miners)
    if total_stake <= 0:
        raise ElectionError("total stake must be positive")
    # Every miner evaluates its VRF on the same input: hash it once.
    input_point = vrf_input_point(*election_input(seed, epoch))
    priorities: list[tuple[float, str, VrfOutput]] = []
    for miner_id, keypair in miners.items():
        stake_share = stakes.get(miner_id, 0.0) / total_stake
        if stake_share <= 0:
            continue
        output = keypair.evaluate_hashed(input_point)
        # Lower is better; dividing by stake share makes seats
        # proportional to stake in expectation.
        priority = output.as_unit_float() / stake_share
        priorities.append((priority, miner_id, output))
    priorities.sort()
    winners = priorities[:committee_size]
    if len(winners) < committee_size:
        raise ElectionError("not enough staked miners to fill the committee")
    proofs = {
        miner_id: ElectionProof(
            miner_id=miner_id,
            epoch=epoch,
            vrf_output=output,
            vrf_vk=miners[miner_id].vk,
        )
        for _, miner_id, output in winners
    }
    members = [miner_id for _, miner_id, _ in winners]
    return Committee(epoch=epoch, members=members, proofs=proofs, seed=seed)


def verify_election_proof(proof: ElectionProof, seed: bytes) -> bool:
    """Publicly verify a member's proof of election."""
    return vrf_verify(
        proof.vrf_vk, proof.vrf_output, *election_input(seed, proof.epoch)
    )


def require_valid_committee(committee: Committee) -> None:
    """Check every member's election proof (used before accepting vk_c)."""
    for member in committee.members:
        proof = committee.proofs.get(member)
        if proof is None or proof.miner_id != member:
            raise ElectionError(f"missing or mismatched proof for {member}")
        if not verify_election_proof(proof, committee.seed):
            raise ElectionError(f"invalid election proof for {member}")
