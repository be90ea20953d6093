"""Sortition as it was before the population was ranked on a batch of
values: one full VRF evaluation (proof and output objects) per miner.

The reference :func:`repro.sidechain.election.elect_committee` is tested
against; it shares only :meth:`VrfKeyPair.evaluate_hashed` with it.
"""

from __future__ import annotations

from repro.crypto.vrf import VrfKeyPair, VrfOutput, vrf_input_point
from repro.sidechain.election import Committee, ElectionProof, election_input


def elect_committee_reference(
    miners: dict[str, VrfKeyPair],
    stakes: dict[str, float],
    epoch: int,
    seed: bytes,
    committee_size: int,
) -> Committee:
    total_stake = sum(stakes.get(m, 0.0) for m in miners)
    input_point = vrf_input_point(*election_input(seed, epoch))
    priorities: list[tuple[float, str, VrfOutput]] = []
    for miner_id, keypair in miners.items():
        stake_share = stakes.get(miner_id, 0.0) / total_stake
        if stake_share <= 0:
            continue
        output = keypair.evaluate_hashed(input_point)
        priorities.append((output.as_unit_float() / stake_share, miner_id, output))
    priorities.sort()
    winners = priorities[:committee_size]
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
