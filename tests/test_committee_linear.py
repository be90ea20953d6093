"""A 500-member epoch costs O(committee) crypto — pinned by exact counts and
by the bytes it signs, not by a clock.

Before threshold signing took one Lagrange *vector* (and one hash-to-curve)
per message, an epoch hashed to G1 ~1 700 times and spent t² = 111k field
multiplications per signature.  The signatures it produced are pinned here
as captured on that tree: dealing in value form changes every share, and
must change no signature (σ = f(0)·H(m) whatever the polynomial).
"""

from repro.core.sync import TsqcAuthenticator
from repro.core.system import AmmBoostConfig, AmmBoostSystem
from repro.crypto import shamir
from repro.crypto.groups import PairingGroup

#: Low 32 bytes (the high 32 of a G1 encoding are zero) of every threshold
#: signature of the run below, in signing order: hand-over certificate and
#: sync signature of epochs 0, 1, 2.  Captured at the parent of this change.
PINNED_SIGNATURES = [
    "254cb7223da1ccb57bd69b96b3aead23961d7df32b65cae33187cefc5d0ebc52",
    "090e6b2af348b4cef11372319010f7c1d2829f6df2adf73d0dbba6a813f8dc62",
    "065876e1e96935dd67fd1ac9821247c35b3ebdbba0d6a1d88d9a7684c69dba6d",
    "14e12c9c73d25bb7aa4e275e75233ba23a87616eb50be57e74ed673b06ed5ba9",
    "250ad6c32939a58367ade5c0e04a17dcb8676073b11d322aa035f4708c3e1548",
    "0a4aa4db76a342be8e1e49872bacee5108b9ba20235067d4fabc6b3c27c7470d",
]


def paper_committee_system() -> AmmBoostSystem:
    """``bench``'s ``epoch_committee`` deployment at seed 11."""
    system = AmmBoostSystem(
        AmmBoostConfig(
            seed=11,
            committee_size=500,
            num_users=100,
            daily_volume=200_000,
            rounds_per_epoch=3,
        )
    )
    system.setup()
    return system


def test_signatures_of_a_500_member_run_are_byte_equal_to_the_parents(monkeypatch):
    signed = []
    threshold_sign = TsqcAuthenticator.threshold_sign

    def recording(self, signers, *message):
        signature = threshold_sign(self, signers, *message)
        signed.append(signature.encode())
        return signature

    monkeypatch.setattr(TsqcAuthenticator, "threshold_sign", recording)
    system = paper_committee_system()
    system.run(3)
    assert [s.hex() for s in signed] == ["00" * 32 + low for low in PINNED_SIGNATURES]
    assert [
        system._handover_certs[epoch].signature.encode() for epoch in (1, 2, 3)
    ] == signed[0::2]


def test_one_epoch_hashes_to_the_curve_a_handful_of_times(count_calls):
    system = paper_committee_system()
    system.run(1)  # warm: the committee's Lagrange vector is now cached

    hashed = count_calls(PairingGroup, "hash_to_g1")
    misses = shamir.lagrange_at_zero.cache_info().misses
    system.run(1)
    # Election input, hand-over message, sync digest, TokenBank's check(s):
    # one each, independent of the 1 000 miners and 334 signers.
    assert 1 <= len(hashed) <= 12
    assert shamir.lagrange_at_zero.cache_info().misses == misses


def test_lagrange_cache_is_bounded():
    for start in range(1, 40):
        shamir.lagrange_at_zero(tuple(range(start, start + 5)), PairingGroup.ORDER)
    info = shamir.lagrange_at_zero.cache_info()
    assert info.maxsize is not None and info.currsize <= info.maxsize <= 16
