"""Tests for sync payload construction and TSQC authentication."""

import pytest

from repro.core.summary import EpochSummary, PayoutEntry
from repro.core.sync import (
    KeyHandover,
    SyncPayload,
    TsqcAuthenticator,
    create_tx_sync,
)
from repro.crypto.bls import BlsSignature, ThresholdBls, bls_sign, bls_verify
from repro.crypto.dkg import simulate_dkg
from repro.crypto.groups import G1Element, G2Element, PairingGroup
from repro.errors import SyncAuthError, ThresholdError
from repro.simulation.rng import DeterministicRng


def make_auth(num=7, threshold=5, seed=0):
    dkg = simulate_dkg(num, threshold, DeterministicRng(seed))
    shares = {f"m{i}": dkg.shares[i] for i in range(num)}
    return TsqcAuthenticator(threshold=threshold, group_vk=dkg.group_vk, shares=shares)


def summary(epoch=0):
    return EpochSummary(
        epoch=epoch,
        payouts=[PayoutEntry(user="u", balance0=10, balance1=20)],
        pool_balance0=100,
        pool_balance1=200,
    )


def test_create_tx_sync_orders_epochs():
    payload = create_tx_sync([summary(3), summary(1)], G2Element(5))
    assert payload.epochs == [1, 3]


def test_create_tx_sync_requires_summaries():
    with pytest.raises(SyncAuthError):
        create_tx_sync([], G2Element(5))


def test_sign_and_verify():
    auth = make_auth()
    payload = create_tx_sync([summary()], G2Element(5))
    auth.sign_payload(payload, [f"m{i}" for i in range(5)])
    assert auth.verify_payload(payload)


def test_any_quorum_subset_signs():
    auth = make_auth()
    payload = create_tx_sync([summary()], G2Element(5))
    auth.sign_payload(payload, ["m6", "m2", "m0", "m4", "m3"])
    assert auth.verify_payload(payload)


def test_too_few_signers_rejected():
    auth = make_auth()
    payload = create_tx_sync([summary()], G2Element(5))
    with pytest.raises(ThresholdError):
        auth.sign_payload(payload, ["m0", "m1"])


def test_unknown_signer_rejected():
    auth = make_auth()
    payload = create_tx_sync([summary()], G2Element(5))
    with pytest.raises(SyncAuthError):
        auth.sign_payload(payload, ["m0", "m1", "m2", "m3", "outsider"])


def test_unsigned_payload_fails_verification():
    auth = make_auth()
    payload = create_tx_sync([summary()], G2Element(5))
    assert not auth.verify_payload(payload)


def test_tampered_payload_fails_verification():
    auth = make_auth()
    payload = create_tx_sync([summary()], G2Element(5))
    auth.sign_payload(payload, [f"m{i}" for i in range(5)])
    payload.summaries[0].pool_balance0 += 1
    assert not auth.verify_payload(payload)


def test_wrong_committee_signature_rejected():
    honest = make_auth(seed=1)
    impostor = make_auth(seed=2)
    payload = create_tx_sync([summary()], G2Element(5))
    impostor.sign_payload(payload, [f"m{i}" for i in range(5)])
    assert not honest.verify_payload(payload)


def test_digest_covers_vkc_next():
    a = create_tx_sync([summary()], G2Element(5))
    b = create_tx_sync([summary()], G2Element(6))
    assert a.digest() != b.digest()


def test_digest_covers_handovers():
    auth = make_auth()
    cert = auth.certify_handover(1, G2Element(9), [f"m{i}" for i in range(5)])
    a = create_tx_sync([summary()], G2Element(5))
    b = create_tx_sync([summary()], G2Element(5), handovers=[cert])
    assert a.digest() != b.digest()


def test_handover_certificate_verifies_under_committee_key():
    auth = make_auth()
    vkc_next = G2Element(42)
    cert = auth.certify_handover(7, vkc_next, [f"m{i}" for i in range(5)])
    assert bls_verify(
        auth.group_vk, cert.signature, *KeyHandover.message(7, vkc_next)
    )
    # Wrong epoch or key fails.
    assert not bls_verify(
        auth.group_vk, cert.signature, *KeyHandover.message(8, vkc_next)
    )


def test_size_model_matches_table_iv():
    payload = create_tx_sync([summary()], G2Element(5))
    expected = 100 + (1 * 352) + 128 + 64  # overhead + payout + vkc + sig
    assert payload.size_bytes == expected


def test_size_grows_with_handovers():
    auth = make_auth()
    cert = auth.certify_handover(1, G2Element(9), [f"m{i}" for i in range(5)])
    base = create_tx_sync([summary()], G2Element(5))
    with_cert = create_tx_sync([summary()], G2Element(5), handovers=[cert])
    assert with_cert.size_bytes == base.size_bytes + KeyHandover.SIZE_BYTES


def test_mass_sync_payload_carries_multiple_epochs():
    payload = create_tx_sync([summary(0), summary(1), summary(2)], G2Element(5))
    assert payload.epochs == [0, 1, 2]
    assert payload.summary_bytes == 3 * summary().mainchain_size_bytes


# -- paper-scale committee: 334 of 500 -----------------------------------------


@pytest.fixture(scope="module")
def paper_committee():
    dkg = simulate_dkg(500, 334, DeterministicRng(23))
    members = [f"m{i}" for i in range(500)]
    auth = TsqcAuthenticator(
        threshold=334, group_vk=dkg.group_vk, shares=dict(zip(members, dkg.shares))
    )
    return dkg, members, auth


def test_every_quorum_produces_the_group_signature(paper_committee):
    """Prefix, shuffled and non-prefix oversized signer sets all yield
    ``sk · H(m)`` byte for byte — the key is never assembled to do it."""
    dkg, members, auth = paper_committee
    expected = bls_sign(dkg._group_sk, b"handover", 7).encode()
    prefix = members[:334]
    shuffled = list(prefix)
    DeterministicRng(1).shuffle(shuffled)
    scattered = members[:120:-1] + members[3:40:2]
    for signers in (prefix, shuffled, scattered):
        assert len(signers) >= 334
        assert auth.threshold_sign(signers, b"handover", 7).encode() == expected


def test_forged_partial_is_named(paper_committee, monkeypatch):
    _, members, auth = paper_committee
    honest_partial = ThresholdBls.partial_sign_hashed
    forger = auth.shares["m211"].x

    def forging(share, h):
        if share.x == forger:
            return share.x, BlsSignature(point=G1Element(12345))
        return honest_partial(share, h)

    monkeypatch.setattr(ThresholdBls, "partial_sign_hashed", staticmethod(forging))
    with pytest.raises(SyncAuthError) as caught:
        auth.threshold_sign(members[:334], b"sync-digest")
    assert str(caught.value).endswith("invalid partial signatures from: m211")


def test_honest_quorum_costs_one_pairing_check(paper_committee, count_calls):
    """The per-partial attribution pass runs only after a failed aggregate."""
    _, members, auth = paper_committee
    checks = count_calls(PairingGroup, "pairing_check")
    auth.threshold_sign(members[:334], b"sync-digest")
    assert len(checks) == 1


def test_duplicate_signer_rejected(paper_committee):
    _, members, auth = paper_committee
    with pytest.raises(ThresholdError):
        auth.threshold_sign(members[:333] + members[:1], b"sync-digest")
