"""Sync-transaction construction and TSQC authentication (Section IV-C).

``CreateTxSync`` packages one or more epoch summaries (more than one when
mass-syncing after an interruption) into a :class:`SyncPayload`.  The
epoch committee authenticates the payload with a threshold BLS signature
over its digest; TokenBank verifies the signature against the committee
verification key ``vk_c`` recorded by the *previous* epoch's sync.

A payload shares its summaries' row lists (payout and position rows,
exact tuples — see :mod:`repro.core.summary`) rather than copying them,
so the pending and confirmed Sync records a deployment keeps add list
slots, not objects, for the collector to scan.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro import constants
from repro.core.summary import EpochSummary
from repro.crypto.bls import BlsSignature, ThresholdBls, bls_verify_hashed
from repro.crypto.groups import G2Element, PairingGroup
from repro.crypto.hashing import WORD_BOUND, WORD_PART_HEAD, encode_part
from repro.crypto.shamir import Share
from repro.errors import SyncAuthError, ThresholdError

#: Selector + epoch bookkeeping overhead of a Sync call, bytes.
SYNC_CALL_OVERHEAD = 100

_SYNC_TAG = encode_part(b"sync")
#: Payout or position entries :meth:`SyncPayload.digest` encodes before
#: it feeds them to the hash, so no join holds a whole payload.
_DIGEST_CHUNK = 256


@dataclass(frozen=True)
class KeyHandover:
    """A certified committee-key hand-over.

    The paper records each committee's ``vk_c`` on TokenBank via the
    previous epoch's Sync, but leaves open how a *mass-sync* authenticates
    when that recording was itself lost (failed leader or rollback).  We
    close the gap with hand-over certificates: during epoch ``e``,
    committee ``e`` threshold-signs ``vk_{e+1}`` after checking the new
    committee's election proofs; a mass-sync carries the certificate chain
    bridging from TokenBank's recorded key to the signing committee's key.
    """

    epoch: int
    vkc: G2Element
    signature: BlsSignature

    #: vk_c (128 B) + signature (64 B) + epoch word.
    SIZE_BYTES = constants.SIZE_VKC + constants.SIZE_BLS_SIGNATURE + 32

    @staticmethod
    def message(epoch: int, vkc: G2Element) -> tuple:
        return (b"handover", epoch, vkc.encode())


@dataclass
class SyncPayload:
    """The ``aux`` input of TokenBank's Sync function.

    ``vkc_next`` is the next committee's verification key, recorded now so
    the next epoch's sync can be authenticated (the hand-over chain of
    Section IV-C).  ``handovers`` is empty in normal operation and carries
    the certificate chain during a mass-sync.
    """

    summaries: list[EpochSummary]
    vkc_next: G2Element
    signature: BlsSignature | None = None
    handovers: list[KeyHandover] = field(default_factory=list)

    @property
    def epochs(self) -> list[int]:
        return [s.epoch for s in self.summaries]

    @property
    def summary_bytes(self) -> int:
        """Size of the summarised state changes (the ``|sum|`` of Table II)."""
        return sum(s.mainchain_size_bytes for s in self.summaries)

    @property
    def size_bytes(self) -> int:
        """Mainchain transaction size: summaries + vk_c + signature(s)."""
        return (
            SYNC_CALL_OVERHEAD
            + self.summary_bytes
            + constants.SIZE_VKC
            + constants.SIZE_BLS_SIGNATURE
            + len(self.handovers) * KeyHandover.SIZE_BYTES
        )

    def digest(self) -> bytes:
        """The message the committee threshold-signs.

        The part hash ``keccak256(b"sync", ...)`` over, per summary, its
        epoch and pool balances, each payout's user and balances, and
        each position's id, owner, liquidity delta, liquidity after and
        owed fees (unpacked from the summary's rows, see
        :mod:`repro.core.summary`); then ``vkc_next`` and each hand-over's
        epoch and key.  That layout is unchanged; it is streamed: every
        part goes through :func:`encode_part` (ints below 2**256 on its
        word fast path, user names encoded once per call) and one SHA3 is
        fed a chunk of at most :data:`_DIGEST_CHUNK` entries at a time.
        Nothing is cached — the payload is mutable, so the signer and
        TokenBank each recompute it from what they hold.
        """
        word_head, bound = WORD_PART_HEAD, WORD_BOUND
        h = hashlib.sha3_256(_SYNC_TAG)
        names: dict[str, bytes] = {}
        chunk: list[bytes] = []
        for summary in self.summaries:
            chunk += (
                encode_part(summary.epoch),
                encode_part(summary.pool_balance0),
                encode_part(summary.pool_balance1),
            )
            for i, (name, b0, b1) in enumerate(summary.payouts, 1):
                user = names.get(name)
                if user is None:
                    user = names[name] = encode_part(name)
                chunk += (
                    user,
                    word_head + b0.to_bytes(32, "big")
                    if 0 <= b0 < bound
                    else encode_part(b0),
                    word_head + b1.to_bytes(32, "big")
                    if 0 <= b1 < bound
                    else encode_part(b1),
                )
                if not i % _DIGEST_CHUNK:
                    h.update(b"".join(chunk))
                    chunk.clear()
            for i, row in enumerate(summary.positions, 1):
                position_id, name, _, _, delta, after, fees0, fees1, _ = row
                owner = names.get(name)
                if owner is None:
                    owner = names[name] = encode_part(name)
                chunk += (
                    encode_part(position_id),
                    owner,
                    word_head + delta.to_bytes(32, "big")
                    if 0 <= delta < bound
                    else encode_part(delta),
                    word_head + after.to_bytes(32, "big")
                    if 0 <= after < bound
                    else encode_part(after),
                    word_head + fees0.to_bytes(32, "big")
                    if 0 <= fees0 < bound
                    else encode_part(fees0),
                    word_head + fees1.to_bytes(32, "big")
                    if 0 <= fees1 < bound
                    else encode_part(fees1),
                )
                if not i % _DIGEST_CHUNK:
                    h.update(b"".join(chunk))
                    chunk.clear()
        chunk.append(encode_part(self.vkc_next.encode()))
        for handover in self.handovers:
            chunk += (encode_part(handover.epoch), encode_part(handover.vkc.encode()))
        h.update(b"".join(chunk))
        return h.digest()


def create_tx_sync(
    summaries: list[EpochSummary],
    vkc_next: G2Element,
    handovers: list[KeyHandover] | None = None,
) -> SyncPayload:
    """The sidechain's ``CreateTxSync`` helper (Section V)."""
    if not summaries:
        raise SyncAuthError("sync payload needs at least one epoch summary")
    ordered = sorted(summaries, key=lambda s: s.epoch)
    return SyncPayload(
        summaries=ordered, vkc_next=vkc_next, handovers=list(handovers or [])
    )


@dataclass
class TsqcAuthenticator:
    """Threshold-signature quorum certificate for one epoch committee.

    Wraps the committee's DKG output: members produce partial signatures
    over the sync digest; any ``2f + 2`` of them combine into the single
    64-byte BLS signature TokenBank verifies against ``vk_c``.
    """

    threshold: int
    group_vk: G2Element
    shares: dict[str, Share] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._scheme = ThresholdBls(threshold=self.threshold, group_vk=self.group_vk)

    def sign_payload(self, payload: SyncPayload, signers: list[str]) -> SyncPayload:
        """Collect partial signatures from ``signers`` and attach the TSQC."""
        payload.signature = self.threshold_sign(signers, payload.digest())
        return payload

    def threshold_sign(self, signers: list[str], *message) -> BlsSignature:
        """Threshold-sign an arbitrary message (also used for hand-overs).

        Aggregate, then attribute: the message is hashed to the curve
        once, every signer's partial is formed from that point and the
        combined signature is checked with one pairing against ``vk_c``.
        Only when that fails is each partial checked against its
        signer's key share ``y_i · g2``, and the culprits named — rather
        than TokenBank discovering an unattributable bad signature later.
        """
        if len(signers) < self.threshold:
            raise ThresholdError(
                f"need {self.threshold} signers, got {len(signers)}"
            )
        shares = []
        for signer in signers:
            share = self.shares.get(signer)
            if share is None:
                raise SyncAuthError(f"{signer} holds no signing share")
            shares.append(share)
        h = PairingGroup.hash_to_g1(*message)
        partials = [ThresholdBls.partial_sign_hashed(share, h) for share in shares]
        signature = self._scheme.combine(partials)
        if not bls_verify_hashed(self.group_vk, signature, h):
            culprits = [
                signer
                for signer, share, (_, partial) in zip(signers, shares, partials)
                if not bls_verify_hashed(PairingGroup.G2 * share.y, partial, h)
            ]
            raise SyncAuthError(
                "threshold signature does not verify against vk_c; "
                f"invalid partial signatures from: {', '.join(culprits) or 'nobody'}"
            )
        return signature

    def certify_handover(
        self, epoch: int, vkc: G2Element, signers: list[str]
    ) -> KeyHandover:
        """Certify the next committee's key (run during the current epoch)."""
        signature = self.threshold_sign(signers, *KeyHandover.message(epoch, vkc))
        return KeyHandover(epoch=epoch, vkc=vkc, signature=signature)

    def verify_payload(self, payload: SyncPayload) -> bool:
        if payload.signature is None:
            return False
        return self._scheme.verify(payload.signature, payload.digest())
