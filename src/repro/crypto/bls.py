"""BLS signatures and threshold BLS over the symbolic pairing group.

The sidechain committee authenticates ``Sync`` calls with a threshold BLS
signature verified on-chain with BN256 pairing precompiles (Section IV-C,
"TSQC").  The construction here follows BLS exactly:

* sign:     ``sigma = sk * H(m)``           (H maps into G1)
* verify:   ``e(sigma, g2) == e(H(m), pk)`` with ``pk = sk * g2``
* threshold: partial signatures are combined with Lagrange coefficients
  over the signer indices, reconstructing ``sk * H(m)`` in the exponent.

Every operation that takes a message has a ``*_hashed`` entry taking
``H(m)`` itself, and the message form is that entry applied to
:meth:`PairingGroup.hash_to_g1` — so n signers or verifiers of one
message share one hash-to-curve.

Sizes match BN256: signatures are 64 bytes (G1), verification keys 128
bytes (G2) — the numbers Table IV reports.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.groups import G1Element, G2Element, PairingGroup
from repro.crypto.shamir import Share, lagrange_at_zero
from repro.errors import SignatureError, ThresholdError


@dataclass(frozen=True)
class BlsSignature:
    """A (possibly aggregated) BLS signature: a single G1 point."""

    point: G1Element

    SIZE_BYTES = G1Element.SIZE_BYTES  # 64

    def encode(self) -> bytes:
        return self.point.encode()


@dataclass(frozen=True)
class BlsKeyPair:
    """A BLS keypair.  ``vk`` is a G2 point (128 bytes encoded)."""

    sk: int
    vk: G2Element

    SIZE_VK_BYTES = G2Element.SIZE_BYTES  # 128


def bls_keygen(seed) -> BlsKeyPair:
    """Deterministically derive a BLS keypair from ``seed``."""
    from repro.crypto.hashing import hash_to_scalar

    sk = hash_to_scalar(PairingGroup.ORDER, b"bls-keygen", str(seed))
    return BlsKeyPair(sk=sk, vk=PairingGroup.G2 * sk)


def bls_sign_hashed(sk: int, h: G1Element) -> BlsSignature:
    """Sign the already-hashed message ``h = H(m)``: ``sigma = sk * h``."""
    return BlsSignature(point=h * sk)


def bls_sign(sk: int, *message) -> BlsSignature:
    """Sign: ``sigma = sk * H(m)``."""
    return bls_sign_hashed(sk, PairingGroup.hash_to_g1(*message))


def bls_verify_hashed(vk: G2Element, signature: BlsSignature, h: G1Element) -> bool:
    """Verify against ``h = H(m)``: ``e(sigma, g2) == e(h, vk)``."""
    return PairingGroup.pairing_check(signature.point, PairingGroup.G2, h, vk)


def bls_verify(vk: G2Element, signature: BlsSignature, *message) -> bool:
    """Verify via the pairing check ``e(sigma, g2) == e(H(m), vk)``."""
    return bls_verify_hashed(vk, signature, PairingGroup.hash_to_g1(*message))


def bls_aggregate(signatures: list[BlsSignature]) -> BlsSignature:
    """Aggregate signatures on the *same* message by point addition."""
    if not signatures:
        raise SignatureError("cannot aggregate an empty signature list")
    acc = signatures[0].point
    for sig in signatures[1:]:
        acc = acc + sig.point
    return BlsSignature(point=acc)


def bls_aggregate_vks(vks: list[G2Element]) -> G2Element:
    """Aggregate verification keys by point addition in G2."""
    if not vks:
        raise SignatureError("cannot aggregate an empty key list")
    acc = vks[0]
    for vk in vks[1:]:
        acc = acc + vk
    return acc


def bls_aggregate_verify_hashed(
    vks: list[G2Element], signatures: list[BlsSignature], h: G1Element
) -> bool:
    """Batched same-message verification with a single pairing check.

    Checks ``e(Σ sigma_i, g2) == e(h, Σ vk_i)`` for ``h = H(m)`` — two
    pairings total instead of ``2n``, the pairing-count-minimizing check a
    BN256 verifier runs on an aggregated quorum certificate.  Sound against
    rogue-key splitting only when every ``vk`` comes with a proof of
    possession; in this simulation all vote keys derive deterministically
    from registered identity keys, which plays that role.

    A valid batch always passes; a batch with invalid members fails unless
    the errors cancel in the sum (as with any aggregate-BLS check).  A
    False result says nothing about which signer is at fault — fall back
    to per-signature :func:`bls_verify_hashed` to attribute the failure.
    """
    if len(vks) != len(signatures):
        raise SignatureError(
            f"aggregate verify got {len(vks)} keys for {len(signatures)} signatures"
        )
    return bls_verify_hashed(bls_aggregate_vks(vks), bls_aggregate(signatures), h)


def bls_aggregate_verify(
    vks: list[G2Element], signatures: list[BlsSignature], *message
) -> bool:
    """:func:`bls_aggregate_verify_hashed` on ``H(message)``."""
    return bls_aggregate_verify_hashed(
        vks, signatures, PairingGroup.hash_to_g1(*message)
    )


class ThresholdBls:
    """Threshold BLS bound to a set of Shamir shares of a signing key.

    Construction: each committee member ``i`` holds ``Share(x_i, y_i)`` of
    the group signing key; a partial signature is ``y_i * H(m)``; any
    ``threshold`` partials combine with Lagrange coefficients at zero into
    the full ``sk * H(m)``.
    """

    def __init__(self, threshold: int, group_vk: G2Element) -> None:
        if threshold < 1:
            raise ThresholdError(f"threshold must be >= 1, got {threshold}")
        self.threshold = threshold
        self.group_vk = group_vk

    @staticmethod
    def partial_sign_hashed(share: Share, h: G1Element) -> tuple[int, BlsSignature]:
        """Member ``share.x``'s partial signature on ``h = H(m)``."""
        return share.x, bls_sign_hashed(share.y, h)

    @staticmethod
    def partial_sign(share: Share, *message) -> tuple[int, BlsSignature]:
        """Produce member ``share.x``'s partial signature on ``message``."""
        return ThresholdBls.partial_sign_hashed(
            share, PairingGroup.hash_to_g1(*message)
        )

    def combine(
        self, partials: list[tuple[int, BlsSignature]]
    ) -> BlsSignature:
        """Combine at least ``threshold`` distinct partial signatures.

        Every partial supplied takes part (any superset of a quorum
        interpolates the same key), as one multi-scalar multiplication by
        the signer set's Lagrange vector.  The result is *not* verified
        here: a forged partial yields a signature that fails
        :meth:`verify`, which the caller holding ``H(m)`` checks with one
        pairing before attributing anything.
        """
        if len(partials) < self.threshold:
            raise ThresholdError(
                f"need {self.threshold} partial signatures, got {len(partials)}"
            )
        coefficients = lagrange_at_zero(
            tuple(x for x, _ in partials), PairingGroup.ORDER
        )
        return BlsSignature(
            point=PairingGroup.multi_scalar_mul_g1(
                (partial.point for _, partial in partials), coefficients
            )
        )

    def verify(self, signature: BlsSignature, *message) -> bool:
        """Verify a combined signature against the committee key."""
        return bls_verify(self.group_vk, signature, *message)
