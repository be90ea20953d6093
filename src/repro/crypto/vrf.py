"""Verifiable random function for cryptographic sortition.

The committee election (Section IV-A, Appendix A) uses a VRF so election
is unpredictable yet publicly verifiable.  We build the VRF from the
unique/deterministic BLS signature over the symbolic pairing group:
``proof = sk * H(input)``, ``output = keccak(proof)``.  BLS signatures are
unique for a given key and message, which is exactly the property a VRF
needs (Goldberg et al. construction; also what Algorand-style sortition
uses in practice).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.bls import (
    BlsKeyPair,
    BlsSignature,
    bls_keygen,
    bls_sign_hashed,
    bls_verify_hashed,
)
from repro.crypto.groups import G1Element, G2Element, PairingGroup
from repro.crypto.hashing import keccak256
from repro.errors import VRFError


@dataclass(frozen=True)
class VrfOutput:
    """A VRF evaluation: pseudo-random 32 bytes plus a proof of correctness."""

    value: bytes
    proof: BlsSignature

    def as_unit_float(self) -> float:
        """Map the output into [0, 1) for sortition threshold tests."""
        return int.from_bytes(self.value[:8], "big") / 2**64


def vrf_input_point(*alpha) -> G1Element:
    """``H(alpha)``: the G1 point every evaluator of ``alpha`` signs."""
    return PairingGroup.hash_to_g1(b"vrf", *alpha)


@dataclass
class VrfKeyPair:
    """A VRF keypair (BLS keypair underneath)."""

    keypair: BlsKeyPair

    @property
    def vk(self) -> G2Element:
        return self.keypair.vk

    def evaluate_hashed(self, h: G1Element) -> VrfOutput:
        """Evaluate on ``h = vrf_input_point(alpha)`` — a whole population
        drawing on one input (sortition) hashes it to the curve once."""
        proof = bls_sign_hashed(self.keypair.sk, h)
        return VrfOutput(value=keccak256(proof.encode()), proof=proof)

    def evaluate(self, *alpha) -> VrfOutput:
        """Evaluate the VRF on input ``alpha``."""
        return self.evaluate_hashed(vrf_input_point(*alpha))


def vrf_keygen(seed) -> VrfKeyPair:
    """Deterministically derive a VRF keypair from ``seed``."""
    return VrfKeyPair(keypair=bls_keygen(f"vrf/{seed}"))


def vrf_verify(vk: G2Element, output: VrfOutput, *alpha) -> bool:
    """Check the proof and that the claimed value matches it."""
    if not bls_verify_hashed(vk, output.proof, vrf_input_point(*alpha)):
        return False
    return output.value == keccak256(output.proof.encode())


def require_valid_vrf(vk: G2Element, output: VrfOutput, *alpha) -> None:
    """Raise :class:`VRFError` unless the VRF output verifies."""
    if not vrf_verify(vk, output, *alpha):
        raise VRFError("VRF proof verification failed")
