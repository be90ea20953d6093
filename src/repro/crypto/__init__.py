"""Cryptographic substrate for ammBoost.

Real constructions where pure Python makes them practical (Schnorr
signatures, Shamir secret sharing, hash-based VRF, Merkle trees), and a
*symbolic pairing group* for BLS threshold signatures: group elements track
their discrete logs internally but only expose group-law operations and a
pairing check, so the protocol semantics (aggregation, thresholds,
verification) are exactly those of BLS over BN256 while staying fast enough
for thousand-node simulations.  See ``README.md`` in this package for the
substitution notes and the per-epoch operation counts.
"""

from repro.crypto.hashing import keccak256, keccak256_int, hash_to_scalar
from repro.crypto.keys import KeyPair, SchnorrSignature, generate_keypair
from repro.crypto.shamir import split_secret, reconstruct_secret, Share
from repro.crypto.bls import (
    BlsKeyPair,
    BlsSignature,
    ThresholdBls,
    bls_keygen,
    bls_sign,
    bls_verify,
    bls_aggregate,
)
from repro.crypto.vrf import VrfKeyPair, VrfOutput, vrf_keygen
from repro.crypto.dkg import DkgResult, run_dkg
from repro.crypto.merkle import MerkleTree, verify_merkle_proof

__all__ = [
    "keccak256",
    "keccak256_int",
    "hash_to_scalar",
    "KeyPair",
    "SchnorrSignature",
    "generate_keypair",
    "split_secret",
    "reconstruct_secret",
    "Share",
    "BlsKeyPair",
    "BlsSignature",
    "ThresholdBls",
    "bls_keygen",
    "bls_sign",
    "bls_verify",
    "bls_aggregate",
    "VrfKeyPair",
    "VrfOutput",
    "vrf_keygen",
    "DkgResult",
    "run_dkg",
    "MerkleTree",
    "verify_merkle_proof",
]
