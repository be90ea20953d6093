"""Hash functions.

The paper's TokenBank uses Keccak256 (Ethereum's hash).  ``hashlib`` ships
SHA3-256, which differs from Keccak only in padding; byte-for-byte
compatibility with Ethereum is irrelevant here, so we use SHA3-256 and call
it keccak throughout, charging the EVM's keccak gas prices for it.
"""

from __future__ import annotations

import hashlib


def _keccak256_pure(*parts: bytes | str | int) -> bytes:
    """Hash the concatenation of ``parts`` to 32 bytes.

    Accepts bytes, strings (UTF-8 encoded) and non-negative ints (32-byte
    big-endian encoded) for convenience; each part is length-prefixed so the
    encoding is unambiguous.

    This is the pure reference implementation; the public ``keccak256``
    name is resolved through :mod:`repro.amm.backend` at the bottom of
    this module so ``REPRO_BACKEND=compiled`` can swap in the C version
    (which treats this function as its edge-case fallback).
    """
    h = hashlib.sha3_256()
    for part in parts:
        h.update(encode_part(part))
    return h.digest()


def encode_part(part: bytes | str | int) -> bytes:
    """The bytes one part contributes to a part hash.

    A 4-byte big-endian length, then the part itself: bytes as-is,
    strings UTF-8 encoded, ints as a sign byte and an at-least-32-byte
    big-endian magnitude.  This is the one definition of the layout;
    callers that hash many parts at once (the meta-block seal) fuse
    these bytes into a single SHA3 call.
    """
    data = _to_bytes(part)
    return len(data).to_bytes(4, "big") + data


def keccak256_int(*parts: bytes | str | int) -> int:
    """Like :func:`keccak256` but returns the digest as a big-endian int."""
    return int.from_bytes(keccak256(*parts), "big")


def hash_to_scalar(modulus: int, *parts: bytes | str | int) -> int:
    """Hash ``parts`` into ``[1, modulus - 1]`` (never zero)."""
    if modulus <= 2:
        raise ValueError(f"modulus too small: {modulus}")
    return keccak256_int(*parts) % (modulus - 1) + 1


def _to_bytes(part: bytes | str | int) -> bytes:
    if isinstance(part, bytes):
        return part
    if isinstance(part, str):
        return part.encode("utf-8")
    if isinstance(part, int):
        # Sign-prefixed magnitude so negative values (e.g. net liquidity
        # deltas) hash unambiguously.
        sign = b"-" if part < 0 else b"+"
        magnitude = abs(part)
        length = max(32, (magnitude.bit_length() + 7) // 8)
        return sign + magnitude.to_bytes(length, "big")
    raise TypeError(f"cannot hash value of type {type(part).__name__}")


#: ``encode_part(v) == WORD_PART_HEAD + v.to_bytes(32, "big")`` for every
#: int ``0 <= v < WORD_BOUND``: a 33-byte length and the ``+`` sign.  The
#: fast path for the ids and sizes a meta-block seal hashes.
WORD_BOUND = 1 << 256
WORD_PART_HEAD = encode_part(0)[:5]


# Resolved last so the amm package (which never imports repro.crypto)
# can finish initialising the dispatch shim first.
from repro.amm.backend import resolve_keccak256 as _resolve_keccak256  # noqa: E402

keccak256 = _resolve_keccak256(_keccak256_pure, _to_bytes)
