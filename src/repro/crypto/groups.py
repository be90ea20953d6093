"""Algebraic groups used by the crypto substrate.

Two groups live here:

* :class:`SchnorrGroup` — a real prime-order subgroup of Z_p^* (RFC 3526
  1536-bit MODP-style, with a deterministic small-safe-prime option for
  tests).  Schnorr signatures and the VRF run over this group.

* :class:`PairingGroup` — a *symbolic* BN256-style pairing group for BLS.
  Elements carry their discrete log internally (mod the group order) but the
  public API exposes only the group law, scalar multiplication,
  hash-to-point and the pairing check ``e(sig, g2) == e(H(m), pk)``.  This
  reproduces BLS protocol semantics exactly while keeping thousand-signer
  simulations fast.  It is NOT cryptographically hard and must never be
  used outside simulation — the module docstring of :mod:`repro.crypto`
  and ``README.md`` in this package document this substitution.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from operator import mul

# RFC 3526 group 5 (1536-bit MODP).  p is a safe prime: q = (p - 1) / 2.
_RFC3526_P = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05"
    "98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB"
    "9ED529077096966D670C354E4ABC9804F1746C08CA237327FFFFFFFFFFFFFFFF",
    16,
)
_RFC3526_Q = (_RFC3526_P - 1) // 2
_RFC3526_G = 4  # 2^2 generates the prime-order-q subgroup of quadratic residues


class SchnorrGroup:
    """A prime-order subgroup of Z_p^* suitable for Schnorr signatures."""

    def __init__(self, p: int, q: int, g: int) -> None:
        if pow(g, q, p) != 1:
            raise ValueError("g does not generate a subgroup of order q")
        if g == 1:
            raise ValueError("g must not be the identity")
        self.p = p
        self.q = q
        self.g = g

    @classmethod
    def default(cls) -> "SchnorrGroup":
        """The RFC 3526 1536-bit group (production-grade parameters)."""
        return cls(_RFC3526_P, _RFC3526_Q, _RFC3526_G)

    @classmethod
    def small_test_group(cls) -> "SchnorrGroup":
        """A tiny safe-prime group for fast property tests (insecure).

        ``p = 2q + 1`` with both prime, so the quadratic residues form the
        order-``q`` subgroup and any square generates it.
        """
        q = 999_809
        p = 2 * q + 1
        g = pow(5, 2, p)
        return cls(p, q, g)

    def exp(self, base: int, e: int) -> int:
        return pow(base, e, self.p)

    def gen_exp(self, e: int) -> int:
        return pow(self.g, e, self.p)

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p


@dataclass(frozen=True)
class G1Element:
    """A point in the symbolic G1 group (64-byte encoding like BN256)."""

    log: int  # discrete log w.r.t. the canonical generator, mod ORDER
    SIZE_BYTES = 64

    def __add__(self, other: "G1Element") -> "G1Element":
        return G1Element((self.log + other.log) % PairingGroup.ORDER)

    def __mul__(self, scalar: int) -> "G1Element":
        return G1Element((self.log * scalar) % PairingGroup.ORDER)

    __rmul__ = __mul__

    def encode(self) -> bytes:
        return self.log.to_bytes(self.SIZE_BYTES, "big")


@dataclass(frozen=True)
class G2Element:
    """A point in the symbolic G2 group (128-byte encoding like BN256)."""

    log: int
    SIZE_BYTES = 128

    def __add__(self, other: "G2Element") -> "G2Element":
        return G2Element((self.log + other.log) % PairingGroup.ORDER)

    def __mul__(self, scalar: int) -> "G2Element":
        return G2Element((self.log * scalar) % PairingGroup.ORDER)

    __rmul__ = __mul__

    def encode(self) -> bytes:
        return self.log.to_bytes(self.SIZE_BYTES, "big")


class PairingGroup:
    """Symbolic BN256-style bilinear group.

    ``ORDER`` is the real BN254 curve order, so scalar arithmetic matches a
    production deployment bit-for-bit.  The pairing check implements the
    bilinearity relation directly on the tracked logs.
    """

    #: BN254 (alt_bn128) group order — the one Ethereum precompiles use.
    ORDER = (
        21888242871839275222246405745257275088548364400416034343698204186575808495617
    )

    G1 = G1Element(1)
    G2 = G2Element(1)

    @classmethod
    def hash_to_g1(cls, *parts) -> G1Element:
        """Hash arbitrary data to a G1 point (the paper's hash-to-point)."""
        from repro.crypto.hashing import hash_to_scalar

        return G1Element(hash_to_scalar(cls.ORDER, b"hash-to-g1", *parts))

    @classmethod
    def multi_scalar_mul_g1(
        cls, points: Iterable[G1Element], scalars: Sequence[int]
    ) -> G1Element:
        """``Σ scalars[i] · points[i]`` as one operation (a real curve would
        run Pippenger here; symbolically it is one dot product of logs and
        one reduction instead of a point object per term)."""
        logs = [point.log for point in points]
        if len(logs) != len(scalars):
            raise ValueError(f"{len(logs)} points for {len(scalars)} scalars")
        return G1Element(sum(map(mul, logs, scalars)) % cls.ORDER)

    @classmethod
    def encode_g1_multiples(
        cls, point: G1Element, scalars: Iterable[int]
    ) -> list[bytes]:
        """``[(s · point).encode() for s in scalars]`` without a point
        object per scalar: a population that is ranked by a hash of its
        signatures on one point needs their bytes, not their points."""
        log, order, size = point.log, cls.ORDER, G1Element.SIZE_BYTES
        return [(log * scalar % order).to_bytes(size, "big") for scalar in scalars]

    @classmethod
    def pairing_check(
        cls, a1: G1Element, a2: G2Element, b1: G1Element, b2: G2Element
    ) -> bool:
        """Return True iff ``e(a1, a2) == e(b1, b2)``.

        With symbolic logs this is ``log(a1) * log(a2) == log(b1) * log(b2)``
        in Z_ORDER — exactly the relation a real pairing would test.
        """
        lhs = (a1.log * a2.log) % cls.ORDER
        rhs = (b1.log * b2.log) % cls.ORDER
        return lhs == rhs
