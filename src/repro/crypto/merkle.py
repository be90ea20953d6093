"""Binary Merkle trees.

Meta-blocks and summary-blocks commit to their transaction lists with a
Merkle root so pruned history remains verifiable against the permanent
summary-blocks (Section IV-C, public verifiability).

There is one pairing rule, :func:`parent_level`: adjacent nodes hash
in pairs under the interior prefix and a trailing odd node is promoted
unchanged.  :func:`merkle_root` folds a list of leaf nodes to the root
with it, keeping only the current level — that is all the meta-block
seal needs.  :class:`MerkleTree` builds its levels with the same rule
and keeps them, because inclusion proofs read siblings off every level.

Every hash here is a part hash (:func:`~repro.crypto.hashing.keccak256`
over length-prefixed parts).  Interior nodes and 32-byte leaves have
fixed-size parts, so their encodings are precomputed once and each node
costs a single SHA3 call.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.crypto.hashing import encode_part

_LEAF_PREFIX = b"\x00"
_NODE_PREFIX = b"\x01"

_LEAF_PART = encode_part(_LEAF_PREFIX)
#: The length header of a 32-byte part (a digest).
_DIGEST_LEN = encode_part(bytes(32))[:4]
#: ``sha3(DIGEST_LEAF_HEAD + leaf)`` is the leaf node of a 32-byte leaf.
DIGEST_LEAF_HEAD = _LEAF_PART + _DIGEST_LEN
#: ``sha3(_NODE_HEAD + left + _DIGEST_LEN + right)`` is an interior node.
_NODE_HEAD = encode_part(_NODE_PREFIX) + _DIGEST_LEN


@dataclass(frozen=True)
class MerkleProof:
    """An inclusion proof.

    ``steps`` is a bottom-up list of ``(sibling_is_left, sibling_hash)``
    pairs.  Levels where the node was promoted without a sibling contribute
    no step, so the positional bit must be explicit rather than derived
    from the leaf index.
    """

    index: int
    steps: tuple[tuple[bool, bytes], ...]


def leaf_node(leaf: bytes) -> bytes:
    """The level-0 node of one leaf (``keccak256(_LEAF_PREFIX, leaf)``)."""
    return hashlib.sha3_256(_LEAF_PART + encode_part(leaf)).digest()


def parent_level(level: list[bytes]) -> list[bytes]:
    """The level above ``level``: the tree's one pairing rule."""
    sha3, head, mid = hashlib.sha3_256, _NODE_HEAD, _DIGEST_LEN
    pairs = iter(level)
    parents = [
        sha3(head + left + mid + right).digest() for left, right in zip(pairs, pairs)
    ]
    if len(level) & 1:
        parents.append(level[-1])
    return parents


def merkle_root(nodes: list[bytes]) -> bytes:
    """Root over non-empty level-0 ``nodes``, keeping one level at a time."""
    if not nodes:
        raise ValueError("Merkle tree needs at least one leaf")
    while len(nodes) > 1:
        nodes = parent_level(nodes)
    return nodes[0]


class MerkleTree:
    """A Merkle tree over a list of byte-string leaves.

    Leaf and interior hashes are domain-separated to rule out
    second-preimage tricks between the two layers.  A trailing odd node is
    promoted to the next level unchanged (no Bitcoin-style duplication).
    """

    def __init__(self, leaves: list[bytes]) -> None:
        if not leaves:
            raise ValueError("Merkle tree needs at least one leaf")
        self._levels: list[list[bytes]] = [[leaf_node(leaf) for leaf in leaves]]
        while len(self._levels[-1]) > 1:
            self._levels.append(parent_level(self._levels[-1]))

    def __len__(self) -> int:
        return len(self._levels[0])

    @property
    def root(self) -> bytes:
        return self._levels[-1][0]

    def prove(self, index: int) -> MerkleProof:
        """Build an inclusion proof for leaf ``index``."""
        if not (0 <= index < len(self)):
            raise IndexError(f"leaf index out of range: {index}")
        steps: list[tuple[bool, bytes]] = []
        i = index
        for level in self._levels[:-1]:
            sibling = i ^ 1
            if sibling < len(level):
                steps.append((sibling < i, level[sibling]))
            i //= 2
        return MerkleProof(index=index, steps=tuple(steps))


def verify_merkle_proof(root: bytes, leaf: bytes, proof: MerkleProof) -> bool:
    """Check that ``leaf`` is included under ``root``.

    Every node of a tree is a 32-byte digest, so a proof carrying a
    sibling of any other length is malformed and fails.
    """
    node = leaf_node(leaf)
    for sibling_is_left, sibling in proof.steps:
        if len(sibling) != len(node):
            return False
        if sibling_is_left:
            node = parent_level([sibling, node])[0]
        else:
            node = parent_level([node, sibling])[0]
    return node == root
