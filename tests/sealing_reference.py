"""The meta-block seal as it was first written: the reference ``tx_root``.

One part-hash call per leaf, a second one per Merkle leaf node and one
per interior node, over a tree that keeps every level.  It shares no
code with what it checks: the part encoding (4-byte big-endian length,
then UTF-8 for strings and a sign byte plus an at-least-32-byte
big-endian magnitude for ints) is spelled out here again.
"""

from __future__ import annotations

import hashlib

_LEAF_PREFIX = b"\x00"
_NODE_PREFIX = b"\x01"


def _part_bytes(part: bytes | str | int) -> bytes:
    if isinstance(part, bytes):
        return part
    if isinstance(part, str):
        return part.encode("utf-8")
    sign = b"-" if part < 0 else b"+"
    magnitude = abs(part)
    length = max(32, (magnitude.bit_length() + 7) // 8)
    return sign + magnitude.to_bytes(length, "big")


def part_hash(*parts: bytes | str | int) -> bytes:
    """SHA3-256 over the length-prefixed parts, one ``update`` per piece."""
    h = hashlib.sha3_256()
    for part in parts:
        data = _part_bytes(part)
        h.update(len(data).to_bytes(4, "big"))
        h.update(data)
    return h.digest()


def tx_leaf(tx) -> bytes:
    return part_hash(b"tx-leaf", type(tx).__name__, tx.tx_id, tx.user, tx.size_bytes)


def merkle_root(leaves: list[bytes]) -> bytes:
    """Root of the level-by-level tree; a trailing odd node is promoted."""
    levels = [[part_hash(_LEAF_PREFIX, leaf) for leaf in leaves]]
    while len(levels[-1]) > 1:
        prev = levels[-1]
        level = []
        for i in range(0, len(prev), 2):
            if i + 1 < len(prev):
                level.append(part_hash(_NODE_PREFIX, prev[i], prev[i + 1]))
            else:
                level.append(prev[i])
        levels.append(level)
    return levels[-1][0]


def reference_tx_root(transactions) -> bytes:
    """What ``MetaBlock.seal`` stores in ``tx_root`` for ``transactions``."""
    return merkle_root([tx_leaf(tx) for tx in transactions] or [b"empty"])
