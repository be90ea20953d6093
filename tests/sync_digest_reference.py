"""The Sync digest as it was first written: the reference message.

One variadic part hash over the whole payload, its parts gathered in a
list first.  It shares no code with what it checks: the part encoding
(4-byte big-endian length, then UTF-8 for strings and a sign byte plus
an at-least-32-byte big-endian magnitude for ints) is spelled out here
again.
"""

from __future__ import annotations

import hashlib


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


def reference_sync_digest(payload) -> bytes:
    """What ``SyncPayload.digest`` returns for ``payload``."""
    parts: list = [b"sync"]
    for summary in payload.summaries:
        parts.append(summary.epoch)
        parts.append(summary.pool_balance0)
        parts.append(summary.pool_balance1)
        # A payout row is (user, balance0, balance1); a position row is
        # (position_id, owner, tick_lower, tick_upper, liquidity_delta,
        # liquidity_after, fees_owed0, fees_owed1, deleted), of which the
        # ticks and the deletion mark are not signed.
        for user, balance0, balance1 in summary.payouts:
            parts.extend((user, balance0, balance1))
        for position_id, owner, _, _, delta, after, fees0, fees1, _ in summary.positions:
            parts.extend((position_id, owner, delta, after, fees0, fees1))
    parts.append(payload.vkc_next.encode())
    for handover in payload.handovers:
        parts.extend((handover.epoch, handover.vkc.encode()))
    return part_hash(*parts)


def reference_position_id(tx_id: int, user: str) -> str:
    """What ``SidechainExecutor._new_position_id`` returns for a mint."""
    return part_hash(b"position", tx_id, user).hex()[:32]
