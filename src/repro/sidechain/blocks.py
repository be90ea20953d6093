"""Sidechain blocks: temporary meta-blocks and permanent summary-blocks.

Meta-blocks record the transactions processed in one round and are pruned
once their epoch's sync-transaction confirms on the mainchain.
Summary-blocks are permanent checkpoints summarising the state changes of
a whole epoch (Section II, chainBoost overview; Section IV).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Sequence

from repro.crypto.hashing import WORD_BOUND, WORD_PART_HEAD, encode_part, keccak256
from repro.crypto.merkle import DIGEST_LEAF_HEAD, leaf_node, merkle_root

#: Bytes of block header/metadata counted toward sidechain growth.
META_BLOCK_HEADER_SIZE = 200
SUMMARY_BLOCK_HEADER_SIZE = 300

_LEAF_TAG = encode_part(b"tx-leaf")


@dataclass
class MetaBlock:
    """A temporary block holding one round's processed transactions."""

    epoch: int
    round_index: int
    transactions: list = field(default_factory=list)
    timestamp: float = 0.0
    proposer: str = ""
    tx_root: bytes = b""

    def seal(self) -> None:
        """Compute the Merkle commitment over the carried transactions.

        A transaction's leaf is the part hash ``keccak256(b"tx-leaf",
        type name, tx_id, user, size_bytes)``: its identity (``tx_id`` is
        unique within a run and feeds position-id hashes), its issuer and
        its wire size — the fields inclusion proofs over pruned history
        need.  An empty block commits to the single leaf ``b"empty"``.

        The leaf's parts are encoded by :func:`encode_part` (ids and
        sizes below 2**256 on its fixed-width fast path) and fused into
        one SHA3 call; a second hashes the leaf node and
        :func:`merkle_root` adds about one interior node per leaf.  Those
        three SHA3 calls per transaction are the floor while ``tx_root``
        stays the value it has always been — only a change to what a
        leaf commits to could lower it.
        """
        txs = self.transactions
        if not txs:
            self.tx_root = merkle_root([leaf_node(b"empty")])
            return
        sha3, leaf_head = hashlib.sha3_256, DIGEST_LEAF_HEAD
        word_head, bound = WORD_PART_HEAD, WORD_BOUND
        # Per seal, so nothing outlives the block: the leaf tag and the
        # type-name part, which together open every leaf, and each
        # issuer's part (a block carries many transactions per user).
        openings: dict[type, bytes] = {}
        users: dict[str, bytes] = {}
        nodes = []
        for tx in txs:
            cls = type(tx)
            opening = openings.get(cls)
            if opening is None:
                opening = openings[cls] = _LEAF_TAG + encode_part(cls.__name__)
            tx_id, user, size = tx.tx_id, tx.user, tx.size_bytes
            user_part = users.get(user)
            if user_part is None:
                user_part = users[user] = encode_part(user)
            leaf = sha3(
                b"".join((
                    opening,
                    word_head + tx_id.to_bytes(32, "big")
                    if 0 <= tx_id < bound
                    else encode_part(tx_id),
                    user_part,
                    word_head + size.to_bytes(32, "big")
                    if 0 <= size < bound
                    else encode_part(size),
                ))
            ).digest()
            nodes.append(sha3(leaf_head + leaf).digest())
        self.tx_root = merkle_root(nodes)

    @property
    def size_bytes(self) -> int:
        return META_BLOCK_HEADER_SIZE + sum(
            getattr(tx, "size_bytes", 0) for tx in self.transactions
        )

    @property
    def block_hash(self) -> bytes:
        return keccak256(b"meta", self.epoch, self.round_index, self.tx_root)


@dataclass
class SummaryBlock:
    """A permanent block summarising an epoch's state changes.

    Carries the payout list and position list produced by the summary rules
    (Figure 4), plus a commitment to the meta-blocks it summarises so the
    pruned history stays publicly verifiable.
    """

    epoch: int
    payouts: list = field(default_factory=list)
    positions: list = field(default_factory=list)
    pool_state: dict = field(default_factory=dict)
    meta_block_hashes: tuple[bytes, ...] = ()
    timestamp: float = 0.0
    size_bytes: int = SUMMARY_BLOCK_HEADER_SIZE

    @classmethod
    def from_meta_blocks(
        cls,
        epoch: int,
        meta_blocks: Sequence[MetaBlock],
        payouts: list,
        positions: list,
        pool_state: dict,
        timestamp: float,
        payout_entry_size: int,
        position_entry_size: int,
    ) -> "SummaryBlock":
        size = (
            SUMMARY_BLOCK_HEADER_SIZE
            + len(payouts) * payout_entry_size
            + len(positions) * position_entry_size
        )
        return cls(
            epoch=epoch,
            payouts=payouts,
            positions=positions,
            pool_state=pool_state,
            meta_block_hashes=tuple(b.block_hash for b in meta_blocks),
            timestamp=timestamp,
            size_bytes=size,
        )

    @property
    def block_hash(self) -> bytes:
        return keccak256(
            b"summary", self.epoch, *self.meta_block_hashes
        )
