"""The meta-block seal commits to exactly the bytes it always did.

``MetaBlock.seal`` builds its leaves and Merkle root on a fast path; the
slow formulation it replaced lives on in ``tests/sealing_reference.py``
and every ``tx_root`` here is checked against it.
"""

from __future__ import annotations

import hashlib

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.phases import EpochPhase, RoundExecutionPhase, default_epoch_phases
from repro.core.system import AmmBoostConfig, AmmBoostSystem
from repro.core.transactions import BurnTx, CollectTx, MintTx, SwapTx
from repro.sharding.escrow import CrossShardSwapTx, CrossShardTransferTx
from repro.sidechain.blocks import MetaBlock

from sealing_reference import reference_tx_root

_TX_TYPES = (SwapTx, MintTx, BurnTx, CollectTx, CrossShardSwapTx, CrossShardTransferTx)
_EDGE_INTS = (0, 1, 2**256 - 1, 2**256, 2**300, -1, -(2**256), -(2**256) - 1)

_ids = st.one_of(
    st.sampled_from(_EDGE_INTS), st.integers(-(2**70), 2**70), st.integers(0, 2**260)
)
_sizes = st.one_of(
    st.sampled_from((0, 2**256 - 1, 2**256, 2**257 + 3)), st.integers(0, 2**20)
)
_users = st.one_of(
    st.sampled_from(("", "0xabc", "bootstrap-lp", "ünïcødé", "用户", "🦄-lp")),
    st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=40),
)
_txs = st.lists(
    st.tuples(st.sampled_from(_TX_TYPES), _ids, _users, _sizes), max_size=300
)


def _build(specs):
    txs = []
    for cls, tx_id, user, size in specs:
        tx = cls(user=user, tx_id=tx_id)
        tx.size_bytes = size
        txs.append(tx)
    return txs


@settings(max_examples=60, deadline=None)
@given(_txs)
def test_tx_root_equals_the_reference(specs):
    txs = _build(specs)
    block = MetaBlock(epoch=0, round_index=0, transactions=txs)
    block.seal()
    assert block.tx_root == reference_tx_root(txs)


def test_edge_blocks_equal_the_reference():
    for n in (0, 1, 2, 3, 4, 5, 7, 8, 9, 255, 256, 257):
        txs = _build(
            (_TX_TYPES[i % len(_TX_TYPES)], _EDGE_INTS[i % len(_EDGE_INTS)], f"u{i}é", i)
            for i in range(n)
        )
        block = MetaBlock(epoch=1, round_index=2, transactions=txs)
        block.seal()
        assert block.tx_root == reference_tx_root(txs), n


class _RootRecorder(EpochPhase):
    """Reads the epoch's sealed meta-blocks right after they are mined."""

    def __init__(self, roots: list[bytes]) -> None:
        self.roots = roots

    def run(self, system, ctx) -> None:
        self.roots.extend(b.tx_root for b in system.ledger.live_meta_blocks(ctx.epoch))


#: sha256 over the ``tx_root``s of every meta-block of epochs 0-2 of the
#: ``epoch_swaps``-shaped deployment below, in mining order.
_EPOCH_SWAPS_ROOTS = "566dacab080268ce222cc85dc3bfb463924e6e4a03fe1a7b7efb053e58fe5010"


def test_epoch_swaps_tx_roots_are_pinned():
    roots: list[bytes] = []
    phases = list(default_epoch_phases())
    after_rounds = next(
        i for i, p in enumerate(phases) if isinstance(p, RoundExecutionPhase)
    ) + 1
    phases.insert(after_rounds, _RootRecorder(roots))
    system = AmmBoostSystem(
        AmmBoostConfig(
            seed=11,
            committee_size=32,
            num_users=100,
            rounds_per_epoch=10,
            daily_volume=12_000_000,
        ),
        epoch_phases=phases,
    )
    system.setup()
    for epoch in range(3):
        system.run_epoch(epoch, inject=True)
    assert len(roots) == 27
    digest = hashlib.sha256(b"".join(roots)).hexdigest()
    assert digest == _EPOCH_SWAPS_ROOTS, digest
