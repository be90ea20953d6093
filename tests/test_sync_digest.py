"""The Sync digest signs exactly the bytes it always did, and all of them.

``SyncPayload.digest`` streams its parts through the word fast path; the
variadic formulation it replaced lives on in
``tests/sync_digest_reference.py`` and every digest here is checked
against it.  The tamper tests then show that each part the digest
covers is one TokenBank authenticates: change it after signing and the
Sync is refused.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.executor import SidechainExecutor
from repro.core.summary import EpochSummary, payout_row, position_row
from repro.core.sync import KeyHandover, SyncPayload, TsqcAuthenticator
from repro.core.token_bank import TokenBank
from repro.core.transactions import MintTx
from repro.crypto.bls import BlsSignature
from repro.crypto.dkg import simulate_dkg
from repro.crypto.groups import G1Element, G2Element
from repro.crypto.hashing import keccak256
from repro.errors import SyncAuthError
from repro.mainchain.chain import Mainchain
from repro.mainchain.contracts.base import CallContext
from repro.mainchain.contracts.erc20 import ERC20Token
from repro.mainchain.gas import GasMeter
from repro.simulation.rng import DeterministicRng

from sync_digest_reference import reference_position_id, reference_sync_digest

_EDGE_INTS = (0, 1, 2**256 - 1, 2**256, 2**300, -1, -(2**256), -(2**256) - 1)

_ints = st.one_of(
    st.sampled_from(_EDGE_INTS), st.integers(-(2**70), 2**70), st.integers(0, 2**260)
)
_names = st.one_of(
    st.sampled_from(("", "0xabc", "bootstrap-lp", "ünïcødé", "用户", "🦄-lp")),
    st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=40),
)
_payouts = st.builds(payout_row, user=_names, balance0=_ints, balance1=_ints)
_positions = st.builds(
    position_row,
    position_id=_names,
    owner=_names,
    tick_lower=st.integers(-887272, 887272),
    tick_upper=st.integers(-887272, 887272),
    liquidity_delta=_ints,
    liquidity_after=_ints,
    fees_owed0=_ints,
    fees_owed1=_ints,
)
_summaries = st.builds(
    EpochSummary,
    epoch=_ints,
    payouts=st.lists(_payouts, max_size=300),
    positions=st.lists(_positions, max_size=300),
    pool_balance0=_ints,
    pool_balance1=_ints,
)
_keys = st.builds(G2Element, st.integers(0, 2**1000))
_handovers = st.builds(
    KeyHandover, epoch=_ints, vkc=_keys, signature=st.just(BlsSignature(G1Element(1)))
)
_payloads = st.builds(
    SyncPayload,
    summaries=st.lists(_summaries, min_size=1, max_size=4),
    vkc_next=_keys,
    handovers=st.lists(_handovers, max_size=3),
)


@settings(max_examples=60, deadline=None)
@given(_payloads)
def test_digest_equals_the_reference(payload):
    assert payload.digest() == reference_sync_digest(payload)


def test_edge_payloads_equal_the_reference():
    """Empty lists and entry counts around the streaming chunk."""
    for n in (0, 1, 255, 256, 257, 512, 513):
        payouts = [payout_row(f"u{i % 7}é", i, -i) for i in range(n)]
        positions = [
            position_row(f"p{i}", f"u{i % 5}", -10, 10, -i, i, 2**256 + i, i)
            for i in range(n)
        ]
        for summaries in (
            [EpochSummary(epoch=3, payouts=payouts)],
            [EpochSummary(epoch=3, positions=positions)],
            [EpochSummary(epoch=3), EpochSummary(4, payouts, positions)],
        ):
            payload = SyncPayload(summaries=summaries, vkc_next=G2Element(n))
            assert payload.digest() == reference_sync_digest(payload), n


def _fixed_payload() -> SyncPayload:
    summaries = [
        EpochSummary(
            epoch=epoch,
            payouts=[
                payout_row("alice", 10**18 + epoch, 2**255),
                payout_row("bøb", 0, 7),
            ],
            positions=[
                position_row("p1", "alice", -60, 60, -(10**12), 5 * 10**12, 3, 4),
                position_row("p2", "bøb", 0, 120, 2**256, 2**256, 0, 0),
            ],
            pool_balance0=10**21,
            pool_balance1=2 * 10**21,
        )
        for epoch in (4, 5)
    ]
    handover = KeyHandover(
        epoch=5, vkc=G2Element(99), signature=BlsSignature(G1Element(1))
    )
    return SyncPayload(summaries=summaries, vkc_next=G2Element(42), handovers=[handover])


#: ``SyncPayload.digest`` of :func:`_fixed_payload`, as the variadic
#: part hash computed it.
_FIXED_DIGEST = "938b03c0902c7da7c8e504e934c847098dedf55038377ee87b5137e167de8ec3"


def test_fixed_payload_digest_is_pinned():
    payload = _fixed_payload()
    assert payload.digest() == reference_sync_digest(payload)
    assert payload.digest().hex() == _FIXED_DIGEST


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**300), _names)
def test_position_id_equals_the_reference(tx_id, user):
    tx = MintTx(user=user, tx_id=tx_id)
    assert SidechainExecutor._new_position_id(tx) == reference_position_id(tx_id, user)


#: ``keccak256(b"position", 1, "bootstrap-lp").hex()[:32]``.
_FIXED_POSITION_ID = "7a4ab35ff0b347c96bdf34cf87072f16"


def test_position_id_is_pinned():
    tx = MintTx(user="bootstrap-lp", tx_id=1)
    assert SidechainExecutor._new_position_id(tx) == _FIXED_POSITION_ID
    assert keccak256(b"position", 1, "bootstrap-lp").hex()[:32] == _FIXED_POSITION_ID


# -- every covered part is authenticated -------------------------------------------


def _committee(seed: int) -> tuple[TsqcAuthenticator, list[str]]:
    dkg = simulate_dkg(5, 4, DeterministicRng(seed))
    auth = TsqcAuthenticator(
        threshold=4,
        group_vk=dkg.group_vk,
        shares={f"m{i}": dkg.shares[i] for i in range(5)},
    )
    return auth, [f"m{i}" for i in range(4)]


def _signed_bank_and_payload() -> tuple[TokenBank, SyncPayload]:
    """A bank keyed to committee 0 and a payload that committee 1 signed,
    bridged by committee 0's hand-over certificate for committee 1."""
    genesis, genesis_signers = _committee(0)
    signer, signers = _committee(1)
    bank = TokenBank("bank", ERC20Token("erc20:A", "A"), ERC20Token("erc20:B", "B"))
    bank.set_genesis_committee(genesis.group_vk)
    payload = _fixed_payload()
    payload.handovers = [
        genesis.certify_handover(5, signer.group_vk, genesis_signers)
    ]
    signer.sign_payload(payload, signers)
    return bank, payload


def _sync(bank: TokenBank, payload: SyncPayload) -> None:
    bank.sync(
        CallContext(
            sender="leader",
            gas=GasMeter(limit=50_000_000),
            block_number=0,
            timestamp=0.0,
            chain=Mainchain(),
        ),
        payload,
    )


def _bump(value):
    return value + "x" if isinstance(value, str) else value + 1


#: Field names of a payout row and of a position row, in row order.
_ROW_FIELDS = {
    "payouts": ("user", "balance0", "balance1"),
    "positions": (
        "position_id", "owner", "tick_lower", "tick_upper", "liquidity_delta",
        "liquidity_after", "fees_owed0", "fees_owed1", "deleted",
    ),
}


def _tamper_entry(kind: str, index: int, name: str):
    at = _ROW_FIELDS[kind].index(name)

    def tamper(payload: SyncPayload) -> None:
        rows = getattr(payload.summaries[1], kind)
        row = rows[index]
        rows[index] = row[:at] + (_bump(row[at]),) + row[at + 1 :]

    return tamper


def _tamper_summary(name: str):
    def tamper(payload: SyncPayload) -> None:
        summary = payload.summaries[0]
        setattr(summary, name, _bump(getattr(summary, name)))

    return tamper


def _tamper_handover(name: str):
    def tamper(payload: SyncPayload) -> None:
        handover = payload.handovers[0]
        value = getattr(handover, name)
        bumped = G2Element(value.log + 1) if name == "vkc" else value + 1
        payload.handovers[0] = replace(handover, **{name: bumped})

    return tamper


def _tamper_vkc_next(payload: SyncPayload) -> None:
    payload.vkc_next = G2Element(payload.vkc_next.log + 1)


_TAMPERS = {
    **{f"summary.{name}": _tamper_summary(name)
       for name in ("epoch", "pool_balance0", "pool_balance1")},
    **{f"payout[{i}].{name}": _tamper_entry("payouts", i, name)
       for i in (0, 1) for name in ("user", "balance0", "balance1")},
    **{f"position[{i}].{name}": _tamper_entry("positions", i, name)
       for i in (0, 1)
       for name in ("position_id", "owner", "liquidity_delta",
                    "liquidity_after", "fees_owed0", "fees_owed1")},
    "vkc_next": _tamper_vkc_next,
    "handover.epoch": _tamper_handover("epoch"),
    "handover.vkc": _tamper_handover("vkc"),
}


def test_untampered_payload_syncs():
    bank, payload = _signed_bank_and_payload()
    _sync(bank, payload)
    assert bank.last_synced_epoch == 5
    assert bank.positions["p1"].liquidity == 5 * 10**12


@pytest.mark.parametrize("part", sorted(_TAMPERS))
def test_tampering_any_covered_part_fails_the_sync(part):
    bank, payload = _signed_bank_and_payload()
    signed = payload.digest()
    _TAMPERS[part](payload)
    assert payload.digest() != signed
    assert payload.digest() == reference_sync_digest(payload)
    with pytest.raises(SyncAuthError):
        _sync(bank, payload)
    assert bank.last_synced_epoch == -1
