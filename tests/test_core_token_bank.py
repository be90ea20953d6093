"""Tests for the TokenBank contract: deposits, syncs, auth, flash loans."""

import pytest

from repro import constants
from repro.core.summary import EpochSummary, payout_row, position_row
from repro.core.sync import TsqcAuthenticator, create_tx_sync
from repro.core.token_bank import TokenBank
from repro.crypto.dkg import simulate_dkg
from repro.crypto.groups import G2Element
from repro.errors import FlashLoanError, RevertError, SyncAuthError
from repro.mainchain.chain import Mainchain
from repro.mainchain.contracts.base import CallContext
from repro.mainchain.contracts.erc20 import ERC20Token
from repro.mainchain.gas import GasMeter
from repro.simulation.rng import DeterministicRng


def make_auth(seed=0):
    dkg = simulate_dkg(5, 4, DeterministicRng(seed))
    return TsqcAuthenticator(
        threshold=4,
        group_vk=dkg.group_vk,
        shares={f"m{i}": dkg.shares[i] for i in range(5)},
    )


@pytest.fixture
def bank_setup():
    token0 = ERC20Token("erc20:A", "A")
    token1 = ERC20Token("erc20:B", "B")
    bank = TokenBank("bank", token0, token1)
    auth = make_auth()
    bank.set_genesis_committee(auth.group_vk)
    token0.balances["alice"] = 10**24
    token1.balances["alice"] = 10**24
    return bank, token0, token1, auth


def ctx(sender, gas_limit=50_000_000):
    return CallContext(
        sender=sender,
        gas=GasMeter(limit=gas_limit),
        block_number=0,
        timestamp=0.0,
        chain=Mainchain(),
    )


def _approve(token, owner, bank, amount=10**30):
    token.allowances[(owner, bank.address)] = amount


def _signed_payload(auth, summaries, vkc_next=None):
    payload = create_tx_sync(summaries, vkc_next or G2Element(7))
    return auth.sign_payload(payload, [f"m{i}" for i in range(4)])


# -- deposits -----------------------------------------------------------------------


def test_deposit_moves_tokens_and_credits_balance(bank_setup):
    bank, token0, token1, _ = bank_setup
    _approve(token0, "alice", bank)
    _approve(token1, "alice", bank)
    bank.deposit(ctx("alice"), 1000, 2000)
    assert bank.deposit_of("alice") == (1000, 2000)
    assert token0.balance_of("bank") == 1000
    assert token1.balance_of("bank") == 2000


def test_deposit_requires_approval(bank_setup):
    bank, *_ = bank_setup
    with pytest.raises(RevertError):
        bank.deposit(ctx("alice"), 1000, 2000)


def test_deposit_gas_matches_pipeline_calibration(bank_setup):
    bank, token0, token1, _ = bank_setup
    _approve(token0, "alice", bank)
    _approve(token1, "alice", bank)
    context = ctx("alice")
    bank.deposit(context, 1000, 2000)
    from repro.mainchain.contracts.erc20 import GAS_APPROVE

    assert context.gas.used + 2 * GAS_APPROVE == constants.GAS_DEPOSIT_TWO_TOKENS


def test_deposit_accumulates(bank_setup):
    bank, token0, token1, _ = bank_setup
    _approve(token0, "alice", bank)
    _approve(token1, "alice", bank)
    bank.deposit(ctx("alice"), 100, 100)
    bank.deposit(ctx("alice"), 50, 0)
    assert bank.deposit_of("alice") == (150, 100)


def test_empty_deposit_rejected(bank_setup):
    bank, *_ = bank_setup
    with pytest.raises(RevertError):
        bank.deposit(ctx("alice"), 0, 0)
    with pytest.raises(RevertError):
        bank.deposit(ctx("alice"), -5, 10)


def test_deposit_events_logged(bank_setup):
    bank, token0, token1, _ = bank_setup
    _approve(token0, "alice", bank)
    _approve(token1, "alice", bank)
    bank.deposit(ctx("alice"), 1000, 2000)
    assert bank.deposit_events[-1][1:] == ("alice", 1000, 2000)


# -- withdraw ---------------------------------------------------------------------------


def test_withdraw_returns_tokens(bank_setup):
    bank, token0, token1, _ = bank_setup
    _approve(token0, "alice", bank)
    _approve(token1, "alice", bank)
    bank.deposit(ctx("alice"), 1000, 2000)
    before = token0.balance_of("alice")
    bank.withdraw(ctx("alice"), 400, 0)
    assert bank.deposit_of("alice") == (600, 2000)
    assert token0.balance_of("alice") == before + 400


def test_withdraw_exceeding_balance_rejected(bank_setup):
    bank, token0, token1, _ = bank_setup
    _approve(token0, "alice", bank)
    _approve(token1, "alice", bank)
    bank.deposit(ctx("alice"), 100, 100)
    with pytest.raises(RevertError):
        bank.withdraw(ctx("alice"), 101, 0)


# -- sync ---------------------------------------------------------------------------------


def test_sync_applies_payouts_and_positions(bank_setup):
    bank, _, _, auth = bank_setup
    summary = EpochSummary(
        epoch=0,
        payouts=[payout_row(user="alice", balance0=123, balance1=456)],
        positions=[
            position_row(
                position_id="pos1", owner="alice", tick_lower=-60, tick_upper=60,
                liquidity_delta=10**18, liquidity_after=10**18,
            )
        ],
        pool_balance0=777,
        pool_balance1=888,
    )
    payload = _signed_payload(auth, [summary])
    bank.sync(ctx("leader"), payload)
    assert bank.deposit_of("alice") == (123, 456)
    assert bank.positions["pos1"].liquidity == 10**18
    assert (bank.pool_balance0, bank.pool_balance1) == (777, 888)
    assert bank.last_synced_epoch == 0
    assert bank.vkc == G2Element(7)


def test_sync_rejects_unsigned(bank_setup):
    bank, _, _, auth = bank_setup
    payload = create_tx_sync([EpochSummary(epoch=0)], G2Element(7))
    with pytest.raises(SyncAuthError):
        bank.sync(ctx("leader"), payload)


def test_sync_rejects_wrong_committee(bank_setup):
    bank, _, _, _ = bank_setup
    impostor = make_auth(seed=99)
    payload = create_tx_sync([EpochSummary(epoch=0)], G2Element(7))
    impostor.sign_payload(payload, [f"m{i}" for i in range(4)])
    with pytest.raises(SyncAuthError):
        bank.sync(ctx("leader"), payload)


def test_sync_rotates_committee_key(bank_setup):
    bank, _, _, auth0 = bank_setup
    auth1 = make_auth(seed=1)
    payload0 = _signed_payload(auth0, [EpochSummary(epoch=0)], auth1.group_vk)
    bank.sync(ctx("leader"), payload0)
    # Epoch 1 must now be signed by committee 1, not committee 0.
    stale = _signed_payload(auth0, [EpochSummary(epoch=1)])
    with pytest.raises(SyncAuthError):
        bank.sync(ctx("leader"), stale)
    payload1 = create_tx_sync([EpochSummary(epoch=1)], G2Element(8))
    auth1.sign_payload(payload1, [f"m{i}" for i in range(4)])
    bank.sync(ctx("leader"), payload1)
    assert bank.last_synced_epoch == 1


def test_sync_with_handover_chain(bank_setup):
    """Mass-sync authentication when an epoch's key recording was lost."""
    bank, _, _, auth0 = bank_setup
    auth1 = make_auth(seed=1)
    # Epoch 0's sync never happened; committee 1 mass-syncs epochs 0+1,
    # bridging with a hand-over certificate signed by committee 0.
    cert = auth0.certify_handover(1, auth1.group_vk, [f"m{i}" for i in range(4)])
    payload = create_tx_sync(
        [EpochSummary(epoch=0), EpochSummary(epoch=1)],
        G2Element(9),
        handovers=[cert],
    )
    auth1.sign_payload(payload, [f"m{i}" for i in range(4)])
    bank.sync(ctx("leader"), payload)
    assert bank.last_synced_epoch == 1


def test_sync_with_forged_handover_rejected(bank_setup):
    bank, _, _, auth0 = bank_setup
    impostor = make_auth(seed=50)
    forged_cert = impostor.certify_handover(
        1, impostor.group_vk, [f"m{i}" for i in range(4)]
    )
    payload = create_tx_sync(
        [EpochSummary(epoch=0)], G2Element(9), handovers=[forged_cert]
    )
    impostor.sign_payload(payload, [f"m{i}" for i in range(4)])
    with pytest.raises(SyncAuthError):
        bank.sync(ctx("leader"), payload)


def test_stale_sync_replay_rejected(bank_setup):
    bank, _, _, auth = bank_setup
    payload = _signed_payload(auth, [EpochSummary(epoch=0)], auth.group_vk)
    bank.sync(ctx("leader"), payload)
    with pytest.raises(RevertError):
        bank.sync(ctx("leader"), payload)


def test_sync_is_idempotent_via_mass_sync(bank_setup):
    """Re-applying an already-applied epoch inside a fresh mass-sync must
    leave identical state (the rollback-recovery property)."""
    bank, _, _, auth = bank_setup
    s0 = EpochSummary(
        epoch=0,
        payouts=[payout_row(user="alice", balance0=5, balance1=6)],
        pool_balance0=10,
        pool_balance1=20,
    )
    bank.sync(ctx("leader"), _signed_payload(auth, [s0], auth.group_vk))
    s1 = EpochSummary(
        epoch=1,
        payouts=[payout_row(user="alice", balance0=7, balance1=8)],
        pool_balance0=11,
        pool_balance1=21,
    )
    bank.sync(ctx("leader"), _signed_payload(auth, [s0, s1], auth.group_vk))
    assert bank.deposit_of("alice") == (7, 8)
    assert bank.last_synced_epoch == 1


def test_sync_deletes_withdrawn_positions(bank_setup):
    bank, _, _, auth = bank_setup
    create = position_row(
        position_id="p", owner="alice", tick_lower=-60, tick_upper=60,
        liquidity_delta=100, liquidity_after=100,
    )
    bank.sync(ctx("leader"), _signed_payload(
        auth, [EpochSummary(epoch=0, positions=[create])], auth.group_vk))
    assert "p" in bank.positions
    storage_before = bank.storage_bytes
    delete = position_row(
        position_id="p", owner="alice", tick_lower=-60, tick_upper=60,
        liquidity_delta=-100, liquidity_after=0, deleted=True,
    )
    bank.sync(ctx("leader"), _signed_payload(
        auth, [EpochSummary(epoch=1, positions=[delete])], auth.group_vk))
    assert "p" not in bank.positions
    assert bank.storage_bytes < storage_before


def test_unsigned_deleted_flag_cannot_delete_a_live_position(bank_setup):
    """Only the signed ``liquidity_after`` decides a deletion."""
    bank, _, _, auth = bank_setup
    create = position_row(
        position_id="p", owner="alice", tick_lower=-60, tick_upper=60,
        liquidity_delta=100, liquidity_after=100,
    )
    bank.sync(ctx("leader"), _signed_payload(
        auth, [EpochSummary(epoch=0, positions=[create])], auth.group_vk))
    topped_up = position_row(
        position_id="p", owner="alice", tick_lower=-60, tick_upper=60,
        liquidity_delta=50, liquidity_after=150,
    )
    payload = _signed_payload(
        auth, [EpochSummary(epoch=1, positions=[topped_up])], auth.group_vk)
    # A relayer flips the flag after signing; the TSQC still verifies.
    payload.summaries[0].positions[0] = topped_up[:-1] + (True,)
    bank.sync(ctx("leader"), payload)
    assert bank.positions["p"].liquidity == 150

def test_sync_gas_itemisation(bank_setup):
    bank, _, _, auth = bank_setup
    summary = EpochSummary(
        epoch=0,
        payouts=[payout_row(user=f"u{i}", balance0=1, balance1=1) for i in range(10)],
        positions=[
            position_row(
                position_id=f"p{i}", owner="a", tick_lower=-60, tick_upper=60,
                liquidity_delta=1, liquidity_after=1,
            )
            for i in range(3)
        ],
    )
    context = ctx("leader")
    bank.sync(context, _signed_payload(auth, [summary]))
    gas = context.gas.by_label
    assert gas["payout"] == 10 * constants.GAS_PAYOUT_ENTRY
    assert gas["position-storage"] == 3 * 6 * constants.GAS_SSTORE_WORD
    assert gas["auth-verify"] == constants.GAS_BLS_PAIRING_CHECK


# -- flash loans -------------------------------------------------------------------------


def test_flash_on_bank(bank_setup):
    bank, *_ = bank_setup
    bank.create_pool(ctx("designer"))
    bank.pool_balance0 = 10**18
    loan = 10**17

    def callback(fee0, fee1):
        return loan + fee0, 0

    fee0, _ = bank.flash(ctx("arber"), loan, 0, callback)
    assert fee0 > 0
    assert bank.pool_balance0 == 10**18 + fee0


def test_flash_default_rejected(bank_setup):
    bank, *_ = bank_setup
    bank.create_pool(ctx("designer"))
    bank.pool_balance0 = 10**18
    with pytest.raises(FlashLoanError):
        bank.flash(ctx("arber"), 10**17, 0, lambda f0, f1: (10**17, 0))


def test_flash_exceeding_pool_rejected(bank_setup):
    """More than the pool holds, or a negative amount, is refused."""
    bank, *_ = bank_setup
    bank.create_pool(ctx("designer"))
    bank.pool_balance0 = 100
    for amount0, amount1 in ((101, 0), (-1, 0), (0, -1)):
        with pytest.raises(FlashLoanError):
            bank.flash(ctx("arber"), amount0, amount1, lambda f0, f1: (200, 0))
    assert bank.pool_balance0 == 100


# -- misc -------------------------------------------------------------------------------------


def test_genesis_committee_set_once(bank_setup):
    bank, _, _, auth = bank_setup
    with pytest.raises(RevertError):
        bank.set_genesis_committee(auth.group_vk)


def test_create_pool_once(bank_setup):
    bank, *_ = bank_setup
    bank.create_pool(ctx("designer"))
    with pytest.raises(RevertError):
        bank.create_pool(ctx("designer"))


def test_state_snapshot_restore_roundtrip(bank_setup):
    bank, token0, token1, auth = bank_setup
    _approve(token0, "alice", bank)
    _approve(token1, "alice", bank)
    bank.deposit(ctx("alice"), 100, 200)
    snapshot = bank.state_snapshot()
    bank.sync(ctx("leader"), _signed_payload(
        auth,
        [EpochSummary(epoch=0, payouts=[payout_row("alice", 1, 2)])],
    ))
    assert bank.deposit_of("alice") == (1, 2)
    bank.restore_state(snapshot)
    assert bank.deposit_of("alice") == (100, 200)
    assert bank.last_synced_epoch == -1
    assert bank.vkc == auth.group_vk
