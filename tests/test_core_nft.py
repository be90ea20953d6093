"""Tests for the Remark-3 NFT-position extension."""

import pytest

from repro.core.phases import RoundExecutionPhase
from repro.core.transactions import BurnTx, MintTx, SwapTx
from repro.errors import RevertError
from repro.mainchain.contracts.base import CallContext
from repro.mainchain.gas import GasMeter
from tests.conftest import small_system, withheld_syncs


def nft_system(**overrides):
    return small_system(enable_nft_positions=True, **overrides)


def ctx(system, sender):
    return CallContext(
        sender=sender, gas=GasMeter(), block_number=0,
        timestamp=system.clock.now, chain=system.mainchain,
    )


@pytest.fixture(scope="module")
def ran():
    system = nft_system()
    system.run(num_epochs=2)
    return system


def test_nfts_minted_at_sync(ran):
    """Every synced position carries a wrapping NFT (created at epoch end)."""
    assert ran.token_bank.positions, "expected synced positions"
    for position_id, entry in ran.token_bank.positions.items():
        token_id = ran.nft_registry.token_of(position_id)
        assert token_id is not None
        assert ran.nft_registry.owner_of(token_id) == entry.owner


def test_nft_not_created_before_sync():
    """Within an epoch, fresh positions have no NFT yet (Remark 3)."""
    system = nft_system(daily_volume=0)
    system.setup()
    system.executor.begin_epoch(system.token_bank.snapshot_deposits())
    lp = system.population.addresses[0]
    mint = MintTx(user=lp, tick_lower=-600, tick_upper=600,
                  amount0_desired=10**18, amount1_desired=10**18)
    system.queue.append(mint)
    # Process the mint in a meta round but stop before the sync confirms.
    RoundExecutionPhase.mine_meta_block(system, 0, 0, system.clock.now + 7)
    position_id = mint.effects["position_id"]
    assert position_id in system.executor.positions
    assert system.nft_registry.token_of(position_id) is None


def test_nft_transfer_moves_ownership(ran):
    position_id, entry = next(iter(ran.token_bank.positions.items()))
    token_id = ran.nft_registry.token_of(position_id)
    old_owner = entry.owner
    ran.nft_registry.transfer(ctx(ran, old_owner), token_id, "new-owner")
    assert ran.nft_registry.owner_of(token_id) == "new-owner"
    assert ran.token_bank.positions[position_id].owner == "new-owner"


def test_restore_keeps_an_owner_transferred_after_the_snapshot():
    """Bank snapshots share position entries and a transfer edits the
    entry's owner in place: the snapshot sees the new owner and a restore
    keeps it, in step with the registry, which a rollback does not
    rewind."""
    system = nft_system()
    system.run(num_epochs=2)
    bank = system.token_bank
    position_id, entry = next(iter(bank.positions.items()))
    token_id = system.nft_registry.token_of(position_id)
    snapshot = bank.state_snapshot()
    system.nft_registry.transfer(ctx(system, entry.owner), token_id, "new-owner")
    assert snapshot["positions"][position_id].owner == "new-owner"
    bank.restore_state(snapshot)
    assert bank.positions[position_id].owner == "new-owner"
    assert system.nft_registry.owner_of(token_id) == "new-owner"


def test_transfer_requires_ownership(ran):
    position_id = next(iter(ran.token_bank.positions))
    token_id = ran.nft_registry.token_of(position_id)
    with pytest.raises(RevertError):
        ran.nft_registry.transfer(ctx(ran, "stranger"), token_id, "thief")


def test_transferred_position_usable_next_epoch():
    system = nft_system()
    system.run(num_epochs=2)
    candidates = [
        (pid, e) for pid, e in system.token_bank.positions.items()
        if pid in system.executor.positions
    ]
    position_id, entry = candidates[0]
    token_id = system.nft_registry.token_of(position_id)
    buyer = system.population.addresses[-1]
    system.nft_registry.transfer(ctx(system, entry.owner), token_id, buyer)
    # Run another epoch: the ownership merge happens at the boundary.
    system.run(num_epochs=1)
    record = system.executor.positions.get(position_id)
    if record is not None:  # unless traffic burned it meanwhile
        assert record.owner == buyer
        burn = BurnTx(user=buyer, position_id=position_id)
        assert system.executor.process(burn), burn.reject_reason


def test_nft_burned_with_position():
    system = nft_system(daily_volume=0)
    system.setup()
    lp = system.population.addresses[0]
    mint = MintTx(user=lp, tick_lower=-600, tick_upper=600,
                  amount0_desired=10**18, amount1_desired=10**18)
    system.queue.append(mint)
    system.run(num_epochs=1)
    position_id = mint.effects["position_id"]
    assert system.nft_registry.token_of(position_id) is not None
    system.queue.append(BurnTx(user=lp, position_id=position_id))
    system.run(num_epochs=1)
    assert system.nft_registry.token_of(position_id) is None


def test_nft_mint_idempotent_across_mass_sync():
    system = nft_system(fault_plan=withheld_syncs(0))
    system.run(num_epochs=2)
    token_ids = [
        system.nft_registry.token_of(pid) for pid in system.token_bank.positions
    ]
    assert len(token_ids) == len(set(token_ids))


def test_unknown_token_rejected(ran):
    with pytest.raises(RevertError):
        ran.nft_registry.owner_of(999_999)
