"""Surviving interruptions: malicious leaders, mass-sync, rollbacks.

Demonstrates Section IV-C's recovery machinery end to end:

1. message-level PBFT replacing a silent and an equivocating leader;
2. a sync-withholding epoch leader recovered by the next committee's
   mass-sync with a key hand-over certificate;
3. a mainchain rollback that abandons a confirmed sync, recovered the
   same way (TokenBank state rewinds, then re-syncs).

Run with::

    python examples/adversarial_epoch.py
"""

from repro import constants
from repro.core.system import AmmBoostConfig, AmmBoostSystem
from repro.crypto.keys import generate_keypair
from repro.faults import FaultPlan, SyncWithhold
from repro.sidechain.adversary import corrupt_members
from repro.sidechain.pbft import PbftConfig, PbftRound
from repro.simulation.events import EventScheduler
from repro.simulation.network import Network
from repro.simulation.rng import DeterministicRng


def demo_view_change() -> None:
    print("== 1. PBFT view change against bad leaders ==")
    members = [f"miner{i}" for i in range(8)]  # 3f+2 with f=2
    keypairs = {m: generate_keypair(m) for m in members}
    for label, behaviors in (
        ("honest leader", {}),
        ("silent leader", corrupt_members(members, 1, silent_as_leader=True)),
        ("invalid proposer", corrupt_members(members, 1, propose_invalid=True)),
        ("two bad leaders", corrupt_members(members, 2, silent_as_leader=True)),
    ):
        scheduler = EventScheduler()
        network = Network(scheduler, DeterministicRng(7))
        pbft = PbftRound(
            PbftConfig(
                members=members,
                quorum=constants.committee_quorum(len(members)),
                view_timeout=1.0,
            ),
            network, scheduler, keypairs,
            proposer_fn=lambda view: {"meta-block": view},
            validator=lambda p: isinstance(p, dict),
            behaviors=behaviors,
        )
        outcome = pbft.run_to_completion()
        print(f"  {label:<18} decided={outcome.decided} "
              f"view={outcome.view} t={outcome.decided_at:.2f}s")


def demo_mass_sync() -> None:
    print("\n== 2. Sync-withholding leader -> mass-sync recovery ==")
    system = AmmBoostSystem(
        AmmBoostConfig(
            committee_size=10, miner_population=20, num_users=10,
            daily_volume=150_000, rounds_per_epoch=6, seed=11,
        ),
        # epoch 1's leader withholds the sync
        fault_plan=FaultPlan((SyncWithhold(epoch=1),)),
    )
    system.run(num_epochs=3)
    for epoch in range(3):
        print(f"  epoch {epoch}: synced={system.ledger.is_synced(epoch)} "
              f"meta-blocks pruned={not system.ledger.live_meta_blocks(epoch)}")
    mass = [
        tx for block in system.mainchain.blocks for tx in block.transactions
        if tx.label == "sync" and len(tx.args[0].summaries) > 1
    ]
    print(f"  mass-sync covered epochs {mass[0].args[0].epochs} with "
          f"{len(mass[0].args[0].handovers)} hand-over certificate(s)")


def demo_rollback() -> None:
    print("\n== 3. Mainchain rollback -> re-sync ==")
    system = AmmBoostSystem(
        AmmBoostConfig(
            committee_size=10, miner_population=20, num_users=10,
            daily_volume=150_000, rounds_per_epoch=6, seed=13,
        )
    )
    system.setup()
    system.run_epoch(0, inject=True)
    system.settle_syncs()
    print(f"  epoch 0 synced, TokenBank at epoch {system.token_bank.last_synced_epoch}")

    sync_tx = next(
        tx for block in system.mainchain.blocks
        for tx in block.transactions if tx.label == "sync"
    )
    depth = system.mainchain.height - sync_tx.block_number
    affected = system.inject_mainchain_rollback(depth)
    print(f"  rollback of {depth} blocks abandoned {affected} sync tx; "
          f"TokenBank rewound to epoch {system.token_bank.last_synced_epoch}")

    system.run_epoch(1, inject=True)
    system.settle_syncs()
    print(f"  next epoch mass-synced; TokenBank now at epoch "
          f"{system.token_bank.last_synced_epoch}")
    consistent = all(
        system.token_bank.deposit_of(u) == (b[0], b[1])
        for u, b in system.executor.deposits.items()
    )
    print(f"  mainchain == sidechain state: {consistent}")


if __name__ == "__main__":
    demo_view_change()
    demo_mass_sync()
    demo_rollback()
