"""Ablation: what does TSQC authentication cost per sync?

``src/repro/crypto/README.md`` describes the sync-authentication
mechanism (threshold BLS over a symbolic pairing group) as a design choice:
the quorum certificate + threshold BLS adds a fixed pairing-check cost and
192 bytes per sync.  This ablation quantifies that share of the total
Sync gas, showing authentication is a small constant tax.
"""

from benchmarks.conftest import emit
from repro.core.system import AmmBoostConfig, AmmBoostSystem
from repro.experiments.common import ExperimentResult


def run_tsqc_ablation() -> ExperimentResult:
    system = AmmBoostSystem(
        AmmBoostConfig(
            committee_size=20, miner_population=40, num_users=50,
            daily_volume=500_000, rounds_per_epoch=10, seed=0,
        )
    )
    system.run(num_epochs=4)
    sync_txs = [
        tx
        for block in system.mainchain.blocks
        for tx in block.transactions
        if tx.label == "sync"
    ]
    rows = []
    total_auth = total_sync = 0
    for tx in sync_txs:
        auth = sum(v for k, v in tx.gas_breakdown.items() if k.startswith("auth"))
        total_auth += auth
        total_sync += tx.gas_used
        rows.append(
            [f"epoch sync #{tx.tx_id}", tx.gas_used, auth,
             round(100 * auth / tx.gas_used, 2)]
        )
    rows.append(
        ["TOTAL", total_sync, total_auth, round(100 * total_auth / total_sync, 2)]
    )
    return ExperimentResult(
        experiment_id="Ablation",
        title="TSQC authentication share of Sync gas",
        headers=["sync", "total gas", "auth gas", "auth %"],
        rows=rows,
    )


def test_ablation_tsqc_share(benchmark):
    result = benchmark.pedantic(run_tsqc_ablation, rounds=1, iterations=1)
    emit(result)
    total_row = result.rows[-1]
    # Authentication is a small constant tax on each sync (< 25%).
    assert 0 < total_row[3] < 25
