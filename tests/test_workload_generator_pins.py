"""The traffic generator draws exactly the transactions it always did.

Each digest covers ``repr`` of every transaction of five rounds generated
after a two-epoch warm-up (so users hold positions and burns, collects
and top-ups draw from them), plus the generator's ``generated_counts``.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.system import AmmBoostConfig, AmmBoostSystem
from repro.workload.distribution import TrafficDistribution

_PINNED = {
    "uniswap_2023": "f1f12326a0468cf6d744b75c7db6c0dbaa7b2a155d5f7c16f255958b5745cf8c",
    "20/40/20/20": "c1beba4a6ca9f50cbb4e52a7ca47bb447accd1581765a02ee8ca94133ca7756f",
}


def _generated_digest(distribution: TrafficDistribution) -> str:
    system = AmmBoostSystem(
        AmmBoostConfig(
            seed=5,
            committee_size=8,
            num_users=16,
            rounds_per_epoch=4,
            daily_volume=500_000,
        ),
        distribution,
    )
    system.setup()
    for epoch in range(2):
        system.run_epoch(epoch, inject=True)
    assert any(user.positions for user in system.population.users)
    h = hashlib.sha256()
    for round_index in range(5):
        txs = system.generator.generate_round(
            150, 1000.0 + round_index, system.pool.tick + 60 * round_index
        )
        for tx in txs:
            h.update(repr(tx).encode())
    h.update(repr(sorted(system.generator.generated_counts.items())).encode())
    return h.hexdigest()


@pytest.mark.parametrize(
    "name, distribution",
    [
        ("uniswap_2023", TrafficDistribution.uniswap_2023()),
        ("20/40/20/20", TrafficDistribution.from_percentages(20, 40, 20, 20)),
    ],
)
def test_generated_transactions_are_pinned(name, distribution):
    assert _generated_digest(distribution) == _PINNED[name]
