"""Tests for the composable epoch-phase pipeline (repro.core.phases)."""

from repro.core.phases import (
    CommitteeHandoverPhase,
    DepositMergePhase,
    EpochContext,
    EpochPhase,
    PruneRecoveryPhase,
    RoundExecutionPhase,
    SummarySyncPhase,
    WorkloadIngestPhase,
    default_epoch_phases,
)
from tests.conftest import small_system


def test_default_pipeline_order():
    phases = default_epoch_phases()
    assert [type(p) for p in phases] == [
        CommitteeHandoverPhase,
        DepositMergePhase,
        WorkloadIngestPhase,
        RoundExecutionPhase,
        SummarySyncPhase,
        PruneRecoveryPhase,
    ]
    # The round phase drives the same ingest instance that set the rate.
    assert phases[3].ingest is phases[2]


def test_phases_are_stateless_and_shareable():
    """One pipeline instance can drive two different systems."""
    pipeline = default_epoch_phases()
    a = small_system(seed=21)
    a.epoch_phases = pipeline
    b = small_system(seed=21)
    b.epoch_phases = pipeline
    metrics_a = a.run(num_epochs=2)
    metrics_b = b.run(num_epochs=2)
    assert metrics_a.processed_txs == metrics_b.processed_txs
    assert metrics_a.total_gas == metrics_b.total_gas


def test_epoch_context_populated():
    system = small_system()
    system.setup()
    ctx = system.run_epoch(0, inject=True)
    assert ctx.epoch == 0 and ctx.inject
    assert ctx.rho > 0
    assert ctx.rounds_used == system.config.rounds_per_epoch - 1
    assert ctx.summary_end > ctx.epoch_start
    assert ctx.initial_deposits  # captured at the boundary


def test_drain_epoch_closes_early():
    system = small_system()
    system.setup()
    system.run_epoch(0, inject=True)
    drain_ctx = system.run_epoch(1, inject=False)
    assert drain_ctx.rounds_used < system.config.rounds_per_epoch - 1


def test_custom_phase_pipeline_hook():
    """Extra phases slot into the loop without editing the system."""
    seen = []

    class ProbePhase(EpochPhase):
        def run(self, system, ctx):
            seen.append((ctx.epoch, len(system.queue)))

    system = small_system()
    system.epoch_phases = (*default_epoch_phases(), ProbePhase())
    system.run(num_epochs=2)
    assert [epoch for epoch, _ in seen[:2]] == [0, 1]


def test_epoch_phases_constructor_argument():
    from repro.core.system import AmmBoostConfig, AmmBoostSystem

    calls = []

    class CountingPhase(EpochPhase):
        def run(self, system, ctx):
            calls.append(ctx.epoch)

    system = AmmBoostSystem(
        AmmBoostConfig(
            committee_size=8, miner_population=16, num_users=5,
            daily_volume=50_000, rounds_per_epoch=4, seed=1,
        ),
        epoch_phases=(*default_epoch_phases(), CountingPhase()),
    )
    system.run(num_epochs=1)
    assert calls and calls[0] == 0


def test_phase_helpers_drive_single_stages():
    """Single stages of the loop can be driven through the phase layer."""
    system = small_system()
    system.setup()
    # Stage-driving skips DepositMergePhase, so load the epoch-0 deposit
    # snapshot by hand — without it every transaction is uncovered (and
    # zero-liquidity swaps are now typed rejections, not nothing-swaps).
    system.executor.begin_epoch(system.snapshot_bank.take(0).deposits)
    WorkloadIngestPhase.inject_traffic(system, 5, system.clock.now)
    assert len(system.queue) == 5
    WorkloadIngestPhase.enqueue_bootstrap(system, system.clock.now)
    RoundExecutionPhase.mine_meta_block(system, 0, 0, system.clock.now + 7)
    assert system.ledger.live_meta_blocks(0)
    assert system.metrics.processed_txs > 0


def test_workload_ingest_respects_custom_arrivals():
    class DoubleArrivals:
        def rate_for_round(self, base_rate, round_index, now):
            return base_rate * 2

    base = small_system(seed=17)
    base_metrics = base.run(num_epochs=2)
    doubled = small_system(seed=17)
    doubled.arrivals = DoubleArrivals()
    doubled_metrics = doubled.run(num_epochs=2)
    assert doubled_metrics.processed_txs > 1.5 * base_metrics.processed_txs


# -- committee hand-over -------------------------------------------------------


def test_committee_reuse_default_rekeys_every_epoch():
    """One election, DKG and certified hand-over at every epoch boundary.
    Byte-level equivalence with earlier trees is additionally pinned by
    the golden fixtures (`baseline check` recomputes them on every CI run).
    """
    system = small_system()
    system.run(num_epochs=4)
    assert sorted(system._handover_certs) == [1, 2, 3, 4]
