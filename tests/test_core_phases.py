"""Tests for the composable epoch-phase pipeline (repro.core.phases)."""

import pytest

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


# -- committee reuse window (amortized election/DKG) --------------------------


def test_committee_reuse_default_rekeys_every_epoch():
    """Window of 1 (the default) is the original pipeline: one election,
    DKG and certified hand-over at every epoch boundary.  Byte-level
    equivalence with the pre-window output is additionally pinned by the
    golden fixtures (`baseline check` recomputes them on every CI run).
    """
    system = small_system()
    assert system.config.committee_reuse_epochs == 1
    system.run(num_epochs=4)
    assert sorted(system._handover_certs) == [1, 2, 3, 4]


def test_committee_reuse_explicit_window_one_is_identical():
    default = small_system(seed=23)
    explicit = small_system(seed=23, committee_reuse_epochs=1)
    m_default = default.run(num_epochs=3)
    m_explicit = explicit.run(num_epochs=3)
    assert m_default.processed_txs == m_explicit.processed_txs
    assert m_default.total_gas == m_explicit.total_gas
    assert sorted(default._handover_certs) == sorted(explicit._handover_certs)


def test_committee_reuse_window_amortizes_rekeying():
    """W=3: hand-over certificates only at window boundaries, the sitting
    committee (same members, same group key) carried in between.
    """
    system = small_system(seed=23, committee_reuse_epochs=3)
    system.run(num_epochs=6)
    assert sorted(system._handover_certs) == [3, 6]


def test_committee_reuse_does_not_perturb_traffic():
    """The DKG draws from `dkg{epoch}` named substreams, so skipping
    re-keying inside the window must not shift any other RNG consumer:
    the simulated workload is identical whatever the window.
    """
    rekey_every = small_system(seed=23)
    reuse = small_system(seed=23, committee_reuse_epochs=3)
    m1 = rekey_every.run(num_epochs=6)
    m3 = reuse.run(num_epochs=6)
    assert m1.processed_txs == m3.processed_txs
    assert m1.total_gas == m3.total_gas


def test_committee_reuse_window_carries_group_key():
    system = small_system(seed=23, committee_reuse_epochs=3)
    system.setup()
    keys = []
    for epoch in range(4):
        system.run_epoch(epoch, inject=True)
        keys.append(system._auth.group_vk)
    # keys[i] is the auth installed at epoch i's end, i.e. the one epoch
    # i+1 runs under.  With a window of 3 the genesis key serves epochs
    # 0-2 (carried at the ends of epochs 0 and 1), the re-key happens
    # during epoch 2 for epoch 3, and that new key is then carried again.
    assert keys[0] == keys[1]
    assert keys[1] != keys[2]
    assert keys[2] == keys[3]


def test_committee_reuse_window_must_be_positive():
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        small_system(committee_reuse_epochs=0)
