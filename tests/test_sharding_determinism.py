"""Bit-identity: shard scheduler job counts, scenario jobs, resume."""

import multiprocessing

import pytest

from repro.core.system import AmmBoostConfig
from repro.scenarios.runner import ScenarioRunner
from repro.scenarios.shard import (
    cross_shard_ratio_spec,
    hot_shard_spec,
    shard_scaling_spec,
)
from repro.sharding import ShardedConfig, ShardedSystem

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()


def small_base(seed: int = 0) -> AmmBoostConfig:
    return AmmBoostConfig(
        committee_size=8,
        miner_population=16,
        num_users=10,
        daily_volume=400_000,
        rounds_per_epoch=6,
        seed=seed,
    )


def run_with_jobs(jobs: int):
    config = ShardedConfig(
        num_shards=4,
        num_pools=8,
        base=small_base(),
        cross_shard_ratio=0.25,
        jobs=jobs,
    )
    return ShardedSystem(config).run(num_epochs=3)


@pytest.mark.skipif(not HAVE_FORK, reason="scheduler needs fork to parallelise")
class TestSchedulerBitIdentity:
    def test_jobs_2_matches_serial(self):
        serial = run_with_jobs(1)
        parallel = run_with_jobs(2)
        assert parallel.digest() == serial.digest()
        assert parallel.aggregate_processed == serial.aggregate_processed
        assert parallel.transfers == serial.transfers

    def test_jobs_4_matches_serial(self):
        serial = run_with_jobs(1)
        parallel = run_with_jobs(4)
        assert parallel.digest() == serial.digest()


class TestIdIsolation:
    def test_outer_ids_survive_a_sharded_run(self):
        """A sharded run leaves a caller's live deployment's next id and
        the caller's hand-built ids untouched."""
        from repro.core.system import AmmBoostSystem
        from repro.core.transactions import SwapTx

        caller = AmmBoostSystem(small_base())
        caller_next = caller.ids()
        before = SwapTx(user="probe", amount=1).tx_id
        run_with_jobs(1)
        assert caller.ids() == caller_next + 1
        assert SwapTx(user="probe", amount=1).tx_id == before - 1


class TestScenarioDeterminism:
    @pytest.mark.parametrize(
        "builder", [shard_scaling_spec, hot_shard_spec, cross_shard_ratio_spec]
    )
    def test_scenario_jobs_invariant(self, builder, monkeypatch):
        monkeypatch.setenv("REPRO_FAST", "1")
        spec = builder()
        serial = ScenarioRunner(jobs=1).run(spec)
        if HAVE_FORK:
            parallel = ScenarioRunner(jobs=4).run(spec)
            assert parallel.rows == serial.rows

    def test_resume_serves_identical_rows(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FAST", "1")
        spec = shard_scaling_spec()
        store = tmp_path / "store"
        fresh = ScenarioRunner(jobs=1, store=store).run(spec)
        runner = ScenarioRunner(jobs=1, store=store, resume=True)
        resumed = runner.run(spec)
        assert resumed.rows == fresh.rows
        assert all(record["cached"] for record in runner.point_records)
