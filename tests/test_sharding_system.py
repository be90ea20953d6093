"""ShardedSystem end-to-end: routing, settlement, reports, edge cases."""

import pytest

from repro import constants
from repro.core.system import AmmBoostConfig
from repro.errors import ConfigurationError
from repro.sharding import ShardedConfig, ShardedSystem, round_robin
from repro.sharding.escrow import transfer_row
from repro.sharding.router import CrossShardRouter, TransferRegistry
from repro.workload.shard_mix import HotShardLoad
from tests.conftest import EndlessBacklog


def small_base(seed: int = 0, **overrides) -> AmmBoostConfig:
    defaults = dict(
        committee_size=8,
        miner_population=16,
        num_users=10,
        daily_volume=400_000,
        rounds_per_epoch=6,
        seed=seed,
    )
    defaults.update(overrides)
    return AmmBoostConfig(**defaults)


def run_sharded(**overrides):
    params = dict(
        num_shards=2, num_pools=4, base=small_base(), cross_shard_ratio=0.2
    )
    params.update(overrides)
    system = ShardedSystem(ShardedConfig(**params))
    return system, system.run(num_epochs=3)


class TestEndToEnd:
    def test_two_shards_settle_and_finalize(self):
        system, report = run_sharded()
        assert report.assignment == round_robin(system.config.pool_ids, 2)
        assert report.aggregate_processed > 0
        assert report.transfers["settled"] > 0
        assert report.transfers["aborted"] == 0
        assert report.transfers["prepared"] == 0  # nothing left in flight
        assert report.conservation_ok
        for final in report.per_shard.values():
            assert final.epochs_synced == final.epochs_run

    def test_single_shard_has_no_cross_shard_traffic(self):
        _, report = run_sharded(num_shards=1, num_pools=2)
        assert report.transfers == {
            "prepared": 0, "settled": 0, "aborted": 0,
        }
        assert report.aggregate_processed > 0

    def test_zero_ratio_disables_transfers(self):
        _, report = run_sharded(cross_shard_ratio=0.0)
        assert report.transfers["settled"] == 0

    def test_aggregate_throughput_is_per_shard_sum(self):
        _, report = run_sharded()
        total = sum(
            f.metrics["throughput_tps"] for f in report.per_shard.values()
        )
        assert report.aggregate_throughput == pytest.approx(total, abs=0.02)

    def test_hot_shard_skews_processing(self):
        _, hot = run_sharded(
            num_shards=4,
            num_pools=8,
            load_profile=HotShardLoad(hot_shard=0, factor=8.0),
            cross_shard_ratio=0.0,
        )
        processed = [
            hot.per_shard[i].metrics["processed_txs"] for i in range(4)
        ]
        assert processed[0] > 2 * max(processed[1:])

    def test_report_digest_is_stable(self):
        _, a = run_sharded()
        _, b = run_sharded()
        assert a.digest() == b.digest()

    def test_seed_changes_trajectory(self):
        _, a = run_sharded()
        _, b = run_sharded(base=small_base(seed=7))
        assert a.digest() != b.digest()


class TestConfigValidation:
    def test_bad_shard_count(self):
        with pytest.raises(ConfigurationError):
            ShardedConfig(num_shards=0)

    def test_bad_ratio(self):
        with pytest.raises(ConfigurationError):
            ShardedConfig(cross_shard_ratio=1.5)

    def test_default_pools_match_shards(self):
        config = ShardedConfig(num_shards=3)
        assert config.pool_ids == ("pool-0", "pool-1", "pool-2")


class TestRouterResolution:
    def make_registry(self) -> TransferRegistry:
        router = CrossShardRouter({"pool-0": 0, "pool-1": 1}, num_shards=2)
        return TransferRegistry(router)

    def transfer(self, tid: str, dest_shard: int = 1, dest_pool: str = "pool-1"):
        return transfer_row(
            transfer_id=tid, user="alice", source_shard=0,
            dest_shard=dest_shard, dest_pool=dest_pool,
            amount0=5, amount1=0, epoch=0, swap_amount=5,
        )

    def test_settle_delivers_credit_and_release(self):
        registry = self.make_registry()
        row = self.transfer("t")
        registry.add_prepares([row])
        instructions = registry.instructions_for(frozenset())
        assert instructions[1] == [("credit", row)]
        tag, tid, settle, _, _ = instructions[0][0]
        assert (tag, tid, settle) == ("resolve", "t", True)
        assert not registry.has_pending()
        assert registry.in_flight_value() == (0, 0)

    def test_offline_destination_aborts(self):
        registry = self.make_registry()
        registry.add_prepares([self.transfer("t")])
        instructions = registry.instructions_for(frozenset({1}))
        assert 1 not in instructions
        tag, _, settle, reason, _ = instructions[0][0]
        assert tag == "resolve"
        assert settle is False
        assert "partitioned" in reason

    def test_unknown_pool_owner_aborts(self):
        registry = self.make_registry()
        registry.add_prepares(
            [self.transfer("t", dest_shard=1, dest_pool="pool-0")]
        )
        instructions = registry.instructions_for(frozenset())
        tag, _, settle, reason, _ = instructions[0][0]
        assert tag == "resolve"
        assert settle is False
        assert "not on shard" in reason

    def test_offline_source_defers_resolution(self):
        registry = self.make_registry()
        registry.add_prepares([self.transfer("t")])
        first = registry.instructions_for(frozenset({0}))
        # Credit lands at the destination; source release is deferred.
        assert 1 in first and 0 not in first
        assert registry.has_pending()
        assert registry.in_flight_value() == (0, 0)  # value landed once
        second = registry.instructions_for(frozenset())
        assert [i[0] for i in second[0]] == ["resolve"]
        assert not registry.has_pending()


def test_sharded_run_fails_when_the_drain_never_ends(monkeypatch):
    monkeypatch.setattr(constants, "MAX_DRAIN_EPOCHS", 1)
    system = ShardedSystem(
        ShardedConfig(num_shards=2, base=small_base(), cross_shard_ratio=0.0)
    )
    for index in range(2):
        system.scheduler.shard(index).system.epoch_phases += (EndlessBacklog(),)
    with pytest.raises(ConfigurationError, match="sharded drain did not complete"):
        system.run(num_epochs=1)
    assert len(system.epoch_records) == 1 + 1 + 1
