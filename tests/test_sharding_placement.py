"""Placement: pool ``i`` goes to shard ``i % S``, listed in pool-id order."""

from repro.sharding.placement import pools_of, round_robin

POOLS = tuple(f"pool-{i}" for i in range(8))


class TestRoundRobin:
    def test_balanced(self):
        assignment = round_robin(POOLS, 4)
        counts = [len(pools_of(assignment, s)) for s in range(4)]
        assert counts == [2, 2, 2, 2]


class TestValidation:
    def test_pools_of_sorted(self):
        assignment = {"pool-2": 0, "pool-0": 0, "pool-1": 1}
        assert pools_of(assignment, 0) == ("pool-0", "pool-2")
