"""Pool-to-shard placement: pools are dealt once and stay put.

A sharded deployment partitions its logical pools across ``S`` shards
when it is built: pool ``i`` goes to shard ``i % S``, so every shard owns
within one pool of every other and load skew comes only from traffic.
The assignment is a pure function of the ordered pool-id list and the
shard count (no RNG state), so every worker process derives the same
one under any job count.  Nothing moves a pool afterwards.
"""

from __future__ import annotations

from typing import Mapping, Sequence


def round_robin(pool_ids: Sequence[str], num_shards: int) -> dict[str, int]:
    """``pool_id -> shard``: pool ``i`` goes to shard ``i % num_shards``."""
    return {
        pool_id: index % num_shards for index, pool_id in enumerate(pool_ids)
    }


def pools_of(assignment: Mapping[str, int], shard: int) -> tuple[str, ...]:
    """The pools ``assignment`` places on ``shard``, in pool-id order."""
    return tuple(sorted(p for p, s in assignment.items() if s == shard))
