"""Shard-targeted fault plans.

A :class:`ShardFault` aims fault machinery at ONE shard of a sharded
deployment (:mod:`repro.sharding`), leaving every other shard untouched:

* ``offline_epochs`` — the shard's committee is partitioned from both
  its users and the coordinator for those epochs: it mines no
  meta-blocks, issues no sync, and can neither release its escrows nor
  accept settle credits.  Cross-shard transfers *to* it abort cleanly
  (refunded on their source shard); transfers *from* it stay prepared
  until it heals.  Healing is implicit at the first epoch not in the
  set.
* ``plan`` — an epoch-layer :class:`~repro.faults.FaultPlan` (withheld
  syncs, view-change bursts, mainchain :class:`Rollback` forks)
  compiled onto that shard's chassis system exactly as a single-system
  plan would be; the shard's fault log ends up in its system's
  ``faults.log``.  A per-shard ``Rollback`` rewinds that shard's
  mainchain bank past bridge writes other shards already acted on; the
  coordinator's bridge journal (:mod:`repro.sharding.journal`) replays
  the rewound window and delivers compensating entries at the next
  boundary, so deployment-wide conservation holds through the fork.

The invariants the shard fault scenarios check: every *other* shard
keeps finalizing its epochs, and no cross-shard value is lost — aborted
transfers are refunded, in-flight ones settle after heal.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.faults.plan import EMPTY_PLAN, FaultPlan


@dataclass(frozen=True)
class ShardFault:
    """Faults aimed at one shard of a sharded deployment."""

    shard: int
    offline_epochs: frozenset[int] = frozenset()
    plan: FaultPlan = EMPTY_PLAN

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "offline_epochs", frozenset(self.offline_epochs)
        )
        if self.shard < 0:
            raise ConfigurationError(
                f"shard index must be non-negative, got {self.shard}"
            )
        if any(e < 0 for e in self.offline_epochs):
            raise ConfigurationError("offline epochs must be non-negative")
        if self.plan.message_events():
            raise ConfigurationError(
                "shard faults compile onto the epoch-level chassis; "
                "message-layer events do not apply (install them on a "
                "Network / PbftRound instead)"
            )


@dataclass
class ShardFaultBook:
    """Indexed view of a deployment's shard faults (O(1) queries)."""

    faults: tuple[ShardFault, ...] = ()
    _by_shard: dict[int, ShardFault] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        by_shard: dict[int, ShardFault] = {}
        for fault in self.faults:
            if fault.shard in by_shard:
                raise ConfigurationError(
                    f"multiple ShardFaults target shard {fault.shard}; "
                    "merge them into one"
                )
            by_shard[fault.shard] = fault
        self._by_shard = by_shard

    def validate(self, num_shards: int) -> None:
        for fault in self.faults:
            if fault.shard >= num_shards:
                raise ConfigurationError(
                    f"ShardFault targets shard {fault.shard} but the "
                    f"deployment has {num_shards} shard(s)"
                )

    def plan_for(self, shard: int) -> FaultPlan | None:
        fault = self._by_shard.get(shard)
        if fault is None or fault.plan.is_empty():
            return None
        return fault.plan

    def offline(self, shard: int, epoch: int) -> bool:
        fault = self._by_shard.get(shard)
        return fault is not None and epoch in fault.offline_epochs

    def offline_epochs_for(self, shard: int) -> frozenset[int]:
        fault = self._by_shard.get(shard)
        return fault.offline_epochs if fault is not None else frozenset()

    def any_offline(self, epoch: int) -> frozenset[int]:
        return frozenset(
            f.shard for f in self.faults if epoch in f.offline_epochs
        )
