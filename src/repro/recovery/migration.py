"""Live pool migration: move a logical pool between shards mid-run.

Pools are *virtual* in the shard engine — each shard committee runs one
AMM book and logical pools are routing labels over it — so migrating a
pool is a deterministic metadata handoff, not a state copy: the source
sheds the pool's routing label and its share of arrival volume, seals
both (plus a digest of its book at the handoff) into a
:class:`PoolManifest`, and the destination activates them one boundary
later.  The handoff rides the same per-shard settlement inboxes the
escrow machinery uses, so it inherits the bridge's ordering and
offline-deferral semantics for free:

* boundary ``b``: :class:`BeginPoolMigration` reaches the source shard,
  which sheds the pool before running epoch ``b`` and reports the sealed
  manifest in its epoch record;
* boundary ``b+1``: :class:`CompletePoolMigration` reaches the
  destination (which gains the pool and its volume before epoch ``b+1``)
  while every other online shard gets an :class:`AssignmentUpdate`; the
  coordinator's router assignment flips atomically at the same boundary.

During the window the pool has no owner taking new cross-shard traffic:
the registry aborts in-flight legs against it with the retryable
``pool_migrating`` reason, and legs routed by a stale assignment (a
shard offline through the update) abort retryably as ``stale_route``.
Senders are refunded through the ordinary escrow path, so conservation
holds across the handoff.

Migrations are driven by a :class:`RebalancePolicy` — either scripted
(:class:`ScheduledMigrations`) or reactive
(:class:`DrainHottestShard`, which moves a pool off the shard with the
deepest observed queue).  The :class:`MigrationEngine` is the
coordinator-side state machine that turns policy decisions into
boundary directives and tracks every in-window pool.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.errors import ConfigurationError, PlacementError
from repro.telemetry import trace


@dataclass(frozen=True)
class PoolManifest:
    """Sealed handoff summary for one migrating pool.

    ``volume_moved`` is the slice of the source's daily volume the pool
    carries (``daily_volume // owned_pool_count`` at seal time — integer
    math so the handoff is exact and deterministic).  ``book_digest``
    fingerprints the source's AMM book at the seal, tying the manifest
    to the epoch summary it shipped in.
    """

    pool_id: str
    from_shard: int
    to_shard: int
    sealed_epoch: int
    volume_moved: int
    book_digest: str


@dataclass(frozen=True)
class BeginPoolMigration:
    """Boundary directive to the source shard: shed the pool now."""

    pool_id: str
    to_shard: int


@dataclass(frozen=True)
class CompletePoolMigration:
    """Boundary directive to the destination: activate the manifest."""

    manifest: PoolManifest


@dataclass(frozen=True)
class AssignmentUpdate:
    """Boundary directive to bystander shards: the pool moved."""

    pool_id: str
    shard: int


MigrationDirective = BeginPoolMigration | CompletePoolMigration | AssignmentUpdate


class RebalancePolicy:
    """Interface: propose pool moves at an epoch boundary.

    ``decide`` sees the boundary epoch, each shard's observed queue
    pressure (cumulative ``peak_queue_depth`` from the previous epoch's
    records; empty at the first boundary), and the current assignment;
    it returns ``(pool_id, to_shard)`` moves.  The engine enforces
    ``cooldown_epochs`` between decisions and caps the run at
    ``max_moves`` (``None`` = unlimited).
    """

    cooldown_epochs: int = 0
    max_moves: int | None = None

    def decide(
        self,
        epoch: int,
        queue_depths: Mapping[int, int],
        assignment: Mapping[str, int],
    ) -> Sequence[tuple[str, int]]:
        raise NotImplementedError


@dataclass(frozen=True)
class ScheduledMigrations(RebalancePolicy):
    """Scripted moves: ``(boundary_epoch, pool_id, to_shard)`` each."""

    moves: tuple[tuple[int, str, int], ...] = ()

    def __post_init__(self) -> None:
        for epoch, pool_id, to_shard in self.moves:
            if epoch < 1:
                raise ConfigurationError(
                    f"migration of {pool_id!r} scheduled for boundary "
                    f"{epoch}; the earliest handoff boundary is 1"
                )
            if to_shard < 0:
                raise ConfigurationError(
                    f"migration of {pool_id!r} targets shard {to_shard}"
                )

    def decide(
        self,
        epoch: int,
        queue_depths: Mapping[int, int],
        assignment: Mapping[str, int],
    ) -> Sequence[tuple[str, int]]:
        return tuple(
            (pool_id, to_shard)
            for at_epoch, pool_id, to_shard in self.moves
            if at_epoch == epoch
        )


@dataclass(frozen=True)
class DrainHottestShard(RebalancePolicy):
    """Move one pool off the deepest-queued shard onto the shallowest.

    A move triggers when the hottest shard's observed queue is at least
    ``factor`` times the coldest's (and at least ``min_queue``); ties
    break to the lowest shard index and the first pool id in sorted
    order, so decisions are deterministic functions of the records.
    """

    factor: float = 2.0
    min_queue: int = 1
    cooldown_epochs: int = 2
    max_moves: int | None = 1

    def __post_init__(self) -> None:
        if self.factor < 1.0:
            raise ConfigurationError("drain factor must be >= 1")
        if self.min_queue < 1:
            raise ConfigurationError("min_queue must be >= 1")
        if self.cooldown_epochs < 0:
            raise ConfigurationError("cooldown_epochs must be >= 0")
        if self.max_moves is not None and self.max_moves < 1:
            raise ConfigurationError("max_moves must be >= 1 or None")

    def decide(
        self,
        epoch: int,
        queue_depths: Mapping[int, int],
        assignment: Mapping[str, int],
    ) -> Sequence[tuple[str, int]]:
        if len(queue_depths) < 2:
            return ()
        hot = min(queue_depths, key=lambda s: (-queue_depths[s], s))
        cold = min(queue_depths, key=lambda s: (queue_depths[s], s))
        if hot == cold or queue_depths[hot] < self.min_queue:
            return ()
        if queue_depths[hot] < self.factor * max(queue_depths[cold], 1):
            return ()
        owned = sorted(p for p, s in assignment.items() if s == hot)
        if not owned:
            return ()
        return ((owned[0], cold),)


class MigrationEngine:
    """Coordinator-side state machine turning policy moves into handoffs.

    Owns the authoritative assignment (shared with the router, flipped
    atomically at completion boundaries), tracks every in-window pool
    for the registry's retryable aborts, and defers directives for
    offline shards — a begin waits for its source, a completion for its
    destination, an assignment update for each bystander — so partitions
    stretch the window instead of losing the handoff.
    """

    def __init__(
        self,
        policy: RebalancePolicy,
        assignment: dict[str, int],
        num_shards: int,
    ) -> None:
        self.policy = policy
        self.assignment = assignment
        self.num_shards = num_shards
        #: pool -> destination shard, begin decided through completion.
        self.migrating: dict[str, int] = {}
        self._begin_queue: list[tuple[int, BeginPoolMigration]] = []
        self._sealed: list[PoolManifest] = []
        self._deferred: dict[int, list[AssignmentUpdate]] = {}
        self.history: list[PoolManifest] = []
        self._last_decision_epoch: int | None = None
        self._moves_decided = 0

    # -- per-boundary driving --------------------------------------------------

    def directives_for(
        self,
        epoch: int,
        offline: frozenset[int],
        queue_depths: Mapping[int, int],
    ) -> dict[int, list[MigrationDirective]]:
        """Everything migration-related to deliver at this boundary."""
        out: dict[int, list[MigrationDirective]] = {}
        self._flush_deferred(offline, out)
        self._complete_sealed(offline, out)
        self._decide(epoch, queue_depths)
        self._issue_begins(offline, out)
        return out

    def collect(self, records: Mapping[int, object]) -> None:
        """Pull sealed manifests out of the epoch's shard records."""
        sealed: list[PoolManifest] = []
        for index in sorted(records):
            sealed.extend(getattr(records[index], "manifests", ()))
        self._sealed.extend(sorted(sealed, key=lambda m: m.pool_id))

    @property
    def migrating_pools(self) -> frozenset[str]:
        return frozenset(self.migrating)

    def idle(self) -> bool:
        """True when no handoff is decided, sealed, or part-delivered."""
        return not (
            self.migrating or self._begin_queue or self._sealed
        )

    def counts(self) -> dict[str, int]:
        return {
            "migrations": len(self.history),
            "migrating": len(self.migrating),
        }

    # -- internals -------------------------------------------------------------

    def _flush_deferred(
        self,
        offline: frozenset[int],
        out: dict[int, list[MigrationDirective]],
    ) -> None:
        for shard in sorted(self._deferred):
            if shard not in offline:
                out.setdefault(shard, []).extend(self._deferred.pop(shard))

    def _complete_sealed(
        self,
        offline: frozenset[int],
        out: dict[int, list[MigrationDirective]],
    ) -> None:
        waiting: list[PoolManifest] = []
        for manifest in self._sealed:
            if manifest.to_shard in offline:
                waiting.append(manifest)
                continue
            out.setdefault(manifest.to_shard, []).append(
                CompletePoolMigration(manifest)
            )
            self.assignment[manifest.pool_id] = manifest.to_shard
            update = AssignmentUpdate(manifest.pool_id, manifest.to_shard)
            for shard in range(self.num_shards):
                if shard == manifest.to_shard:
                    continue
                if shard in offline:
                    self._deferred.setdefault(shard, []).append(update)
                else:
                    out.setdefault(shard, []).append(update)
            self.migrating.pop(manifest.pool_id, None)
            self.history.append(manifest)
        self._sealed = waiting

    def _decide(
        self, epoch: int, queue_depths: Mapping[int, int]
    ) -> None:
        cap = self.policy.max_moves
        if cap is not None and self._moves_decided >= cap:
            return
        if (
            self._last_decision_epoch is not None
            and epoch - self._last_decision_epoch
            <= self.policy.cooldown_epochs
        ):
            return
        moves = self.policy.decide(
            epoch, dict(queue_depths), dict(self.assignment)
        )
        for pool_id, to_shard in moves:
            source = self.assignment.get(pool_id)
            if source is None:
                raise PlacementError(
                    f"cannot migrate unknown pool {pool_id!r}"
                )
            if not 0 <= to_shard < self.num_shards:
                raise PlacementError(
                    f"cannot migrate pool {pool_id!r} to shard "
                    f"{to_shard}: only {self.num_shards} shard(s)"
                )
            if to_shard == source or pool_id in self.migrating:
                continue
            self.migrating[pool_id] = to_shard
            self._begin_queue.append(
                (source, BeginPoolMigration(pool_id, to_shard))
            )
            # Coordinator decisions have no simulated clock of their
            # own; like healing events, they land on the epoch axis.
            trace.instant(
                "migration.decided",
                float(epoch),
                pool=pool_id,
                from_shard=source,
                to_shard=to_shard,
            )
            self._last_decision_epoch = epoch
            self._moves_decided += 1
            if cap is not None and self._moves_decided >= cap:
                break

    def _issue_begins(
        self,
        offline: frozenset[int],
        out: dict[int, list[MigrationDirective]],
    ) -> None:
        waiting: list[tuple[int, BeginPoolMigration]] = []
        for source, begin in self._begin_queue:
            if source in offline:
                waiting.append((source, begin))
                continue
            out.setdefault(source, []).append(begin)
        self._begin_queue = waiting
