"""Declarative fault plans: a typed timeline of faults across layers.

A :class:`FaultPlan` is *data* — an ordered tuple of typed events that the
fault engine compiles onto whichever layer each event targets:

* **message layer** (the Δ-bounded :class:`~repro.simulation.network.Network`
  and the message-level :class:`~repro.sidechain.pbft.PbftRound`):
  :class:`Partition`, :class:`Crash`, :class:`Delay`, :class:`Drop`,
  :class:`Corrupt`;
* **epoch layer** (:class:`~repro.core.system.AmmBoostSystem` driven by the
  fitted :class:`~repro.sidechain.timing.AgreementTimeModel`):
  :class:`SyncWithhold`, :class:`ViewChangeBurst`, :class:`Rollback`.

Message-layer times are seconds on the simulated clock; epoch-layer events
are keyed by epoch (and round) index.  Events are declarative and frozen,
so a plan can be validated against the paper's adversary budget (Section
III: at most ``f`` of ``3f + 2`` members faulty) before anything runs, and
the same plan is trivially picklable into scenario worker processes.

The empty plan compiles to *nothing*: no layer changes behaviour, which is
what keeps default runs byte-identical to the fault-free engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.errors import ConfigurationError
from repro.simulation.clock import SimClock
from repro.telemetry import trace


# ---------------------------------------------------------------------------
# message-layer events
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Partition:
    """Cut ``members`` off from the rest of the network during [start, end).

    Messages crossing the cut — in either direction — are dropped.  Healing
    is implicit at ``end``; liveness then recovers through view changes
    (the engine has no transport-level retransmission).
    """

    start: float
    end: float
    members: frozenset[str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "members", frozenset(self.members))
        if self.end < self.start:
            raise ConfigurationError(
                f"partition heals before it starts ({self.end} < {self.start})"
            )
        if not self.members:
            raise ConfigurationError("partition isolates no members")


@dataclass(frozen=True)
class Crash:
    """``node`` is down during [start, end): sends nothing, receives nothing.

    ``end=None`` means the node never recovers.  A recovering node re-arms
    its view timeout and rejoins the protocol mid-flight.
    """

    start: float
    node: str
    end: float | None = None

    def __post_init__(self) -> None:
        if self.end is not None and self.end < self.start:
            raise ConfigurationError(
                f"crash recovers before it starts ({self.end} < {self.start})"
            )


@dataclass(frozen=True)
class Delay:
    """Add ``extra`` seconds to matching messages sent during [start, end).

    With ``respect_delta`` (the default) the total delay is clamped to the
    network's Δ bound — the paper's bounded-delay assumption still holds.
    Setting it False models an interval where the bound is violated.
    ``sender``/``recipient`` filter by node name (None matches any).
    """

    start: float
    end: float
    extra: float
    sender: str | None = None
    recipient: str | None = None
    respect_delta: bool = True

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ConfigurationError("delay window ends before it starts")
        if self.extra < 0:
            raise ConfigurationError("extra delay must be non-negative")


@dataclass(frozen=True)
class Drop:
    """Drop a ``fraction`` of matching messages sent during [start, end).

    Dropping violates the Δ-delivery assumption for the affected traffic,
    so model-respecting plans only aim drops at faulty members (see
    :mod:`repro.faults.generate`).  Draws come from the driver's own RNG
    substream, never from the network's delay stream.
    """

    start: float
    end: float
    fraction: float
    sender: str | None = None
    recipient: str | None = None

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ConfigurationError("drop window ends before it starts")
        if not 0.0 <= self.fraction <= 1.0:
            raise ConfigurationError(
                f"drop fraction must be in [0, 1], got {self.fraction}"
            )


@dataclass(frozen=True)
class Corrupt:
    """Corrupt ``node`` for the whole instance (slowly-adaptive adversary).

    The switches mirror :class:`~repro.sidechain.pbft.NodeBehavior` — the
    concrete behaviours of the paper's interruption analysis, plus
    ``corrupt_votes`` (invalid vote signatures), which exercises the
    aggregate-verification fallback and its per-node attribution.
    """

    node: str
    silent_as_leader: bool = False
    propose_invalid: bool = False
    withhold_votes: bool = False
    corrupt_votes: bool = False


# ---------------------------------------------------------------------------
# epoch-layer events
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SyncWithhold:
    """The leader of ``epoch`` withholds the Sync call (Section IV-C).

    Recovered by the next epoch's mass-sync through the key hand-over
    certificate chain.
    """

    epoch: int


@dataclass(frozen=True)
class ViewChangeBurst:
    """``views`` leader replacements interrupt one meta-block round.

    Each view change costs one agreement time of the committee (charged
    through the fitted :class:`~repro.sidechain.timing.AgreementTimeModel`),
    stretching the round and shifting every later round of the epoch.
    """

    epoch: int
    round_index: int
    views: int = 1

    def __post_init__(self) -> None:
        if self.views < 1:
            raise ConfigurationError("a view-change burst needs >= 1 views")
        if self.round_index < 0:
            raise ConfigurationError("round_index must be non-negative")


@dataclass(frozen=True)
class Rollback:
    """Fork the mainchain at the end of ``epoch``.

    ``depth=None`` targets the epoch's own sync: blocks are produced until
    it confirms, then the chain rolls back to just before its block —
    the fork scenario of the recovery experiments.  An explicit depth
    rolls back that many blocks (clamped to what the chain allows).
    """

    epoch: int
    depth: int | None = None

    def __post_init__(self) -> None:
        if self.depth is not None and self.depth < 1:
            raise ConfigurationError("rollback depth must be >= 1")


MESSAGE_EVENT_TYPES = (Partition, Crash, Delay, Drop, Corrupt)
EPOCH_EVENT_TYPES = (SyncWithhold, ViewChangeBurst, Rollback)
FaultEvent = (
    Partition | Crash | Delay | Drop | Corrupt
    | SyncWithhold | ViewChangeBurst | Rollback
)


# ---------------------------------------------------------------------------
# the plan
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, validated timeline of fault events."""

    events: tuple[FaultEvent, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))
        for event in self.events:
            if not isinstance(event, MESSAGE_EVENT_TYPES + EPOCH_EVENT_TYPES):
                raise ConfigurationError(
                    f"unknown fault event type: {type(event).__name__}"
                )

    # -- queries ---------------------------------------------------------------

    def is_empty(self) -> bool:
        return not self.events

    def __iter__(self) -> Iterator[FaultEvent]:
        return iter(self.events)

    def of_type(self, *types) -> tuple:
        return tuple(e for e in self.events if isinstance(e, types))

    def message_events(self) -> tuple:
        return self.of_type(*MESSAGE_EVENT_TYPES)

    def epoch_events(self) -> tuple:
        return self.of_type(*EPOCH_EVENT_TYPES)

    def faulty_nodes(self) -> frozenset[str]:
        """Every node a partition, crash or corruption touches.

        This is the set the Section III budget constrains: a plan is
        model-respecting when it stays within ``f`` of ``3f + 2``.
        (Delays and drops are attributed to the network adversary, not
        the member budget, but model-respecting generators still aim
        drops only at faulty nodes.)
        """
        nodes: set[str] = set()
        for event in self.events:
            if isinstance(event, Partition):
                nodes |= event.members
            elif isinstance(event, (Crash, Corrupt)):
                nodes.add(event.node)
        return frozenset(nodes)

    def behaviors(self) -> dict:
        """Compile :class:`Corrupt` events into PBFT ``NodeBehavior``s."""
        from repro.sidechain.pbft import NodeBehavior

        behaviors: dict[str, NodeBehavior] = {}
        for event in self.of_type(Corrupt):
            existing = behaviors.get(event.node)
            behaviors[event.node] = NodeBehavior(
                silent_as_leader=event.silent_as_leader
                or bool(existing and existing.silent_as_leader),
                propose_invalid=event.propose_invalid
                or bool(existing and existing.propose_invalid),
                withhold_votes=event.withhold_votes
                or bool(existing and existing.withhold_votes),
                corrupt_votes=event.corrupt_votes
                or bool(existing and existing.corrupt_votes),
            )
        return behaviors

    def withheld_sync_epochs(self) -> set[int]:
        return {e.epoch for e in self.of_type(SyncWithhold)}

    def validate_budget(self, members: list[str], f: int) -> None:
        """Reject plans whose member faults exceed the adversary budget.

        ``f`` is the paper's fault tolerance for a ``3f + 2`` committee;
        every partitioned, crashed or corrupted member counts against it.
        """
        faulty = self.faulty_nodes() & set(members)
        if len(faulty) > f:
            raise ConfigurationError(
                f"plan faults {len(faulty)} members ({sorted(faulty)}) "
                f"but the adversary budget is f={f}"
            )

    # -- construction ----------------------------------------------------------

    def extend(self, *events: FaultEvent) -> "FaultPlan":
        """A new plan with ``events`` appended (plans are immutable)."""
        return FaultPlan(self.events + tuple(events))


#: The no-op plan: compiles onto every layer as "change nothing".
EMPTY_PLAN = FaultPlan()


@dataclass
class FaultRecord:
    """One fault the engine actually applied, for the run's fault log.

    The log is the "no silent hangs" half of the invariant suite: an epoch
    that never finalizes must be accounted for by a record.
    """

    epoch: int
    kind: str
    round_index: int | None = None
    detail: str = ""
    delay: float = 0.0


class FaultSession:
    """Per-run fault state for the epoch-level system.

    Indexes the plan's epoch events for O(1) phase queries and accumulates
    the :class:`FaultRecord` log as faults are applied; each record is
    also a ``fault.<kind>`` trace instant at the ``clock``'s virtual time.
    Message-layer events are ignored here — the epoch-level system has no
    message network; its consensus cost flows through the timing model.
    """

    def __init__(self, plan: FaultPlan, clock: SimClock) -> None:
        self.plan = plan
        self.clock = clock
        self.log: list[FaultRecord] = []
        self._withheld = plan.withheld_sync_epochs()
        self._bursts: dict[tuple[int, int], int] = {}
        for event in plan.of_type(ViewChangeBurst):
            key = (event.epoch, event.round_index)
            self._bursts[key] = self._bursts.get(key, 0) + event.views
        self._rollbacks: dict[int, Rollback] = {
            e.epoch: e for e in plan.of_type(Rollback)
        }

    def sync_withheld(self, epoch: int) -> bool:
        return epoch in self._withheld

    def view_changes(self, epoch: int, round_index: int) -> int:
        return self._bursts.get((epoch, round_index), 0)

    def rollback_for(self, epoch: int) -> Rollback | None:
        return self._rollbacks.get(epoch)

    def record(
        self,
        epoch: int,
        kind: str,
        round_index: int | None = None,
        detail: str = "",
        delay: float = 0.0,
    ) -> FaultRecord:
        record = FaultRecord(
            epoch=epoch, kind=kind, round_index=round_index,
            detail=detail, delay=delay,
        )
        self.log.append(record)
        trace.instant(
            f"fault.{kind}",
            self.clock.now,
            epoch=epoch,
            round_index=round_index,
            detail=detail,
        )
        return record

    def interrupted_epochs(self) -> set[int]:
        """Epochs the log shows were interrupted (in any way)."""
        return {record.epoch for record in self.log}

    def total_fault_delay(self) -> float:
        """Seconds of consensus time the applied faults cost."""
        return sum((record.delay for record in self.log), 0.0)
