"""The always-on quote/swap gateway.

:class:`QuoteGateway` is the serving front of the reproduction: it answers
quotes against an immutable copy-on-epoch :class:`~repro.amm.pool.PoolSnapshot`
(reads scale horizontally off the frozen view) and funnels swap submissions
into a bounded admission queue that the epoch pipeline drains through
:class:`~repro.serving.phases.GatewayIngestPhase` (writes stay epoch-serial).

Admission control is explicit and fully typed:

* a per-client token bucket refilled in virtual ticks (``rate_limited``);
* a bounded pending-quote buffer and admission queue (``queue_full``);
* a snapshot-age guard — when the gateway's read view lags the epoch
  boundary by more than ``max_snapshot_age`` epochs, or a client submits
  against a quote that old, the swap is refused (``stale_snapshot``);
* a draining flag for graceful shutdown (``shutting_down``): queued
  quotes are still served, new work is refused with a typed rejection.

Every request is therefore *exactly* accepted or rejected-with-reason —
the gateway never drops work silently and never hangs a caller.

One ticket per request: :meth:`QuoteGateway.quote` and
:meth:`QuoteGateway.submit` build a :class:`QuoteTicket` or
:class:`SwapTicket` and hand it back.  The ticket is the request, the
slot its answer lands in (``done``) and the answer itself, read through
``ticket.result()``: the same object from enqueue to log line.

Determinism: ``quote`` and ``submit`` only enqueue the ticket in a
per-tick inbox.  Requests are *decided* in
:meth:`QuoteGateway.process_tick`, which sorts the inbox by
``(client, seq)`` before touching any shared state, so outcomes are a
pure function of the request set, not of the order callers enqueued in.
Each client's token bucket is a ``[tokens, tick]`` pair, refilled and
charged in that order.  The gateway decides ticks and nothing else: who
runs between two ticks is the caller's business
(:mod:`repro.serving.clients`).
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Self

from repro.amm.pool import Pool, PoolSnapshot
from repro.core.transactions import IdSpace, SwapTx
from repro.errors import AMMError
from repro.telemetry import trace

REASON_QUEUE_FULL = "queue_full"
REASON_STALE_SNAPSHOT = "stale_snapshot"
REASON_RATE_LIMITED = "rate_limited"
REASON_SHUTTING_DOWN = "shutting_down"


@dataclass(frozen=True)
class GatewayConfig:
    """Admission-control knobs of one gateway instance."""

    #: Bound of the swap admission queue (submissions awaiting ingest).
    queue_capacity: int = 256
    #: Quotes served per tick (the read path's service rate).
    quote_capacity_per_tick: int = 512
    #: Bound of the pending-quote buffer (requests awaiting service).
    pending_quote_bound: int = 4096
    #: Token-bucket refill per tick and burst capacity, per client.
    bucket_rate: float = 2.0
    bucket_burst: float = 6.0
    #: Epochs the serving snapshot may lag the boundary before swap
    #: submissions are refused as ``stale_snapshot``.
    max_snapshot_age: int = 1
    #: Publish a fresh snapshot every this many epoch boundaries (1 =
    #: every boundary; >1 models a lagging read replica).
    publish_every: int = 1


class _Ticket:
    """What the two ticket kinds share: who asked, when, and the outcome.

    The answer fields (``accepted``, ``reason`` and the kind's own) are
    set by the tick that decides the ticket; read them through
    :meth:`result`.
    """

    __slots__ = (
        "client", "seq", "zero_for_one", "amount", "submitted_tick",
        "done", "error", "accepted", "reason",
    )

    client: int
    seq: int
    zero_for_one: bool
    amount: int
    submitted_tick: int
    done: bool
    error: AMMError | None
    accepted: bool
    reason: str | None

    def result(self) -> Self:
        """The decided ticket; raises the pool's own error if it failed."""
        if self.error is not None:
            raise self.error
        if not self.done:
            raise RuntimeError("ticket read before a tick decided it")
        return self


class QuoteTicket(_Ticket):
    """One quote: the request, its reply slot and its answer."""

    __slots__ = ("amount_in", "amount_out", "fee_paid", "snapshot_epoch", "served_tick")

    amount_in: int
    amount_out: int
    fee_paid: int
    #: Epoch of the snapshot that answered (-1 when refused).
    snapshot_epoch: int
    served_tick: int

    def __init__(
        self, client: int, seq: int, zero_for_one: bool, amount: int, submitted_tick: int
    ) -> None:
        self.client = client
        self.seq = seq
        self.zero_for_one = zero_for_one
        self.amount = amount
        self.submitted_tick = submitted_tick
        self.done = False
        self.error = None


class SwapTicket(_Ticket):
    """One quoted swap: the submission, its reply slot and its verdict."""

    __slots__ = ("user", "snapshot_epoch", "decided_tick")

    user: str
    #: Epoch of the snapshot the client quoted against (staleness check).
    snapshot_epoch: int
    decided_tick: int

    def __init__(
        self,
        client: int,
        seq: int,
        user: str,
        zero_for_one: bool,
        amount: int,
        snapshot_epoch: int,
        submitted_tick: int,
    ) -> None:
        self.client = client
        self.seq = seq
        self.user = user
        self.zero_for_one = zero_for_one
        self.amount = amount
        self.snapshot_epoch = snapshot_epoch
        self.submitted_tick = submitted_tick
        self.done = False
        self.error = None


#: The inbox's sort key: ``(client, seq)``, built once per ticket.
_BY_CLIENT_SEQ = attrgetter("client", "seq")


@dataclass
class GatewayStats:
    """Counters the scenarios and the benchmark read off a gateway."""

    quotes_served: int = 0
    quote_latency_ticks: list[int] = field(default_factory=list)
    quote_rejections: dict[str, int] = field(default_factory=dict)
    quote_errors: dict[str, int] = field(default_factory=dict)
    submits_accepted: int = 0
    submit_rejections: dict[str, int] = field(default_factory=dict)
    #: Admitted swaps the executor later refused (deadline, coverage...).
    executor_rejected: int = 0
    #: Epoch-boundary distance from submission to a confirmed sync.
    finality_epochs: list[int] = field(default_factory=list)
    peak_admission_queue: int = 0
    peak_pending_quotes: int = 0

    @property
    def quotes_rejected(self) -> int:
        return sum(self.quote_rejections.values())

    @property
    def submits_rejected(self) -> int:
        return sum(self.submit_rejections.values())


class QuoteGateway:
    """Serving gateway over one pool (see module docstring); admitted
    swaps are numbered from ``ids``, the deployment's id space."""

    def __init__(
        self, pool: Pool, ids: IdSpace, config: GatewayConfig | None = None
    ) -> None:
        self.pool = pool
        self.ids = ids
        self.config = config or GatewayConfig()
        self.snapshot: PoolSnapshot | None = None
        #: Current epoch as seen at the last boundary notification.
        self.epoch = 0
        #: Virtual time; advanced by :meth:`process_tick`.
        self.now_tick = 0
        self.draining = False
        self.stats = GatewayStats()
        self._inbox: list[QuoteTicket | SwapTicket] = []
        self._pending_quotes: deque[QuoteTicket] = deque()
        self._admitted: deque[SwapTx] = deque()
        #: ``(tx, submit_epoch)`` per admitted swap awaiting finality.
        self._inflight: list[tuple[SwapTx, int]] = []
        #: ``client -> [tokens, last refill tick]``: the token bucket.
        self._buckets: dict[int, list[float]] = {}

    # -- snapshot lifecycle ---------------------------------------------------

    def publish_snapshot(self, epoch: int) -> None:
        """Freeze the live pool into the serving view for ``epoch``."""
        self.snapshot = self.pool.freeze(epoch)
        self.epoch = epoch

    def on_epoch_boundary(self, epoch: int) -> None:
        """Boundary notification: refresh the view per ``publish_every``."""
        self.epoch = epoch
        snap = self.snapshot
        if snap is None or epoch - snap.epoch >= self.config.publish_every:
            self.publish_snapshot(epoch)

    # -- request entry points -------------------------------------------------

    def quote(self, client: int, seq: int, zero_for_one: bool, amount: int) -> QuoteTicket:
        """Enqueue a quote request; a later tick decides the ticket.

        A failed quote resolves with the frozen pool's own error
        (``NoLiquidityError`` et al.), which :meth:`QuoteTicket.result`
        raises exactly as the direct quoter would.
        """
        ticket = QuoteTicket(client, seq, zero_for_one, amount, self.now_tick)
        if self.draining:
            self._reject(ticket, REASON_SHUTTING_DOWN)
        else:
            self._inbox.append(ticket)
        return ticket

    def submit(
        self,
        client: int,
        seq: int,
        user: str,
        zero_for_one: bool,
        amount: int,
        snapshot_epoch: int,
    ) -> SwapTicket:
        """Enqueue a quoted swap; a later tick accepts or rejects it."""
        ticket = SwapTicket(
            client, seq, user, zero_for_one, amount, snapshot_epoch, self.now_tick
        )
        if self.draining:
            self._reject(ticket, REASON_SHUTTING_DOWN)
        else:
            self._inbox.append(ticket)
        return ticket

    # -- the deterministic decision pass --------------------------------------

    def process_tick(self) -> None:
        """Decide this tick's inbox and serve pending quotes.

        The inbox is sorted by ``(client, seq)`` first, so the outcome is
        independent of the order the requests were enqueued in.
        """
        traced = trace.enabled()
        prev_track = trace.set_track("gateway") if traced else ""
        try:
            self._admit(traced)
            self._serve_quotes(traced)
            self.now_tick += 1
        finally:
            if traced:
                trace.set_track(prev_track)

    def _admit(self, traced: bool) -> None:
        """Charge each ticket to its client's bucket, then queue a quote
        or decide a swap."""
        inbox = self._inbox
        self._inbox = []
        inbox.sort(key=_BY_CLIENT_SEQ)
        config = self.config
        now = self.now_tick
        rate, burst = config.bucket_rate, config.bucket_burst
        buckets = self._buckets
        pending, pending_bound = self._pending_quotes, config.pending_quote_bound
        admitted, capacity = self._admitted, config.queue_capacity
        inflight = self._inflight
        epoch = self.epoch
        oldest = epoch - config.max_snapshot_age
        snap = self.snapshot
        view_stale = snap is None or snap.epoch < oldest
        accepted = 0
        for ticket in inbox:
            bucket = buckets.get(ticket.client)
            if bucket is None:
                bucket = buckets[ticket.client] = [burst, 0]
            if now > bucket[1]:
                bucket[0] = min(burst, bucket[0] + (now - bucket[1]) * rate)
                bucket[1] = now
            if bucket[0] < 1.0:
                reason = REASON_RATE_LIMITED
            else:
                bucket[0] -= 1.0
                if isinstance(ticket, QuoteTicket):
                    if len(pending) < pending_bound:
                        pending.append(ticket)
                        continue
                    reason = REASON_QUEUE_FULL
                elif view_stale or ticket.snapshot_epoch < oldest:
                    reason = REASON_STALE_SNAPSHOT
                elif len(admitted) >= capacity:
                    reason = REASON_QUEUE_FULL
                else:
                    tx = SwapTx(
                        user=ticket.user,
                        zero_for_one=ticket.zero_for_one,
                        exact_input=True,
                        amount=ticket.amount,
                        tx_id=self.ids(),
                    )
                    admitted.append(tx)
                    inflight.append((tx, epoch))
                    accepted += 1
                    if traced:
                        trace.complete(
                            "gateway.submit",
                            ticket.submitted_tick,
                            now,
                            client=ticket.client,
                            seq=ticket.seq,
                        )
                    ticket.accepted = True
                    ticket.reason = None
                    ticket.decided_tick = now
                    ticket.done = True
                    continue
            self._reject(ticket, reason)
        # Both queues only grow while admitting, so their peaks are here.
        stats = self.stats
        stats.submits_accepted += accepted
        if len(pending) > stats.peak_pending_quotes:
            stats.peak_pending_quotes = len(pending)
        if len(admitted) > stats.peak_admission_queue:
            stats.peak_admission_queue = len(admitted)

    def _serve_quotes(self, traced: bool) -> None:
        pending = self._pending_quotes
        count = min(len(pending), self.config.quote_capacity_per_tick)
        snap = self.snapshot
        if snap is None:
            for _ in range(count):
                self._reject(pending.popleft(), REASON_STALE_SNAPSHOT)
            return
        now = self.now_tick
        stats = self.stats
        errors = stats.quote_errors
        latencies = stats.quote_latency_ticks
        quote = snap.quote
        snapshot_epoch = snap.epoch
        served = 0
        for _ in range(count):
            ticket = pending.popleft()
            try:
                answer = quote(ticket.zero_for_one, ticket.amount)
            except AMMError as exc:
                name = type(exc).__name__
                errors[name] = errors.get(name, 0) + 1
                ticket.error = exc
                ticket.done = True
                continue
            served += 1
            latencies.append(now - ticket.submitted_tick)
            if traced:
                trace.complete(
                    "gateway.quote",
                    ticket.submitted_tick,
                    now,
                    client=ticket.client,
                    seq=ticket.seq,
                    snapshot_epoch=snapshot_epoch,
                )
            ticket.amount_in, ticket.amount_out = answer.trader_amounts(
                ticket.zero_for_one
            )
            ticket.fee_paid = answer.fee_paid
            ticket.snapshot_epoch = snapshot_epoch
            ticket.served_tick = now
            ticket.accepted = True
            ticket.reason = None
            ticket.done = True
        stats.quotes_served += served

    # -- rejection plumbing ----------------------------------------------------

    def _reject(self, ticket: QuoteTicket | SwapTicket, reason: str) -> None:
        """Decide ``ticket`` as refused for ``reason``, counted and traced."""
        now = self.now_tick
        if isinstance(ticket, QuoteTicket):
            kind, counts = "quote", self.stats.quote_rejections
            ticket.amount_in = ticket.amount_out = ticket.fee_paid = 0
            ticket.snapshot_epoch = -1
            ticket.served_tick = now
        else:
            kind, counts = "submit", self.stats.submit_rejections
            ticket.decided_tick = now
        counts[reason] = counts.get(reason, 0) + 1
        if trace.enabled():
            # Drain-path rejects fire straight from quote()/submit(), outside
            # the process_tick track scope — pin them to the gateway track.
            prev_track = trace.set_track("gateway")
            trace.instant(
                "gateway.reject",
                now,
                kind=kind,
                reason=reason,
                client=ticket.client,
                seq=ticket.seq,
            )
            trace.set_track(prev_track)
        ticket.accepted = False
        ticket.reason = reason
        ticket.done = True

    # -- epoch-pipeline bridge -------------------------------------------------

    @property
    def admitted_depth(self) -> int:
        return len(self._admitted)

    @property
    def inflight_count(self) -> int:
        return len(self._inflight)

    def drain_admitted(self, submitted_at: float) -> list[SwapTx]:
        """Hand the admission queue to the ingest phase, stamping arrival."""
        drained: list[SwapTx] = []
        while self._admitted:
            tx = self._admitted.popleft()
            tx.submitted_at = submitted_at
            drained.append(tx)
        return drained

    def settle_finality(self, system, boundary_epoch: int) -> None:
        """Resolve in-flight swaps whose including epoch has synced.

        Swap-to-finality is counted in epoch *boundaries*: a swap admitted
        during epoch ``e``'s serving window whose inclusion synced by the
        boundary closing epoch ``b`` scores ``b - e``.
        """
        remaining: list[tuple[SwapTx, int]] = []
        for record in self._inflight:
            tx, submit_epoch = record
            if tx.reject_reason:
                self.stats.executor_rejected += 1
            elif tx.included_epoch is not None and system.ledger.is_synced(
                tx.included_epoch
            ):
                self.stats.finality_epochs.append(boundary_epoch - submit_epoch)
            else:
                remaining.append(record)
        self._inflight = remaining

    # -- shutdown --------------------------------------------------------------

    def shutdown(self, between_ticks: Callable[[], None] | None = None) -> None:
        """Graceful drain: serve what is queued, refuse new work typed.

        Runs ticks until the inbox and pending-quote buffer are empty,
        calling ``between_ticks`` after each one so closed-loop callers
        can read the replies that tick resolved.  Whatever they request
        while draining resolves at once with ``shutting_down``, stamped
        with the tick it was issued in; admitted swaps stay queued for
        the pipeline.
        """
        self.draining = True
        while self._inbox or self._pending_quotes:
            self.process_tick()
            if between_ticks is not None:
                between_ticks()
