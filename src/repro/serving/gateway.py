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

Determinism: :meth:`QuoteGateway.quote` and :meth:`QuoteGateway.submit`
only enqueue — they hand back a :class:`Reply` slot and the request lands
in a per-tick inbox.  Requests are *decided* in
:meth:`QuoteGateway.process_tick`, which sorts the inbox by
``(client, seq)`` before touching any shared state, so outcomes are a
pure function of the request set, not of the order callers enqueued in.
The gateway decides ticks and nothing else: who runs between two ticks
is the caller's business (:mod:`repro.serving.clients`).
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any, Generic, TypeVar, cast

from repro.amm.pool import Pool, PoolSnapshot
from repro.core.transactions import IdSpace, SwapTx
from repro.errors import AMMError
from repro.telemetry import trace

T = TypeVar("T")

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


class TokenBucket:
    """Per-client admission budget refilled in virtual ticks."""

    __slots__ = ("rate", "burst", "_tokens", "_tick")

    def __init__(self, rate: float, burst: float) -> None:
        self.rate = rate
        self.burst = burst
        self._tokens = burst
        self._tick = 0

    def try_take(self, now_tick: int) -> bool:
        if now_tick > self._tick:
            self._tokens = min(
                self.burst, self._tokens + (now_tick - self._tick) * self.rate
            )
            self._tick = now_tick
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False


@dataclass(frozen=True, slots=True)
class QuoteRequest:
    client: int
    seq: int
    zero_for_one: bool
    amount: int
    submitted_tick: int


@dataclass(frozen=True, slots=True)
class QuoteResponse:
    client: int
    seq: int
    accepted: bool
    reason: str | None
    amount_in: int
    amount_out: int
    fee_paid: int
    snapshot_epoch: int
    submitted_tick: int
    served_tick: int

    @property
    def latency_ticks(self) -> int:
        return self.served_tick - self.submitted_tick


@dataclass(frozen=True, slots=True)
class SwapSubmission:
    client: int
    seq: int
    user: str
    zero_for_one: bool
    amount: int
    #: Epoch of the snapshot the client quoted against (staleness check).
    snapshot_epoch: int
    submitted_tick: int


@dataclass(frozen=True, slots=True)
class SwapReceipt:
    client: int
    seq: int
    accepted: bool
    reason: str | None
    submitted_tick: int
    decided_tick: int


class Reply(Generic[T]):
    """Where one request's answer lands once a tick has decided it."""

    __slots__ = ("done", "_value", "_error")

    def __init__(self) -> None:
        self.done = False
        self._value: T | None = None
        self._error: AMMError | None = None

    def resolve(self, value: T) -> None:
        self._value = value
        self.done = True

    def fail(self, error: AMMError) -> None:
        self._error = error
        self.done = True

    def result(self) -> T:
        """The answer; raises the pool's own error if the quote failed."""
        if self._error is not None:
            raise self._error
        if not self.done:
            raise RuntimeError("reply read before a tick decided it")
        return cast(T, self._value)


@dataclass
class _InflightSwap:
    """An admitted swap awaiting inclusion + sync (finality tracking)."""

    tx: SwapTx
    submit_epoch: int
    client: int
    seq: int


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
        #: A request's kind fixes its reply's type; the pair is re-typed
        #: where ``process_tick`` dispatches on the request.
        self._inbox: list[tuple[QuoteRequest | SwapSubmission, Reply[Any]]] = []
        self._pending_quotes: deque[tuple[QuoteRequest, Reply[QuoteResponse]]] = (
            deque()
        )
        self._admitted: deque[SwapTx] = deque()
        self._inflight: list[_InflightSwap] = []
        self._buckets: dict[int, TokenBucket] = {}

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

    def quote(
        self, client: int, seq: int, zero_for_one: bool, amount: int
    ) -> Reply[QuoteResponse]:
        """Enqueue a quote request; a later tick resolves the reply.

        A failed quote resolves with the frozen pool's own error
        (``NoLiquidityError`` et al.), which :meth:`Reply.result` raises
        exactly as the direct quoter would.
        """
        reply: Reply[QuoteResponse] = Reply()
        request = QuoteRequest(client, seq, zero_for_one, amount, self.now_tick)
        if self.draining:
            reply.resolve(self._quote_reject(request, REASON_SHUTTING_DOWN))
        else:
            self._inbox.append((request, reply))
        return reply

    def submit(
        self,
        client: int,
        seq: int,
        user: str,
        zero_for_one: bool,
        amount: int,
        snapshot_epoch: int,
    ) -> Reply[SwapReceipt]:
        """Enqueue a quoted swap; resolves with a typed accept/reject."""
        reply: Reply[SwapReceipt] = Reply()
        submission = SwapSubmission(
            client, seq, user, zero_for_one, amount, snapshot_epoch, self.now_tick
        )
        if self.draining:
            reply.resolve(self._submit_reject(submission, REASON_SHUTTING_DOWN))
        else:
            self._inbox.append((submission, reply))
        return reply

    # -- the deterministic decision pass --------------------------------------

    def process_tick(self) -> None:
        """Decide this tick's inbox and serve pending quotes.

        The inbox is sorted by ``(client, seq)`` first, so the outcome is
        independent of the order the requests were enqueued in.
        """
        traced = trace.enabled()
        prev_track = trace.set_track("gateway") if traced else ""
        try:
            self._process_tick_inner()
        finally:
            if traced:
                trace.set_track(prev_track)

    def _process_tick_inner(self) -> None:
        inbox = sorted(self._inbox, key=lambda entry: (entry[0].client, entry[0].seq))
        self._inbox.clear()
        config = self.config
        for request, reply in inbox:
            bucket = self._buckets.get(request.client)
            if bucket is None:
                bucket = TokenBucket(config.bucket_rate, config.bucket_burst)
                self._buckets[request.client] = bucket
            if not bucket.try_take(self.now_tick):
                self._resolve_reject(request, reply, REASON_RATE_LIMITED)
            elif isinstance(request, QuoteRequest):
                if len(self._pending_quotes) >= config.pending_quote_bound:
                    self._resolve_reject(request, reply, REASON_QUEUE_FULL)
                else:
                    self._pending_quotes.append((request, reply))
                    depth = len(self._pending_quotes)
                    if depth > self.stats.peak_pending_quotes:
                        self.stats.peak_pending_quotes = depth
            else:
                self._decide_submission(request, reply)
        self._serve_quotes()
        self.now_tick += 1

    def _decide_submission(
        self, submission: SwapSubmission, reply: Reply[SwapReceipt]
    ) -> None:
        snap = self.snapshot
        if (
            snap is None
            or self.epoch - submission.snapshot_epoch > self.config.max_snapshot_age
            or self.epoch - snap.epoch > self.config.max_snapshot_age
        ):
            self._resolve_reject(submission, reply, REASON_STALE_SNAPSHOT)
            return
        if len(self._admitted) >= self.config.queue_capacity:
            self._resolve_reject(submission, reply, REASON_QUEUE_FULL)
            return
        tx = SwapTx(
            user=submission.user,
            zero_for_one=submission.zero_for_one,
            exact_input=True,
            amount=submission.amount,
            tx_id=self.ids(),
        )
        self._admitted.append(tx)
        depth = len(self._admitted)
        if depth > self.stats.peak_admission_queue:
            self.stats.peak_admission_queue = depth
        self._inflight.append(
            _InflightSwap(tx, self.epoch, submission.client, submission.seq)
        )
        self.stats.submits_accepted += 1
        trace.complete(
            "gateway.submit",
            submission.submitted_tick,
            self.now_tick,
            client=submission.client,
            seq=submission.seq,
        )
        reply.resolve(
            SwapReceipt(
                client=submission.client,
                seq=submission.seq,
                accepted=True,
                reason=None,
                submitted_tick=submission.submitted_tick,
                decided_tick=self.now_tick,
            )
        )

    def _serve_quotes(self) -> None:
        served = 0
        while self._pending_quotes and served < self.config.quote_capacity_per_tick:
            request, reply = self._pending_quotes.popleft()
            served += 1
            snap = self.snapshot
            if snap is None:
                self._resolve_reject(request, reply, REASON_STALE_SNAPSHOT)
                continue
            try:
                quote = snap.quote(request.zero_for_one, request.amount)
            except AMMError as exc:
                name = type(exc).__name__
                self.stats.quote_errors[name] = (
                    self.stats.quote_errors.get(name, 0) + 1
                )
                reply.fail(exc)
                continue
            amount_in, amount_out = quote.trader_amounts(request.zero_for_one)
            self.stats.quotes_served += 1
            self.stats.quote_latency_ticks.append(
                self.now_tick - request.submitted_tick
            )
            trace.complete(
                "gateway.quote",
                request.submitted_tick,
                self.now_tick,
                client=request.client,
                seq=request.seq,
                snapshot_epoch=snap.epoch,
            )
            reply.resolve(
                QuoteResponse(
                    client=request.client,
                    seq=request.seq,
                    accepted=True,
                    reason=None,
                    amount_in=amount_in,
                    amount_out=amount_out,
                    fee_paid=quote.fee_paid,
                    snapshot_epoch=snap.epoch,
                    submitted_tick=request.submitted_tick,
                    served_tick=self.now_tick,
                )
            )

    # -- rejection plumbing ----------------------------------------------------

    def _quote_reject(self, request: QuoteRequest, reason: str) -> QuoteResponse:
        self.stats.quote_rejections[reason] = (
            self.stats.quote_rejections.get(reason, 0) + 1
        )
        if trace.enabled():
            # Drain-path rejects fire straight from quote()/submit(), outside
            # the process_tick track scope — pin them to the gateway track.
            prev_track = trace.set_track("gateway")
            trace.instant(
                "gateway.reject",
                self.now_tick,
                kind="quote",
                reason=reason,
                client=request.client,
                seq=request.seq,
            )
            trace.set_track(prev_track)
        return QuoteResponse(
            client=request.client,
            seq=request.seq,
            accepted=False,
            reason=reason,
            amount_in=0,
            amount_out=0,
            fee_paid=0,
            snapshot_epoch=-1,
            submitted_tick=request.submitted_tick,
            served_tick=self.now_tick,
        )

    def _submit_reject(self, submission: SwapSubmission, reason: str) -> SwapReceipt:
        self.stats.submit_rejections[reason] = (
            self.stats.submit_rejections.get(reason, 0) + 1
        )
        if trace.enabled():
            prev_track = trace.set_track("gateway")
            trace.instant(
                "gateway.reject",
                self.now_tick,
                kind="submit",
                reason=reason,
                client=submission.client,
                seq=submission.seq,
            )
            trace.set_track(prev_track)
        return SwapReceipt(
            client=submission.client,
            seq=submission.seq,
            accepted=False,
            reason=reason,
            submitted_tick=submission.submitted_tick,
            decided_tick=self.now_tick,
        )

    def _resolve_reject(
        self,
        request: QuoteRequest | SwapSubmission,
        reply: Reply[Any],
        reason: str,
    ) -> None:
        if isinstance(request, QuoteRequest):
            reply.resolve(self._quote_reject(request, reason))
        else:
            reply.resolve(self._submit_reject(request, reason))

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
        remaining: list[_InflightSwap] = []
        for record in self._inflight:
            tx = record.tx
            if tx.reject_reason:
                self.stats.executor_rejected += 1
            elif tx.included_epoch is not None and system.ledger.is_synced(
                tx.included_epoch
            ):
                self.stats.finality_epochs.append(
                    boundary_epoch - record.submit_epoch
                )
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
