"""The shard scheduler: per-shard epochs fanned across worker processes.

Shards are stateful (their systems live for the whole run), so the
scheduler is not a map over independent tasks like the scenario runner —
it spawns *persistent* workers, each owning a fixed subset of shards for
the run's lifetime, and drives them epoch by epoch over pipes:

* ``("epoch", e, inject, {shard: instructions})`` — run epoch ``e`` on
  every owned shard (in shard-index order) and return the per-shard
  :class:`~repro.sharding.shard.ShardEpochRecord`\\ s;
* ``("finish",)`` — final sync confirmation + metrics, returning
  :class:`~repro.sharding.shard.ShardFinal` per shard, then exit.

Bit-identity with serial execution holds because a shard owns all of
its state — its transaction ids come from its own deployment's id space
and its randomness from shard-local substreams — so shard trajectories
do not depend on which process hosts them.  Workers are forked (the
parent already paid the import cost); on platforms without ``fork`` the
scheduler silently degrades to serial execution — same results, one
process.

**Self-healing.**  Every message sent to a worker is journaled in a
per-slot :class:`~repro.recovery.healing.EpochLog`.  Waiting for a
response polls the pipe with liveness checks
(:class:`~repro.recovery.healing.SchedulerRecoveryConfig` sets the
heartbeat interval and timeout); a dead or wedged worker triggers a
bounded retry loop — deterministic jittered backoff, fork a replacement,
**replay the journal** (which, by lock-step determinism, reconstructs
the lost shards' exact state at the last completed boundary), re-send
the in-flight message.  A worker that raises a Python exception is
*not* retried: that is a deterministic program error and replay would
simply reproduce it.  When the retry budget is exhausted the slot is
marked failed: with ``degrade=True`` its shards are frozen (the
coordinator synthesizes offline records at their last reported supply
and the registry parks their deliveries) while every other shard keeps
finalizing; with ``degrade=False`` the run raises
:class:`~repro.errors.WorkerLostError`.

Crash-free runs execute the exact same message sequence as before the
healing layer existed, and a healed run is bit-identical to a serial
one — the replay reconstructs states, never perturbs them.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from multiprocessing.connection import Connection
from typing import Any, Mapping, Sequence

from repro.errors import ConfigurationError, ShardError, WorkerLostError
from repro.recovery.healing import (
    EpochLog,
    SchedulerRecoveryConfig,
    WorkerCrash,
    record_heal_event,
)
from repro.sharding.escrow import ShardInstructions
from repro.sharding.shard import Shard, ShardEpochRecord, ShardFinal, ShardSpec
from repro.telemetry import trace


class _WorkerDown(Exception):
    """Internal: the worker process died or went silent (retryable)."""


def _serve_message(
    shards: dict[int, Shard], message: tuple[Any, ...]
) -> tuple[dict[int, Any], dict[int, list] | None]:
    """Serve one scheduler message; also drain trace spans per shard.

    Returns ``(payload, spans_by_shard)`` where ``spans_by_shard`` is
    ``None`` with tracing off (the wire reply then stays the historical
    2-tuple) and otherwise maps each shard index to the events its
    stage emitted — the unit the coordinator merges in sorted shard
    order so ``--jobs 1`` and ``--jobs N`` traces are identical.
    """
    spans: dict[int, list] | None = {} if trace.enabled() else None
    payload: dict[int, Any] = {}
    if message[0] == "epoch":
        _, epoch, inject, instructions = message
        for index in sorted(shards):
            payload[index] = shards[index].run_epoch(
                epoch, instructions.get(index, []), inject
            )
            if spans is not None:
                spans[index] = trace.drain()
        return payload, spans
    if message[0] == "finish":
        for index in sorted(shards):
            payload[index] = shards[index].finish()
            if spans is not None:
                spans[index] = trace.drain()
        return payload, spans
    raise ShardError(f"unknown message {message[0]!r}")


def _worker_main(
    specs: Sequence[ShardSpec],
    conn: Connection,
    replay: Sequence[tuple[Any, ...]] = (),
    crash: WorkerCrash | None = None,
) -> None:
    """Own ``specs``'s shards for the run; serve epoch/finish requests.

    ``replay`` re-runs already-confirmed messages silently — the respawn
    path, reconstructing the shards' state at the last boundary.
    ``crash`` is the test-injection directive: hard-exit before serving
    the matching epoch (only a ``persistent`` crash survives respawn).
    """
    try:
        shards = {spec.index: Shard(spec) for spec in specs}
        for message in replay:
            _serve_message(shards, message)
        # Replayed spans were already delivered to the coordinator
        # before the crash; this also clears any fork-inherited copy of
        # the parent's buffer, so the worker starts from a clean slate.
        trace.discard()
        while True:
            message = conn.recv()
            if (
                crash is not None
                and message[0] == "epoch"
                and message[1] == crash.epoch
            ):
                os._exit(1)
            payload, spans = _serve_message(shards, message)
            if spans is None:
                conn.send(("ok", payload))
            else:
                conn.send(("ok", payload, spans))
            if message[0] == "finish":
                return
    except EOFError:  # parent closed the pipe: orderly shutdown
        return
    except Exception as exc:  # noqa: BLE001 - shipped to the parent
        import traceback

        try:
            conn.send(
                ("err", f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}")
            )
        except OSError:  # pragma: no cover - parent already gone
            pass
    finally:
        conn.close()


class ShardScheduler:
    """Drives every shard through lock-step epochs, serially or forked."""

    def __init__(
        self,
        specs: Sequence[ShardSpec],
        jobs: int = 1,
        recovery: SchedulerRecoveryConfig | None = None,
        crashes: Sequence[WorkerCrash] = (),
    ) -> None:
        if jobs < 1:
            raise ShardError(f"jobs must be >= 1, got {jobs}")
        self.specs = list(specs)
        self.recovery = recovery or SchedulerRecoveryConfig()
        methods = multiprocessing.get_all_start_methods()
        self.jobs = min(jobs, len(self.specs)) if "fork" in methods else 1
        self._shards: dict[int, Shard] = {}
        self._workers: list[multiprocessing.process.BaseProcess] = []
        self._conns: list[Connection] = []
        self._groups: list[list[ShardSpec]] = []
        self._logs: list[EpochLog] = []
        self._crashes: dict[int, WorkerCrash] = {}
        for crash in crashes:
            if crash.slot in self._crashes:
                raise ConfigurationError(
                    f"multiple worker crashes for slot {crash.slot}"
                )
            self._crashes[crash.slot] = crash
        #: Slots (and the shards they own) lost past the retry budget.
        self.failed_slots: set[int] = set()
        self.failed_shards: set[int] = set()
        #: Each shard's last reported record — the freeze point for
        #: synthesized records/finals after a worker loss.
        self._last_records: dict[int, ShardEpochRecord] = {}
        #: shard index -> owning worker slot (parallel mode only).
        self._owner: dict[int, int] = {}
        if self.jobs <= 1:
            self._shards = {spec.index: Shard(spec) for spec in self.specs}
            return
        groups: list[list[ShardSpec]] = [[] for _ in range(self.jobs)]
        for position, spec in enumerate(sorted(self.specs, key=lambda s: s.index)):
            slot = position % self.jobs
            groups[slot].append(spec)
            self._owner[spec.index] = slot
        self._groups = groups
        for slot in range(self.jobs):
            self._logs.append(EpochLog())
            self._workers.append(None)  # type: ignore[arg-type]
            self._conns.append(None)  # type: ignore[arg-type]
            self._spawn(slot, replay=(), fresh=True)

    def _spawn(
        self,
        slot: int,
        replay: Sequence[tuple[Any, ...]],
        fresh: bool = False,
    ) -> None:
        crash = self._crashes.get(slot)
        if not fresh and crash is not None and not crash.persistent:
            crash = None  # a transient crash does not survive respawn
        context = multiprocessing.get_context("fork")
        parent_conn, child_conn = context.Pipe()
        worker = context.Process(
            target=_worker_main,
            args=(self._groups[slot], child_conn, tuple(replay), crash),
            daemon=True,
        )
        worker.start()
        child_conn.close()
        self._workers[slot] = worker
        self._conns[slot] = parent_conn

    @property
    def parallel(self) -> bool:
        return bool(self._workers)

    # -- driving ---------------------------------------------------------------

    def run_epoch(
        self,
        epoch: int,
        inject: bool,
        instructions: Mapping[int, ShardInstructions],
    ) -> dict[int, ShardEpochRecord]:
        if not self.parallel:
            records = {
                index: self._shards[index].run_epoch(
                    epoch, list(instructions.get(index, [])), inject
                )
                for index in sorted(self._shards)
            }
            self._last_records.update(records)
            return records
        for slot in range(self.jobs):
            if slot in self.failed_slots:
                continue
            owned = {
                index: list(plan)
                for index, plan in instructions.items()
                if self._owner[index] == slot
            }
            self._post(slot, ("epoch", epoch, inject, owned))
        records: dict[int, ShardEpochRecord] = {}
        spans_by_shard: dict[int, list] = {}
        for slot in range(self.jobs):
            if slot in self.failed_slots:
                continue
            collected = self._collect(slot)
            if collected is not None:
                payload, spans = collected
                records.update(payload)
                if spans:
                    spans_by_shard.update(spans)
        self._merge_spans(spans_by_shard)
        for index in sorted(self.failed_shards):
            records[index] = self._synthesize_record(index, epoch)
        self._last_records.update(
            {i: r for i, r in records.items() if i not in self.failed_shards}
        )
        return records

    def finish(self) -> dict[int, ShardFinal]:
        if not self.parallel:
            return {
                index: self._shards[index].finish()
                for index in sorted(self._shards)
            }
        for slot in range(self.jobs):
            if slot not in self.failed_slots:
                self._post(slot, ("finish",))
        finals: dict[int, ShardFinal] = {}
        spans_by_shard: dict[int, list] = {}
        for slot in range(self.jobs):
            if slot not in self.failed_slots:
                collected = self._collect(slot)
                if collected is not None:
                    payload, spans = collected
                    finals.update(payload)
                    if spans:
                        spans_by_shard.update(spans)
        self._merge_spans(spans_by_shard)
        for index in sorted(self.failed_shards):
            finals[index] = self._synthesize_final(index)
        self.close()
        return finals

    @staticmethod
    def _merge_spans(spans_by_shard: dict[int, list]) -> None:
        """Ingest worker-drained spans in sorted shard-index order.

        Slots own shards round-robin (slot 0 gets shards 0, 2, ...), so
        updating per slot would interleave 0, 2, 1, 3 — sorting by
        shard restores the serial scheduler's emission order and makes
        trace digests independent of the job count.
        """
        for index in sorted(spans_by_shard):
            trace.ingest(spans_by_shard[index])

    # -- healing ---------------------------------------------------------------

    def _post(self, slot: int, message: tuple[Any, ...]) -> None:
        """Journal and send; a send failure is healed at collect time."""
        self._logs[slot].append(message)
        try:
            self._conns[slot].send(message)
        except OSError:
            pass  # worker already dead; _collect respawns and re-sends

    def _collect(
        self, slot: int
    ) -> tuple[dict[int, Any], dict[int, list] | None] | None:
        """The in-flight message's response, healing the worker as needed.

        Attempt 0 is the normal receive; each further attempt is one
        respawn (backoff, fork, journal replay, re-send) out of the
        ``max_retries`` budget.  Returns ``None`` when the slot was
        irrecoverable and the scheduler degraded instead of raising.
        """
        for attempt in range(self.recovery.max_retries + 1):
            if attempt:
                time.sleep(self.recovery.backoff_s(slot, attempt))
                self._respawn(slot)
            try:
                return self._receive(slot)
            except _WorkerDown:
                continue
        return self._give_up(slot)

    def _receive(
        self, slot: int
    ) -> tuple[dict[int, Any], dict[int, list] | None]:
        conn = self._conns[slot]
        worker = self._workers[slot]
        deadline = time.monotonic() + self.recovery.heartbeat_timeout_s
        while True:
            try:
                ready = conn.poll(self.recovery.heartbeat_interval_s)
            except OSError:
                raise _WorkerDown(f"worker {slot}: pipe lost")
            if ready:
                try:
                    # 2-tuple reply with tracing off (the historical
                    # wire format); a third element carries the spans.
                    reply = conn.recv()
                except (EOFError, OSError):
                    raise _WorkerDown(f"worker {slot}: died mid-reply")
                status, payload = reply[0], reply[1]
                if status != "ok":
                    # A worker *exception* is deterministic — replay
                    # would reproduce it.  Fail the run, do not retry.
                    self.close()
                    raise ShardError(f"shard worker failed: {payload}")
                return payload, (reply[2] if len(reply) > 2 else None)
            if not worker.is_alive():
                # One last poll: the reply may have raced the death.
                if conn.poll(0):
                    continue
                raise _WorkerDown(f"worker {slot}: process died")
            if time.monotonic() > deadline:
                worker.terminate()
                raise _WorkerDown(f"worker {slot}: heartbeat timeout")

    def _respawn(self, slot: int) -> None:
        """Fork a replacement and bring it to the in-flight message."""
        if trace.enabled():
            current = self._logs[slot].current()
            record_heal_event(
                "respawn",
                slot,
                current[1] if current and current[0] == "epoch" else None,
            )
        try:
            self._conns[slot].close()
        except OSError:  # pragma: no cover - already closed
            pass
        old = self._workers[slot]
        if old.is_alive():
            old.terminate()
        old.join(timeout=5)
        log = self._logs[slot]
        self._spawn(slot, replay=log.replay_messages())
        current = log.current()
        if current is not None:
            try:
                self._conns[slot].send(current)
            except OSError:
                pass  # dead at birth; the next _receive attempt sees it

    def _give_up(self, slot: int) -> None:
        """Retry budget exhausted: degrade the slot or fail the run."""
        owned = sorted(
            index for index, s in self._owner.items() if s == slot
        )
        if trace.enabled():
            current = self._logs[slot].current()
            record_heal_event(
                "give_up",
                slot,
                current[1] if current and current[0] == "epoch" else None,
                shards=owned,
                degrade=self.recovery.degrade,
            )
        if not self.recovery.degrade:
            self.close()
            raise WorkerLostError(
                f"shard worker {slot} (shards {owned}) lost after "
                f"{self.recovery.max_retries} respawn attempt(s)"
            )
        self.failed_slots.add(slot)
        self.failed_shards.update(owned)
        worker = self._workers[slot]
        if worker.is_alive():  # pragma: no cover - usually already dead
            worker.terminate()
        worker.join(timeout=5)
        try:
            self._conns[slot].close()
        except OSError:  # pragma: no cover - already closed
            pass
        return None

    # -- degraded-mode synthesis -----------------------------------------------

    def _synthesize_record(
        self, index: int, epoch: int
    ) -> ShardEpochRecord:
        """Offline record freezing a lost shard at its last report.

        A shard lost before reporting anything freezes at zero — its
        value was never counted into the conservation baseline, so the
        invariant stays self-consistent either way.
        """
        last = self._last_records.get(index)
        return ShardEpochRecord(
            shard=index,
            epoch=epoch,
            online=False,
            prepares=[],
            queue_depth=0,
            processed_txs=last.processed_txs if last else 0,
            rejected_txs=last.rejected_txs if last else 0,
            epochs_synced=last.epochs_synced if last else 0,
            supply0=last.supply0 if last else 0,
            supply1=last.supply1 if last else 0,
            peak_queue_depth=last.peak_queue_depth if last else 0,
        )

    def _synthesize_final(self, index: int) -> ShardFinal:
        last = self._last_records.get(index)
        return ShardFinal(
            shard=index,
            metrics={
                "processed_txs": last.processed_txs if last else 0,
                "rejected_txs": last.rejected_txs if last else 0,
                "throughput_tps": 0.0,
                "peak_queue_depth": last.peak_queue_depth if last else 0,
                "worker_failed": 1,
            },
            ledger_counts={},
            supply0=last.supply0 if last else 0,
            supply1=last.supply1 if last else 0,
            epochs_synced=last.epochs_synced if last else 0,
            epochs_run=last.epoch + 1 if last else 0,
            fault_log_len=0,
            state_digest=f"lost-worker:{self._owner.get(index, -1)}",
            degraded=True,
        )

    # -- teardown --------------------------------------------------------------

    def close(self) -> None:
        for conn in self._conns:
            if conn is None:
                continue
            try:
                conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
        for worker in self._workers:
            if worker is None:
                continue
            worker.join(timeout=5)
            if worker.is_alive():  # pragma: no cover - hung worker
                worker.terminate()
        self._workers = []
        self._conns = []

    # -- serial-mode introspection (tests, property suites) --------------------

    def shard(self, index: int) -> Shard:
        """Direct access to a live shard (serial mode only)."""
        if self.parallel:
            raise ShardError(
                "live shards are worker-owned under jobs > 1; "
                "run with jobs=1 to introspect them"
            )
        return self._shards[index]
