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

Everything per transfer in those messages is a plain tuple: the inboxes
carry tagged :data:`~repro.sharding.escrow.Instruction` tuples and the
records carry :data:`~repro.sharding.escrow.TransferRow` prepares (see
"Wire format" in ``sharding/README.md``), so a boundary's pickling cost
is the tuples', not a dataclass graph's.  The replay log below keeps
each message as the pickled bytes that went down the pipe.

A serial scheduler serves the same messages in-process through the same
:func:`_serve_message`, so both modes share one serving path.

Bit-identity with serial execution holds because a shard owns all of
its state — its transaction ids come from its own deployment's id space
and its randomness from shard-local substreams — so shard trajectories
do not depend on which process hosts them.  Workers are forked (the
parent already paid the import cost); on platforms without ``fork`` the
scheduler silently degrades to serial execution — same results, one
process.

**Heal or fail.**  Every message sent to a worker is pickled once, and
the bytes written to the pipe are kept in a per-slot list.  Waiting for
a response polls the pipe with liveness checks
(every :data:`HEARTBEAT_INTERVAL_S`, wedged after
:data:`HEARTBEAT_TIMEOUT_S`); a dead or wedged worker is respawned — fork
a replacement, **replay** every message but the in-flight last one
(which, by lock-step determinism, reconstructs the lost shards' exact
state at the last completed boundary), re-send the in-flight message —
at most :data:`MAX_RESPAWNS` times.  A healed run is bit-identical to a
serial one: the replay reconstructs states, never perturbs them.  Past
the budget the run raises :class:`~repro.errors.WorkerLostError` with
every worker reaped.  A worker that raises a Python exception is *not*
retried: that is a deterministic program error and replay would simply
reproduce it.
"""

from __future__ import annotations

import multiprocessing
import pickle
import time
from multiprocessing.connection import Connection
from multiprocessing.reduction import ForkingPickler
from typing import Any, Mapping, Sequence

from repro.errors import ShardError, WorkerLostError
from repro.sharding.escrow import ShardInstructions
from repro.sharding.shard import Shard, ShardEpochRecord, ShardFinal, ShardSpec
from repro.telemetry import trace

#: Respawns a lost worker slot gets (per in-flight message) before the
#: run fails with ``WorkerLostError``.
MAX_RESPAWNS = 2
#: Seconds between liveness checks while waiting on a worker's reply.
HEARTBEAT_INTERVAL_S = 0.05
#: Seconds of silence after which a live worker is presumed wedged.
HEARTBEAT_TIMEOUT_S = 300.0


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
    replay: Sequence[bytes] = (),
    inherited: Sequence[Connection] = (),
) -> None:
    """Own ``specs``'s shards for the run; serve epoch/finish requests.

    ``replay`` re-runs already-confirmed messages (their pickled bytes)
    silently — the respawn path, reconstructing the shards' state at the
    last boundary.
    ``inherited`` are the coordinator's pipe ends the fork copied; they
    are closed first, so the coordinator closing its end reaches this
    worker as EOF.
    """
    for other in inherited:
        other.close()
    try:
        shards = {spec.index: Shard(spec) for spec in specs}
        for sent in replay:
            _serve_message(shards, pickle.loads(sent))
        # Replayed spans were already delivered to the coordinator
        # before the crash; this also clears any fork-inherited copy of
        # the parent's buffer, so the worker starts from a clean slate.
        trace.discard()
        while True:
            message = conn.recv()
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

    def __init__(self, specs: Sequence[ShardSpec], jobs: int = 1) -> None:
        if jobs < 1:
            raise ShardError(f"jobs must be >= 1, got {jobs}")
        self.specs = list(specs)
        methods = multiprocessing.get_all_start_methods()
        self.jobs = min(jobs, len(self.specs)) if "fork" in methods else 1
        self._shards: dict[int, Shard] = {}
        self._workers: list[multiprocessing.process.BaseProcess] = []
        self._conns: list[Connection] = []
        self._groups: list[list[ShardSpec]] = []
        #: Per slot, the pickled bytes of every message sent so far —
        #: the respawn replay log.
        self._sent: list[list[bytes]] = []
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
            self._sent.append([])
            worker, conn = self._spawn(slot, replay=())
            self._workers.append(worker)
            self._conns.append(conn)

    def _spawn(
        self, slot: int, replay: Sequence[bytes]
    ) -> tuple[multiprocessing.process.BaseProcess, Connection]:
        context = multiprocessing.get_context("fork")
        parent_conn, child_conn = context.Pipe()
        worker = context.Process(
            target=_worker_main,
            args=(
                self._groups[slot],
                child_conn,
                tuple(replay),
                (parent_conn, *self._conns),
            ),
            daemon=True,
        )
        worker.start()
        child_conn.close()
        return worker, parent_conn

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
            return self._serve(("epoch", epoch, inject, instructions))
        for slot in range(self.jobs):
            owned = {
                index: list(plan)
                for index, plan in instructions.items()
                if self._owner[index] == slot
            }
            self._post(slot, ("epoch", epoch, inject, owned))
        return self._collect_all()

    def finish(self) -> dict[int, ShardFinal]:
        if not self.parallel:
            return self._serve(("finish",))
        for slot in range(self.jobs):
            self._post(slot, ("finish",))
        finals = self._collect_all()
        self.close()
        return finals

    def _serve(self, message: tuple[Any, ...]) -> dict[int, Any]:
        """Serial mode: the workers' serving path, run in-process."""
        payload, spans = _serve_message(self._shards, message)
        self._merge_spans(spans or {})
        return payload

    def _collect_all(self) -> dict[int, Any]:
        """Every slot's reply to the in-flight message, merged."""
        payload: dict[int, Any] = {}
        spans_by_shard: dict[int, list] = {}
        for slot in range(self.jobs):
            part, spans = self._collect(slot)
            payload.update(part)
            spans_by_shard.update(spans or {})
        self._merge_spans(spans_by_shard)
        return payload

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
        """Pickle once, log the bytes and send them; a send failure is
        healed at collect time.

        The bytes are what ``Connection.send`` would write, so the
        worker's ``recv`` reads them unchanged.
        """
        sent = bytes(ForkingPickler.dumps(message))
        self._sent[slot].append(sent)
        try:
            self._conns[slot].send_bytes(sent)
        except OSError:
            pass  # worker already dead; _collect respawns and re-sends

    def _collect(
        self, slot: int
    ) -> tuple[dict[int, Any], dict[int, list] | None]:
        """The in-flight message's response, healing the worker as needed.

        Attempt 0 is the normal receive; each further attempt is one
        respawn (fork, replay, re-send) out of the ``MAX_RESPAWNS``
        budget.  Past it the run fails with ``WorkerLostError``.
        """
        for attempt in range(MAX_RESPAWNS + 1):
            if attempt:
                self._respawn(slot)
            try:
                return self._receive(slot)
            except _WorkerDown:
                continue
        owned = sorted(index for index, s in self._owner.items() if s == slot)
        self.close()
        raise WorkerLostError(
            f"shard worker {slot} (shards {owned}) lost after "
            f"{MAX_RESPAWNS} respawn attempt(s)"
        )

    def _receive(
        self, slot: int
    ) -> tuple[dict[int, Any], dict[int, list] | None]:
        conn = self._conns[slot]
        worker = self._workers[slot]
        deadline = time.monotonic() + HEARTBEAT_TIMEOUT_S
        while True:
            try:
                ready = conn.poll(HEARTBEAT_INTERVAL_S)
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
        sent = self._sent[slot]
        current = pickle.loads(sent[-1])
        # Healing is driven by wall-clock liveness, so the only virtual
        # timestamp it has is the in-flight epoch (0.0 for "finish"):
        # the instant lands on the trace's epoch axis next to the work
        # it interrupted.
        trace.instant(
            "healing.respawn",
            float(current[1]) if current[0] == "epoch" else 0.0,
            slot=slot,
        )
        try:
            self._conns[slot].close()
        except OSError:  # pragma: no cover - already closed
            pass
        old = self._workers[slot]
        if old.is_alive():
            old.terminate()
        old.join(timeout=5)
        self._workers[slot], self._conns[slot] = self._spawn(slot, sent[:-1])
        try:
            self._conns[slot].send_bytes(sent[-1])
        except OSError:
            pass  # dead at birth; the next _receive attempt sees it

    # -- teardown --------------------------------------------------------------

    def close(self) -> None:
        """Close every pipe and reap every worker (idempotent)."""
        for conn in self._conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
        for worker in self._workers:
            worker.join(timeout=5)
            if worker.is_alive():  # pragma: no cover - hung worker
                worker.terminate()
                worker.join()
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
