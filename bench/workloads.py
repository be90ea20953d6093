"""The five benchmark workloads and the output checks each run must pass.

Every workload drives the program through names without an underscore
(``AmmBoostSystem`` / ``ShardedSystem`` / ``ServingRun`` constructors,
``run`` / ``execute``, the ``epoch_phases`` hook and attribute,
``ShardedSystem.scheduler`` and its ``run_epoch`` / ``shard``, counters
and books read after the run), so a refactor behind those names cannot
break the benchmark.  A workload's
``run(seed, epochs)`` builds one fresh deployment, pushes ``epochs``
epochs of seeded traffic through it (plus the drain the program does on
its own) and returns an :class:`Outcome`: the wall time of the timed
section, what was attempted / accepted / failed, per-epoch wall times,
the result of the output checks, and a digest of the deployment's state
at a fixed *checkpoint epoch* — the same for every run of a seed however
many epochs the time box let it go on for.

The only instrumentation in an untraced run is the epoch marks: two
clock reads per epoch from a head and a tail phase passed through
``epoch_phases`` (``sharded_xfer``: one clock read at every entry of the
scheduler's ``run_epoch``).  With a :class:`~spans.Recorder` the marks
also open the per-epoch root spans and every pipeline phase is passed in
wrapped in a :class:`TimedPhase`.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from statistics import median
from typing import Any

import repro.core.transactions as core_tx
import repro.mainchain.transactions as main_tx
from repro.core.phases import EpochPhase, default_epoch_phases
from repro.core.system import AmmBoostConfig, AmmBoostSystem
from repro.serving.driver import ServingConfig, ServingRun
from repro.serving.gateway import GatewayConfig
from repro.sharding.system import ShardedConfig, ShardedSystem
from repro.workload.distribution import TrafficDistribution

from spans import Recorder


@dataclass
class Outcome:
    """What one deployment's run produced."""

    #: Wall seconds of the timed section (includes the drain).
    wall_s: float
    #: Sidechain transactions processed in the timed section.
    txs: int
    #: Wall seconds of each traffic epoch in the timed section.
    epoch_s: list[float]
    #: Operations the workload attempted / the system accepted.  The gap
    #: is work the system *correctly* refused (see ``failed``).
    attempted: int
    accepted: int
    #: Operations with an outcome the workload's own semantics do not
    #: allow: lost, errored, refused under load, aborted.
    failed: int
    #: Output checks that did not hold (empty = correct).
    problems: list[str]
    #: Digest of the deployment's state at the checkpoint epoch.
    checkpoint: str
    #: Counts read off the deployment at the checkpoint epoch (cumulative
    #: up to it), so they repeat exactly for a seed whatever the run length.
    counts: dict[str, float] = field(default_factory=dict)
    #: Wall seconds of the program's top-level call (``run`` / ``execute``)
    #: and the epochs it ran, drain included (sharded: lock-step epochs).
    run_wall_s: float = 0.0
    epochs_run: int = 0
    #: Samples that are not spans (client-side quote latency and the like).
    samples: dict[str, list[float]] = field(default_factory=dict)


def reference_loop() -> float:
    """Seconds a fixed chunk of interpreter work (dict, str and int churn)
    takes right now.  Timed outside every timed section and reported as
    ``bench.calibration_ms``, so that numbers from different sessions or
    machines can be normalised offline; no reported metric is scaled by it.
    """
    started = time.perf_counter()
    table = {}
    for i in range(6000):
        table[i] = str(i)
    total = 0
    for key, text in table.items():
        total += key + len(text)
    return time.perf_counter() - started


def _digest(payload: Any) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, default=str).encode()
    ).hexdigest()


def _reset_id_counters() -> None:
    """Fresh-process transaction ids for every deployment (they feed
    position-id hashes), exactly as ``ScenarioRunner`` does per grid point."""
    core_tx.reset_tx_counter()
    main_tx.reset_tx_counter()


# -- epoch marks and phase timing (through the public epoch_phases hook) -------


class EpochMarks:
    """Head and tail phases that stamp each epoch (and root its spans)."""

    def __init__(
        self, recorder: Recorder | None, checkpoint: int, state=None, counts=None
    ) -> None:
        self.recorder = recorder
        self.checkpoint = checkpoint
        #: ``state(system) -> json-able`` — what the checkpoint digests.
        self.state = state or _system_state
        #: ``counts(system) -> dict`` — exact counts taken at the checkpoint.
        self.count = counts or _system_counts
        self.head: list[float] = []
        self.tail: list[float] = []
        self.inject: list[bool] = []
        self.digest = ""
        self.counts: dict[str, float] = {}
        self._tid = -1 if recorder is None else recorder.target_id("epoch", "core.system")

    def phases(self, inner) -> tuple[EpochPhase, ...]:
        recorder = self.recorder
        if recorder is not None:
            inner = [TimedPhase(phase, recorder) for phase in inner]
        return (_Head(self), *inner, _Tail(self))


class _Head(EpochPhase):
    def __init__(self, marks: EpochMarks) -> None:
        self.marks = marks

    def run(self, system, ctx) -> None:
        marks = self.marks
        marks.inject.append(ctx.inject)
        recorder = marks.recorder
        if recorder is not None:
            recorder.set_unit(ctx.epoch)
            recorder.open(marks._tid)
        marks.head.append(time.perf_counter())


class _Tail(EpochPhase):
    def __init__(self, marks: EpochMarks) -> None:
        self.marks = marks

    def run(self, system, ctx) -> None:
        marks = self.marks
        marks.tail.append(time.perf_counter())
        if marks.recorder is not None:
            marks.recorder.close()
        if ctx.epoch == marks.checkpoint:
            marks.digest = _digest(marks.state(system))
            marks.counts = marks.count(system)
            if marks.recorder is not None:
                marks.counts.update(marks.recorder.counts)


def phase_span_name(phase: EpochPhase) -> str:
    """``RoundExecutionPhase`` -> ``round_execution``."""
    base = type(phase).__name__.removesuffix("Phase")
    return "".join(
        ("_" + ch.lower()) if ch.isupper() and i else ch.lower()
        for i, ch in enumerate(base)
    )


class TimedPhase(EpochPhase):
    """A pipeline phase that records one span around the phase it wraps."""

    def __init__(self, inner: EpochPhase, recorder: Recorder) -> None:
        self.inner = inner
        self._recorder = recorder
        self._tid = recorder.target_id(phase_span_name(inner), "core.phases")

    def run(self, system, ctx) -> None:
        self._recorder.open(self._tid)
        try:
            self.inner.run(system, ctx)
        finally:
            self._recorder.close()

    def __getattr__(self, name: str):
        return getattr(self.inner, name)


def _system_state(system: AmmBoostSystem) -> list:
    growth = system.ledger.growth
    return [
        system.pool.snapshot(),
        system.metrics.processed_txs,
        system.metrics.rejected_txs,
        growth.total_bytes_appended,
        growth.pruned_bytes,
        len(system.queue),
        system.mainchain.height,
    ]


def _system_counts(system: AmmBoostSystem) -> dict[str, float]:
    metrics, growth, chain = system.metrics, system.ledger.growth, system.mainchain
    processed = max(metrics.processed_txs, 1)
    return {
        "workload.tx_generated": sum(system.generator.generated_counts.values()),
        "core.executor.tx_accepted": metrics.processed_txs,
        "core.executor.tx_rejected": metrics.rejected_txs,
        "core.phases.peak_queue_depth": metrics.peak_queue_depth,
        "sidechain.bytes_appended": growth.total_bytes_appended,
        "sidechain.bytes_pruned": growth.pruned_bytes,
        "sidechain.meta_blocks": growth.num_meta_blocks,
        "mainchain.blocks_produced": chain.height,
        # The paper's headline counts: mainchain cost per sidechain tx.
        "mainchain.gas_per_tx": chain.total_gas_used / processed,
        "mainchain.bytes_per_tx": chain.growth.tx_bytes / processed,
    }


def _check_system(system: AmmBoostSystem, epochs_run: int, problems: list[str]) -> None:
    """Queue drained, every epoch's sync confirmed, ledger bytes add up."""
    if system.queue:
        problems.append(f"queue not drained: {len(system.queue)} left")
    unsynced = [e for e in range(epochs_run) if not system.ledger.is_synced(e)]
    if unsynced:
        problems.append(f"epochs never synced: {unsynced[:5]}")
    ledger = system.ledger
    live = sum(
        block.size_bytes for blocks in ledger.meta_blocks.values() for block in blocks
    ) + sum(block.size_bytes for block in ledger.summary_blocks.values())
    growth = ledger.growth
    if growth.total_bytes_appended - growth.pruned_bytes != live:
        problems.append(
            f"ledger bytes: appended {growth.total_bytes_appended} - pruned "
            f"{growth.pruned_bytes} != live {live}"
        )


# -- workloads -----------------------------------------------------------------


class Workload:
    """One named set of inputs; ``BENCHMARK.json`` records why it exists."""

    name: str
    #: Traffic epochs per second of ``--seconds``: the input size is fixed
    #: (a sharded epoch costs more the more epochs came before it, so only
    #: runs of equal length compare), sized so that a run's timed section
    #: lasts about ``--seconds`` on the 2-core box the bounds were set on.
    pace: float
    #: Traffic epochs of one warm-up deployment; every run does at least
    #: this many.
    warm_epochs: int
    #: Epoch whose end state the checkpoint digest and counts cover: the
    #: last traffic epoch of a warm-up deployment, so warm-up and timed
    #: deployments of one seed can be checked against each other.
    checkpoint: int

    def shrink(self) -> None:
        """Switch to the ``--smoke`` sizes (same shape, seconds not minutes)."""
        raise NotImplementedError

    def sizes(self) -> dict:
        raise NotImplementedError

    #: Span names the traced run leaves unwrapped on this workload.
    unwrapped: frozenset[str] = frozenset()

    def run(self, seed: int, epochs: int, recorder: Recorder | None = None) -> Outcome:
        raise NotImplementedError


class EpochWorkload(Workload):
    """One ``AmmBoostSystem``: open loop on the simulated clock."""

    def __init__(
        self,
        name: str,
        pace: float,
        config: dict,
        mix: tuple[int, int, int, int] | None,
        smoke: dict,
    ) -> None:
        self.name, self.pace = name, pace
        self.config, self.mix, self.smoke = config, mix, smoke
        self.checkpoint, self.warm_epochs = 2, 3

    def shrink(self) -> None:
        self.config = {**self.config, **self.smoke}
        self.checkpoint, self.warm_epochs = 0, 1

    def sizes(self) -> dict:
        return {**self.config, "mix_swap_mint_burn_collect": self.mix or "uniswap_2023"}

    def run(self, seed, epochs, recorder=None) -> Outcome:
        _reset_id_counters()
        marks = EpochMarks(recorder, self.checkpoint)
        system = AmmBoostSystem(
            AmmBoostConfig(seed=seed, **self.config),
            TrafficDistribution.from_percentages(*self.mix) if self.mix else None,
            epoch_phases=marks.phases(default_epoch_phases()),
        )
        system.setup()
        started = time.perf_counter()
        metrics = system.run(epochs)
        wall = time.perf_counter() - started

        problems: list[str] = []
        _check_system(system, len(marks.head), problems)
        # +1: the bootstrap LP mint the system enqueues itself.
        generated = sum(system.generator.generated_counts.values()) + 1
        decided = metrics.processed_txs + metrics.rejected_txs
        return Outcome(
            wall_s=wall,
            txs=metrics.processed_txs,
            epoch_s=[
                t - h for h, t, inject in zip(marks.head, marks.tail, marks.inject) if inject
            ],
            attempted=generated,
            accepted=metrics.processed_txs,
            # A transaction the executor rejects (a burn or collect racing
            # the burn that deleted its position) is decided correctly; one
            # that was generated and never decided is lost.
            failed=abs(generated - decided),
            problems=problems,
            checkpoint=marks.digest,
            counts=marks.counts,
            run_wall_s=wall,
            epochs_run=len(marks.head),
        )


class ShardedWorkload(Workload):
    """``ShardedSystem``: lock-step shard epochs, cross-shard transfers."""

    name, pace = "sharded_xfer", 1.2

    def __init__(self) -> None:
        self.shape = dict(num_shards=4, num_pools=8, cross_shard_ratio=0.2)
        self.base = dict(
            committee_size=16, num_users=50, daily_volume=40_000_000, rounds_per_epoch=10
        )
        self.checkpoint, self.warm_epochs = 1, 2

    def shrink(self) -> None:
        self.base = {
            **self.base, "num_users": 16, "daily_volume": 1_500_000, "rounds_per_epoch": 4
        }

    @property
    def jobs(self) -> int:
        return min(2, os.cpu_count() or 1)

    def sizes(self) -> dict:
        return {**self.shape, "base": self.base, "jobs": self.jobs}

    def run(self, seed, epochs, recorder=None, jobs: int | None = None) -> Outcome:
        """``jobs=1`` is the serial variant the traced run needs: spans
        recorded inside a forked worker would die with it."""
        jobs = self.jobs if jobs is None else jobs
        system = ShardedSystem(
            ShardedConfig(
                base=AmmBoostConfig(seed=seed, **self.base),
                jobs=jobs,
                **self.shape,
            )
        )
        scheduler = system.scheduler
        if recorder is not None and jobs == 1:
            # The live shards are in this process, so their pipelines can
            # be re-wrapped through their ``epoch_phases`` attribute.
            for index in range(self.shape["num_shards"]):
                chassis = scheduler.shard(index).system
                chassis.epoch_phases = EpochMarks(recorder, -1).phases(
                    chassis.epoch_phases
                )

        entered: list[float] = []
        digest, counts = "", {}
        run_epoch = scheduler.run_epoch

        def stamped_run_epoch(epoch, inject, instructions):
            # The sharded epoch mark: a lock-step epoch is entry to entry.
            nonlocal digest, counts
            if epoch == self.checkpoint + 1:
                # The checkpoint epoch's records have landed and been
                # folded: a fixed point of the lock-step run.
                digest, counts = self._at_checkpoint(system, recorder)
            if recorder is not None:
                recorder.set_unit(epoch)
            entered.append(time.perf_counter())
            return run_epoch(epoch, inject, instructions)

        scheduler.run_epoch = stamped_run_epoch
        started = time.perf_counter()
        report = system.run(num_epochs=epochs)
        ended = time.perf_counter()

        # Epoch 0 carries the workers' start and the shards' construction,
        # so the timed section starts at the entry of epoch 1.
        first = system.epoch_records[0].values()
        txs = report.aggregate_processed - sum(r.processed_txs for r in first)
        rejected = report.aggregate_rejected - sum(r.rejected_txs for r in first)
        transfers = report.transfers
        problems: list[str] = []
        if not report.conservation_ok:
            problems.append("token conservation violated")
        if transfers["prepared"]:
            problems.append(f"{transfers['prepared']} transfers still in flight")
        if report.degraded_shards:
            problems.append(f"degraded shards: {report.degraded_shards}")
        if any(r.queue_depth for r in system.epoch_records[-1].values()):
            problems.append("shard queues not drained")
        return Outcome(
            wall_s=ended - entered[1],
            txs=txs,
            # Traffic epochs 1 .. epochs-1; a drain epoch always follows.
            epoch_s=[b - a for a, b in zip(entered[1:epochs], entered[2:])],
            attempted=txs + rejected,
            accepted=txs,
            failed=transfers["aborted"],
            problems=problems,
            checkpoint=digest,
            counts=counts,
            run_wall_s=ended - started,
            epochs_run=len(entered),
        )

    def _at_checkpoint(self, system: ShardedSystem, recorder: Recorder | None):
        records = system.epoch_records[self.checkpoint]
        rows = [records[index] for index in sorted(records)]
        digest = _digest(
            [
                [r.shard, r.processed_txs, r.rejected_txs, r.supply0, r.supply1,
                 r.queue_depth, len(r.prepares)]
                for r in rows
            ]
        )
        transfers = system.registry.counts()
        counts = {
            "core.executor.tx_accepted": sum(r.processed_txs for r in rows),
            "core.executor.tx_rejected": sum(r.rejected_txs for r in rows),
            "core.phases.peak_queue_depth": max(r.peak_queue_depth for r in rows),
            "sharding.router.transfers_settled": transfers["settled"],
            "sharding.router.transfers_aborted": transfers["aborted"],
        }
        if recorder is not None:
            counts.update(recorder.counts)
        return digest, counts


class ServingWorkload(Workload):
    """``ServingRun``: closed loop, clients in lock-step virtual ticks."""

    name, pace = "serving_fleet", 5.0
    # ``PoolSnapshot.quote`` is a ~12 us call made ~190k times and all it
    # does is ``Pool.prepare_swap`` on its private copy: a second span
    # inside it would double the observer's cost and split nothing.
    unwrapped = frozenset({"Pool.prepare_swap"})

    def __init__(self) -> None:
        self.fleet = dict(num_clients=800, ticks_per_epoch=12)
        self.gateway = dict(
            queue_capacity=2048, quote_capacity_per_tick=1024, pending_quote_bound=4096
        )
        # Pipeline epoch 0 is ServingRun's own warm-up, so serving epoch
        # ``warm_epochs`` is pipeline epoch 2.
        self.checkpoint, self.warm_epochs = 2, 2

    def shrink(self) -> None:
        self.fleet = dict(num_clients=60, ticks_per_epoch=4)
        self.checkpoint, self.warm_epochs = 1, 1

    def sizes(self) -> dict:
        return {**self.fleet, "gateway": self.gateway}

    def run(self, seed, epochs, recorder=None) -> Outcome:
        _reset_id_counters()
        run = ServingRun(
            ServingConfig(
                epochs=epochs, seed=seed, gateway=GatewayConfig(**self.gateway), **self.fleet
            )
        )
        system, stats = run.system, run.gateway.stats

        def gateway_counts(_system) -> dict[str, float]:
            refused = dict(stats.quote_rejections)
            for reason, count in stats.submit_rejections.items():
                refused[reason] = refused.get(reason, 0) + count
            return {
                **_system_counts(system),
                "serving.gateway.quotes_served": stats.quotes_served,
                "serving.gateway.swaps_accepted": stats.submits_accepted,
                **{
                    f"serving.gateway.refused.{reason}": refused.get(reason, 0)
                    for reason in
                    ("queue_full", "rate_limited", "stale_snapshot", "shutting_down")
                },
                "serving.gateway.peak_admission_queue": stats.peak_admission_queue,
                # How many samples the sample lists held at the checkpoint.
                "quote_ticks": len(stats.quote_latency_ticks),
                "finality_epochs": len(stats.finality_epochs),
            }

        marks = EpochMarks(
            recorder,
            self.checkpoint,
            state=lambda s: [
                s.pool.snapshot(), stats.quotes_served, stats.submits_accepted,
                s.metrics.processed_txs,
            ],
            counts=gateway_counts,
        )
        # ServingRun installs its own pipeline; put the marks around it.
        system.epoch_phases = marks.phases(system.epoch_phases)
        started = time.perf_counter()
        report = run.execute()
        ended = time.perf_counter()

        final = gateway_counts(system)
        # Requests the fleet issues after the benchmark shuts the gateway
        # are the load generator stopping, not the system refusing load.
        at_shutdown = final["serving.gateway.refused.shutting_down"]
        refused = sum(
            final[f"serving.gateway.refused.{reason}"]
            for reason in ("queue_full", "rate_limited", "stale_snapshot")
        )
        errored = sum(stats.quote_errors.values())
        issued = run.fleet.requests_issued
        served = stats.quotes_served + stats.submits_accepted
        finalised = len(stats.finality_epochs)
        problems: list[str] = []
        if served + refused + at_shutdown + errored != issued:
            problems.append(
                f"not exactly-once: {served} served + {refused + at_shutdown} refused "
                f"+ {errored} errored != {issued} issued"
            )
        if run.gateway.inflight_count or run.gateway.admitted_depth:
            problems.append("swaps still in flight after the drain")
        if finalised + stats.executor_rejected != stats.submits_accepted:
            problems.append(
                f"{stats.submits_accepted} swaps accepted but {finalised} finalised"
            )
        _check_system(system, len(marks.head), problems)
        # Pipeline epoch 0 is ServingRun's own liquidity warm-up, so the
        # timed section starts at its end; serving epoch i (quote window +
        # pipeline epoch) ends at tail[i].
        tail = marks.tail
        return Outcome(
            wall_s=ended - tail[0],
            txs=finalised,
            epoch_s=[b - a for a, b in zip(tail, tail[1 : epochs + 1])],
            attempted=issued - at_shutdown,
            accepted=served,
            failed=refused + errored + stats.executor_rejected,
            problems=problems,
            checkpoint=marks.digest,
            counts=marks.counts,
            samples={
                "quote_wall_s": report.wall_quote_seconds,
                "quote_ticks": stats.quote_latency_ticks,
                "finality_epochs": stats.finality_epochs,
            },
            run_wall_s=ended - started,
            epochs_run=len(marks.head),
        )


def all_workloads() -> list[Workload]:
    deployment = dict(committee_size=32, num_users=100, rounds_per_epoch=10)
    tiny = {"committee_size": 8, "num_users": 16, "rounds_per_epoch": 4}
    return [
        EpochWorkload(
            "epoch_swaps",
            5.0,
            {**deployment, "daily_volume": 12_000_000},
            None,
            {**tiny, "daily_volume": 500_000},
        ),
        EpochWorkload(
            "epoch_positions",
            4.4,
            {**deployment, "daily_volume": 6_000_000},
            (20, 40, 20, 20),
            {**tiny, "daily_volume": 300_000},
        ),
        EpochWorkload(
            "epoch_committee",
            7.0,
            dict(committee_size=500, num_users=100, daily_volume=200_000, rounds_per_epoch=3),
            None,
            {"committee_size": 40, "num_users": 16},
        ),
        ShardedWorkload(),
        ServingWorkload(),
    ]


def epoch_estimate(outcome: Outcome) -> float:
    """Seconds per traffic epoch, from a warm-up deployment's epochs (the
    first one carries cold caches and, sharded, the shards' construction)."""
    return median(outcome.epoch_s[1:] or outcome.epoch_s or [outcome.wall_s])
