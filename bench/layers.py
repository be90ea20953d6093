"""The traced run: which callables are wrapped, and the per-layer bill.

``measure_layers`` runs a workload a few more times inside the same
process — untraced, then with the span wrappers of :mod:`spans` installed,
then with the program's own tracer (``repro.telemetry.trace``) switched
on — and turns the spans into the ``per_layer`` metrics of
``BENCHMARK.json``.  Time metrics (``*_ms``) are mean **self** time per
epoch unless suffixed ``_p50`` / ``_p99``; count metrics are exact for a
seed (taken at the workload's checkpoint epoch).  A metric a workload
does not exercise reads 0.
"""

from __future__ import annotations

import importlib
import inspect
import math
import pickle
from statistics import mean, median

from spans import Recorder
from workloads import (
    Outcome,
    ServingWorkload,
    ShardedWorkload,
    Workload,
    reference_loop,
)

#: The share of an epoch the span wrappers may cost (traced vs untraced)
#: before the traced run's bill is refused as distorted by its observer.
MAX_TRACE_OVERHEAD = 0.15


def _add(counts: dict, key: str, amount: float) -> None:
    counts[key] = counts.get(key, 0) + amount


def _tally_batch(counts, args, result) -> None:
    _add(counts, "batches", 1)
    _add(counts, "batch_swaps", len(args[1]))


def _tally_payload(counts, args, result) -> None:
    _add(counts, "core.sync.payload_bytes", result.size_bytes)


def _tally_summary(counts, args, result) -> None:
    _add(counts, "core.summary.payout_entries", len(result.payouts))
    _add(counts, "core.summary.position_entries", len(result.positions))


#: (module, owner class or None for a module binding, attribute, span
#: name, layer, tally).  ``repro.core.phases`` imported ``summarize_epoch``
#: / ``elect_committee`` / ``simulate_dkg`` by name, so the binding that
#: the epoch loop calls is the one in that module.
TARGETS = [
    ("repro.core.system", "AmmBoostSystem", "run", "system.run", "core.system", None),
    ("repro.core.phases", "RoundExecutionPhase", "mine_meta_block", "mine_meta_block", "core.phases", None),
    ("repro.core.phases", None, "check_pending_syncs", "check_pending_syncs", "core.phases", None),
    ("repro.core.phases", None, "summarize_epoch", "summarize_epoch", "core.summary", _tally_summary),
    ("repro.core.phases", None, "build_sync_payload", "build_sync_payload", "core.sync", _tally_payload),
    ("repro.core.phases", None, "elect_committee", "elect_committee", "sidechain", None),
    ("repro.core.phases", None, "simulate_dkg", "simulate_dkg", "crypto", None),
    ("repro.core.sync", "TsqcAuthenticator", "certify_handover", "certify_handover", "core.sync", None),
    ("repro.workload.generator", "TrafficGenerator", "generate_round", "generate_round", "workload", None),
    ("repro.core.executor", "SidechainExecutor", "process_round", "process_round", "core.executor", _tally_batch),
    ("repro.core.executor", "SidechainExecutor", "process", "process", "core.executor", None),
    ("repro.sharding.shard", "ShardExecutor", "process", "process", "core.executor", None),
    ("repro.amm.pool", "SwapBatch", "quote", "SwapBatch.quote", "amm", None),
    ("repro.amm.pool", "SwapBatch", "commit", "SwapBatch.commit", "amm", None),
    ("repro.amm.pool", "Pool", "mint", "Pool.mint", "amm", None),
    ("repro.amm.pool", "Pool", "burn", "Pool.burn", "amm", None),
    ("repro.amm.pool", "Pool", "collect", "Pool.collect", "amm", None),
    ("repro.amm.pool", "Pool", "prepare_swap", "Pool.prepare_swap", "amm", None),
    ("repro.amm.pool", "Pool", "freeze", "Pool.freeze", "amm", None),
    ("repro.amm.pool", "PoolSnapshot", "quote", "PoolSnapshot.quote", "amm", None),
    ("repro.sidechain.blocks", "MetaBlock", "seal", "MetaBlock.seal", "sidechain", None),
    ("repro.sidechain.blocks", "SummaryBlock", "from_meta_blocks", "SummaryBlock.from_meta_blocks", "sidechain", None),
    ("repro.sidechain.chain", "SidechainLedger", "append_meta_block", "ledger.append", "sidechain", None),
    ("repro.sidechain.chain", "SidechainLedger", "append_summary_block", "ledger.append", "sidechain", None),
    ("repro.sidechain.chain", "SidechainLedger", "prune_epoch", "ledger.prune", "sidechain", None),
    ("repro.core.token_bank", "TokenBank", "sync", "TokenBank.sync", "core.token_bank", None),
    ("repro.core.token_bank", "TokenBank", "state_snapshot", "TokenBank.state_snapshot", "core.token_bank", None),
    ("repro.mainchain.chain", "Mainchain", "produce_blocks_until", "produce_blocks_until", "mainchain", None),
    ("repro.sharding.shard", "Shard", "run_epoch", "Shard.run_epoch", "sharding", None),
    ("repro.sharding.shard", "Shard", "finish", "Shard.finish", "sharding", None),
    ("repro.serving.gateway", "QuoteGateway", "process_tick", "process_tick", "serving", None),
    ("repro.serving.gateway", "QuoteGateway", "shutdown", "gateway.shutdown", "serving", None),
    ("repro.serving.clients", "ClientFleet", "run_window", "run_window", "serving", None),
    ("repro.serving.clients", "ClientFleet", "close", "fleet.close", "serving", None),
    ("repro.serving.driver", "ServingRun", "execute", "serving.execute", "serving", None),
]


def coordinator_targets(checkpoint: int):
    """The coordinator's side of a sharded epoch.

    Installed on their own for the jobs=2 pass: forked workers inherit
    whatever is installed, and these are never called inside a worker, so
    the workers run unwrapped.
    """

    def tally_records(counts, args, result) -> None:
        # One epoch's wire traffic: what the scheduler pickles through the
        # worker pipes (instructions out, records back).  Sized at the
        # checkpoint epoch only; the pickling here is the harness's cost.
        if args[1] == checkpoint:
            counts["sharding.scheduler.record_bytes"] = len(
                pickle.dumps((args[3], result))
            )

    return [
        ("repro.sharding.system", "ShardedSystem", "run", "sharded.run", "sharding", None),
        ("repro.sharding.scheduler", "ShardScheduler", "run_epoch", "scheduler.run_epoch", "sharding", tally_records),
        ("repro.sharding.scheduler", "ShardScheduler", "finish", "scheduler.finish", "sharding", None),
    ]


def owner_of(module_name: str, owner_name: str | None):
    """The module, or the class in it, that holds a wrap target."""
    module = importlib.import_module(module_name)
    return module if owner_name is None else getattr(module, owner_name, None)


def install(recorder: Recorder, targets) -> None:
    for module_name, owner_name, attr, name, layer, tally in targets:
        owner = owner_of(module_name, owner_name)
        if owner is None:
            recorder.missing.append(f"{module_name}.{owner_name}")
        else:
            recorder.wrap(owner, attr, name, layer, tally)


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]


def epochs_for(seconds: float, estimate: float, workload: Workload) -> int:
    """Traffic epochs of a run that is to last ``seconds``.

    The workload's fixed pace, so that every run of a given ``--seconds``
    does the same work; cut short only on a machine so slow (``estimate``
    is its measured seconds per epoch) that the run would overshoot its
    time box by half, where keeping inside the driver's budget matters
    more than a number nobody could compare anyway.
    """
    nominal = round(workload.pace * seconds)
    fits = int(1.5 * seconds / estimate)
    return max(min(nominal, fits), workload.warm_epochs, 2)


class Slice:
    """One deployment's run inside the traced run."""

    def __init__(self, outcome: Outcome, recorder: Recorder | None = None) -> None:
        self.outcome = outcome
        self.recorder = recorder
        self.epoch_ms_p50 = 1e3 * median(outcome.epoch_s)

    def slower_than(self, other: "Slice") -> float:
        """How much longer this pass's epochs took than ``other``'s, as a
        share of ``other``'s.  Same seed, so epoch *i* did the same work in
        both: the median of the per-epoch ratios shrugs off a burst that
        hit a few epochs of either pass."""
        return median(
            mine / theirs
            for mine, theirs in zip(self.outcome.epoch_s, other.outcome.epoch_s)
        ) - 1


def _traced(workload: Workload, seed: int, epochs: int, targets, **variant) -> Slice:
    recorder = Recorder()
    install(recorder, [t for t in targets if t[3] not in workload.unwrapped])
    try:
        outcome = workload.run(seed, epochs, recorder, **variant)
    finally:
        recorder.restore()
    return Slice(outcome, recorder)


def _with_program_tracer(workload: Workload, seed: int, epochs: int) -> Slice:
    from repro.telemetry import trace

    trace.enable()
    try:
        return Slice(workload.run(seed, epochs))
    finally:
        trace.disable()


def wrapped_targets() -> list[str]:
    """Wrap targets that currently carry a wrapper (none, between runs)."""
    found = []
    for module_name, owner_name, attr, *_ in TARGETS + coordinator_targets(0):
        raw = inspect.getattr_static(owner_of(module_name, owner_name), attr, None)
        if hasattr(getattr(raw, "__func__", raw), "__wrapped__"):
            found.append(f"{owner_name or module_name}.{attr}")
    return found


def measure_layers(
    workload: Workload,
    seed: int,
    seconds: float,
    estimate: float,
    declared: list[str],
    max_overhead: float | None = MAX_TRACE_OVERHEAD,
) -> tuple[dict[str, float], list[str], Recorder, Outcome]:
    """Run the passes; return ``(per-layer metrics, failed checks, the
    traced pass's recorder, the untraced pass's outcome)``.

    Every workload runs untraced, traced, and with the program's own
    tracer on, half of ``seconds`` each.  ``sharded_xfer`` does the first
    two serially (jobs=1: spans recorded inside a forked worker would die
    with it) and adds a jobs=2 pass with only the coordinator's callables
    wrapped.  ``declared`` names the per-layer metrics of BENCHMARK.json;
    ``max_overhead`` is ``None`` where epochs are too short for the check
    (``--smoke``: a millisecond or two, so the ratio is mostly noise).
    """
    sharded = isinstance(workload, ShardedWorkload)
    epochs = epochs_for(seconds / 2, estimate, workload)
    serial = {"jobs": 1} if sharded else {}
    coordinator = coordinator_targets(workload.checkpoint)

    # A second try if the wrappers read as too costly: a machine that
    # slowed down for the traced pass alone reads the same.
    for _ in range(2):
        plain = Slice(workload.run(seed, epochs, **serial))
        traced = _traced(workload, seed, epochs, TARGETS + coordinator, **serial)
        overhead = traced.slower_than(plain)
        if max_overhead is None or overhead <= max_overhead:
            break
    fanned = _traced(workload, seed, epochs, coordinator) if sharded else plain
    telemetry = _with_program_tracer(workload, seed, epochs)

    passes = {"untraced": plain, "traced": traced, "fanned": fanned, "tracer-on": telemetry}
    problems = [
        f"{label}: {problem}"
        for label, piece in passes.items()
        for problem in piece.outcome.problems
    ]
    digests = {label: piece.outcome.checkpoint for label, piece in passes.items()}
    if len(set(digests.values())) != 1:
        problems.append(f"traced and untraced runs diverged at the checkpoint: {digests}")
    totals = _Totals(traced)
    # Self times partition the span around the program's top-level call,
    # so the bill adds up if that span is the wall time the harness saw.
    billed = totals.total_s("system.run", "sharded.run", "serving.execute")
    wall = traced.outcome.run_wall_s
    if abs(billed - wall) > 0.02 * wall:
        problems.append(f"the bill does not add up: spans {billed:.3f}s vs wall {wall:.3f}s")

    metrics = dict.fromkeys(declared, 0.0)
    # Exact counts, read at the checkpoint epoch.
    metrics.update({k: v for k, v in traced.outcome.counts.items() if k in metrics})
    metrics.update(_epoch_bill(plain, traced, totals))
    if sharded:
        metrics.update(_sharding_bill(workload, epochs, plain, totals, _Totals(fanned)))
    if isinstance(workload, ServingWorkload):
        metrics.update(_serving_bill(epochs, plain, traced, totals))
    metrics["bench.calibration_ms"] = 1e3 * median(reference_loop() for _ in range(9))
    metrics["bench.trace_overhead_share"] = overhead
    if max_overhead is not None and overhead > max_overhead:
        problems.append(
            f"span wrappers cost {overhead:.1%} of an untraced epoch "
            f"({plain.epoch_ms_p50:.1f} ms), more than {max_overhead:.0%}"
        )
    metrics["telemetry.trace_on_overhead_share"] = telemetry.slower_than(fanned)
    assert traced.recorder is not None
    return metrics, problems, traced.recorder, plain.outcome


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


class _Totals:
    """A traced pass's spans by name.  Per-epoch means divide by the
    epochs the deployment ran (drain included; sharded: lock-step epochs,
    one span per shard each)."""

    def __init__(self, piece: Slice) -> None:
        assert piece.recorder is not None
        self.recorder = piece.recorder
        self.outcome, self.epoch_ms_p50 = piece.outcome, piece.epoch_ms_p50
        self.names = self.recorder.by_name()
        self.ran = piece.outcome.epochs_run

    def self_s(self, *spans: str) -> float:
        return sum(self.names[s].self_s for s in spans if s in self.names)

    def total_s(self, *spans: str) -> float:
        return sum(self.names[s].total_s for s in spans if s in self.names)

    def self_ms(self, *spans: str) -> float:
        return 1e3 * self.self_s(*spans) / self.ran

    def durations(self, name: str) -> list[tuple[int, float]]:
        """``(unit id, seconds)`` of every span called ``name``."""
        return [
            (span["unit"], span["end"] - span["start"])
            for span in self.recorder.spans(name)
        ]

    def percentile(self, name: str, q: float) -> float:
        return percentile([seconds for _, seconds in self.durations(name)], q)


def _epoch_bill(plain: Slice, traced: Slice, t: _Totals) -> dict[str, float]:
    assert traced.recorder is not None
    at_checkpoint = traced.outcome.counts
    # SwapBatch.accept (a dozen field copies per swap) is left unwrapped:
    # a span would cost more than the call, so it bills to the executor.
    walk = ("SwapBatch.quote", "SwapBatch.commit")
    return {
        "core.system.epoch_ms_p90": 1e3 * percentile(plain.outcome.epoch_s, 0.9),
        "core.phases.glue_ms": t.self_ms("epoch"),
        **{
            f"core.phases.{phase}_ms": 1e3 * t.total_s(phase) / t.ran
            for phase in (
                "committee_handover", "deposit_merge", "round_execution",
                "summary_sync", "prune_recovery",
            )
        },
        "core.phases.pack_self_ms": t.self_ms("mine_meta_block"),
        "core.phases.confirm_ms": t.self_ms("check_pending_syncs"),
        "workload.generate_ms": t.self_ms("generate_round"),
        "core.executor.batch_self_ms": t.self_ms("process_round"),
        "core.executor.single_self_ms": t.self_ms("process"),
        "core.executor.swaps_per_batch": _share(
            at_checkpoint.get("batch_swaps", 0), at_checkpoint.get("batches", 0)
        ),
        "amm.swap_walk_ms": t.self_ms(*walk),
        "amm.us_per_swap": 1e6
        * _share(t.self_s(*walk), traced.recorder.counts.get("batch_swaps", 0)),
        "amm.position_ops_ms": t.self_ms("Pool.mint", "Pool.burn", "Pool.collect"),
        "amm.prepare_swap_ms": t.self_ms("Pool.prepare_swap"),
        "amm.snapshot_quote_us_p50": 1e6 * t.percentile("PoolSnapshot.quote", 0.5),
        "amm.freeze_ms_p50": 1e3 * t.percentile("Pool.freeze", 0.5),
        "sidechain.seal_ms": t.self_ms("MetaBlock.seal", "SummaryBlock.from_meta_blocks"),
        "sidechain.ledger_ms": t.self_ms("ledger.append", "ledger.prune"),
        "sidechain.election_ms": t.self_ms("elect_committee"),
        "crypto.dkg_ms": t.self_ms("simulate_dkg"),
        "core.sync.certify_handover_ms": t.self_ms("certify_handover"),
        "core.sync.build_payload_ms": t.self_ms("build_sync_payload"),
        "core.summary.summarize_ms": t.self_ms("summarize_epoch"),
        "core.token_bank.sync_exec_ms": t.self_ms("TokenBank.sync"),
        "core.token_bank.state_snapshot_ms": t.self_ms("TokenBank.state_snapshot"),
        "mainchain.produce_self_ms": t.self_ms("produce_blocks_until"),
    }


def _sharding_bill(
    workload: ShardedWorkload, epochs: int, plain: Slice, serial: _Totals, fan: _Totals
) -> dict[str, float]:
    """The jobs=2 pass (``fan``) against the two serial passes."""
    coordinator_ms = fan.self_ms("sharded.run")
    # Epoch 0 carries the fork and the shards' construction: skip it.
    scheduler_ms = 1e3 * median(
        seconds
        for unit, seconds in fan.durations("scheduler.run_epoch")
        if 1 <= unit < epochs
    )
    by_epoch: dict[int, list[float]] = {}
    for unit, seconds in serial.durations("Shard.run_epoch"):
        by_epoch.setdefault(unit, []).append(seconds)
    # A serial epoch is the shards' compute plus the coordinator, so the
    # untraced serial pass gives compute free of wrapper cost.
    compute_ms = plain.epoch_ms_p50 - coordinator_ms
    return {
        "sharding.scheduler.run_epoch_ms": scheduler_ms,
        "sharding.shard.run_epoch_ms": 1e3 * serial.total_s("Shard.run_epoch") / serial.ran,
        "sharding.shard.imbalance": mean(
            max(shards) / mean(shards) for shards in by_epoch.values()
        ),
        "sharding.scheduler.overhead_share": 1 - compute_ms / workload.jobs / scheduler_ms,
        "sharding.coordinator_ms": coordinator_ms,
        "sharding.scheduler.record_bytes": fan.outcome.counts.get(
            "sharding.scheduler.record_bytes", 0
        ),
        "sharding.speedup_vs_serial": plain.epoch_ms_p50 / fan.epoch_ms_p50,
    }


def client_metrics(outcome: Outcome) -> dict[str, float]:
    """What the serving fleet's clients saw in one run (nothing for the
    other workloads).  Every untraced ``serving_fleet`` run reports these
    into its run record, so ``compare.py`` can hold them to a bound."""
    client = outcome.samples
    if "quote_wall_s" not in client:
        return {}
    return {
        "serving.quotes_per_s": len(client["quote_ticks"]) / outcome.run_wall_s,
        "serving.quote_ms_p50": 1e3 * percentile(client["quote_wall_s"], 0.5),
        "serving.quote_ms_p99": 1e3 * percentile(client["quote_wall_s"], 0.99),
    }


def _serving_bill(
    epochs: int, plain: Slice, traced: Slice, t: _Totals
) -> dict[str, float]:
    # Pipeline epoch 0 is ServingRun's warm-up, 1..epochs follow the quote
    # windows, anything later is the flush after shutdown.
    pipeline = t.durations("epoch")
    at_checkpoint, sampled = traced.outcome.counts, traced.outcome.samples
    return {
        **client_metrics(plain.outcome),  # from the untraced pass
        "serving.gateway.process_tick_ms_p50": 1e3 * t.percentile("process_tick", 0.5),
        "serving.gateway.process_tick_ms_p99": 1e3 * t.percentile("process_tick", 0.99),
        "serving.gateway.admit_self_share": _share(
            t.self_s("process_tick"), t.total_s("process_tick")
        ),
        "serving.clients.barrier_share": _share(
            t.self_s("run_window"), t.total_s("run_window")
        ),
        "serving.phases.pipeline_epoch_ms_p50": 1e3
        * percentile([d for unit, d in pipeline if 1 <= unit <= epochs], 0.5),
        "serving.drain_s": t.total_s("gateway.shutdown", "fleet.close")
        + sum(d for unit, d in pipeline if unit > epochs),
        "serving.driver.residual_share": _share(
            t.self_s("serving.execute"), t.total_s("serving.execute")
        ),
        # Sample lists as long as they were at the checkpoint epoch.
        "serving.gateway.quote_ticks_p99": percentile(
            sampled["quote_ticks"][: int(at_checkpoint["quote_ticks"])], 0.99
        ),
        "serving.gateway.finality_epochs_p50": percentile(
            sampled["finality_epochs"][: int(at_checkpoint["finality_epochs"])], 0.5
        ),
    }
