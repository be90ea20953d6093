"""Telemetry hard invariants: observation never changes the simulation.

Three properties, each guarded here:

1. tracing OFF (the default) leaves results identical to tracing ON —
   spans consume no RNG and touch no simulation state;
2. the merged trace of a ``jobs=N`` run is event-for-event identical to
   the serial run (workers drain per shard, the parent ingests in
   sorted shard order);
3. wall-clock fields ride along in events but are excluded from trace
   digests, so digests are stable across machines and runs.
"""

from __future__ import annotations

import pytest

from repro.core.system import AmmBoostConfig
from repro.sharding import ShardedSystem
from repro.sharding.system import ShardedConfig
from repro.telemetry import export, trace


@pytest.fixture(autouse=True)
def _clean_tracer():
    trace.disable()
    yield
    trace.disable()


def _run_sharded(jobs: int, traced: bool):
    """One small sharded run; returns (report, events-or-None)."""
    if traced:
        trace.enable()
    config = ShardedConfig(
        num_shards=2,
        cross_shard_ratio=0.3,
        jobs=jobs,
        base=AmmBoostConfig(
            committee_size=8,
            miner_population=16,
            num_users=10,
            daily_volume=100_000,
            rounds_per_epoch=6,
            seed=7,
        ),
    )
    report = ShardedSystem(config).run(num_epochs=3)
    events = trace.drain() if traced else None
    if traced:
        trace.disable()
    return report, events


#: The four run flavours, computed once per module (the runs are the
#: expensive part; every invariant below is a pure read of these).
_RUNS: dict = {}


def _cached(jobs: int, traced: bool):
    key = (jobs, traced)
    if key not in _RUNS:
        _RUNS[key] = _run_sharded(jobs, traced)
    return _RUNS[key]


def test_tracing_does_not_change_results():
    baseline, _ = _cached(jobs=1, traced=False)
    traced, events = _cached(jobs=1, traced=True)
    assert traced.digest() == baseline.digest()
    assert traced.aggregate_processed == baseline.aggregate_processed
    assert events  # the traced run did record spans


def test_parallel_results_match_serial_with_tracing_on():
    serial, _ = _cached(jobs=1, traced=True)
    parallel, _ = _cached(jobs=2, traced=True)
    assert parallel.digest() == serial.digest()


def test_trace_merge_is_jobs_invariant():
    _, serial_events = _cached(jobs=1, traced=True)
    _, parallel_events = _cached(jobs=2, traced=True)
    assert trace.digest(serial_events) == trace.digest(parallel_events)
    # Not just digest-equal: same events in the same canonical order.
    strip = trace.WALL_KEYS

    def stripped(events):
        return [
            {k: v for k, v in event.items() if k not in strip}
            for event in events
        ]

    assert stripped(serial_events) == stripped(parallel_events)


def test_trace_digest_is_stable_across_repeat_runs():
    _, first = _cached(jobs=1, traced=True)
    _, second = _run_sharded(jobs=1, traced=True)
    # Wall-clock differs between runs; the digest must not see it.
    assert trace.digest(first) == trace.digest(second)


def test_exported_trace_validates_and_stitches_across_shards():
    _, events = _cached(jobs=1, traced=True)
    doc = export.to_chrome_trace(events)
    assert export.validate_chrome_trace(doc) == []
    # At least one cross-shard transfer visible on both shards: async
    # events (begin at the source, lock/credit instants where the legs
    # execute) sharing one id across two distinct threads (= shard
    # tracks).  Perfetto groups them into a single async span by
    # (cat, id).
    tids_by_id: dict[str, set[int]] = {}
    begun: set[str] = set()
    for event in doc["traceEvents"]:
        if event.get("ph") in ("b", "n", "e") and event.get("cat") == "xfer":
            tids_by_id.setdefault(event["id"], set()).add(event["tid"])
            if event["ph"] == "b":
                begun.add(event["id"])
    stitched = [
        key
        for key, tids in tids_by_id.items()
        if len(tids) > 1 and key in begun
    ]
    assert stitched


def test_applied_faults_are_trace_instants():
    """A faulted run says what degraded: one ``fault.<kind>`` instant per
    fault-log record, at the system's virtual time, under the default
    phase span names — and tracing it changes nothing."""
    from repro.scenarios.faults import interrupted_recovery_point

    params = {"mode": "stacked", "seed": 0}
    untraced = interrupted_recovery_point(params)
    trace.enable()
    traced = interrupted_recovery_point(params)
    events = trace.drain()
    assert traced == untraced

    faults = [e for e in events if e["name"].startswith("fault.")]
    names = [e["name"] for e in faults]
    assert names.count("fault.view_change") == 2
    assert names.count("fault.sync_withheld") == 1
    assert names.count("fault.rollback") == 1
    assert [
        (e["name"], e["args"]["epoch"], e["args"]["round_index"], e["args"]["detail"])
        for e in faults
    ] == [
        (f"fault.{r['kind']}", r["epoch"], r["round_index"], r["detail"])
        for r in traced["fault_log"]
    ]
    assert all(e["ph"] == "i" and e["ts"] > 0.0 for e in faults)
    phase_spans = {
        e["name"] for e in events if e["name"].startswith("phase.")
    }
    assert {"phase.round_execution", "phase.summary_sync",
            "phase.prune_recovery"} <= phase_spans
    assert not any("faulty" in name for name in phase_spans)


def test_scenario_runner_traces_are_jobs_invariant(monkeypatch):
    """--jobs 1 and --jobs 2 produce identical merged scenario traces."""
    from repro import scenarios
    from repro.scenarios.runner import ScenarioRunner

    monkeypatch.setenv("REPRO_FAST", "1")  # CI-sized grid points
    spec = scenarios.get("cross_shard_ratio")

    def run(jobs: int):
        trace.enable()
        try:
            runner = ScenarioRunner(jobs=jobs)
            (outcome,) = runner.run_many([spec])
            events = trace.drain()
        finally:
            trace.disable()
        assert not isinstance(outcome, Exception)
        return outcome, events

    serial_outcome, serial_events = run(1)
    parallel_outcome, parallel_events = run(2)
    assert serial_outcome.rows == parallel_outcome.rows
    assert trace.digest(serial_events) == trace.digest(parallel_events)
    procs = {event["proc"] for event in serial_events}
    # Every span is labelled with the grid point that produced it.
    assert all(proc.startswith("cross_shard_ratio[") for proc in procs)
