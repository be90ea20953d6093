"""Smoke check for the persistent benchmark harness.

Runs ``benchmarks/run_benchmarks.py --quick`` (each scenario once) and
asserts it completes and writes valid JSON, so the perf tooling cannot
silently rot between PRs.  Throughput numbers from quick mode are noisy
by design and are not asserted on.
"""

import json
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
RUNNER = REPO_ROOT / "benchmarks" / "run_benchmarks.py"


def test_run_benchmarks_quick_writes_valid_json(tmp_path):
    output = tmp_path / "BENCH_amm.json"
    trace_out = tmp_path / "trace.json"
    proc = subprocess.run(
        [
            sys.executable, str(RUNNER), "--quick", "-o", str(output),
            "--trace", str(trace_out),
        ],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(output.read_text())
    assert report["suite"] == "amm_engine"
    assert report["quick"] is True
    expected = {
        "tick_math_roundtrip",
        "sqrt_ratio_at_tick",
        "swap_in_range",
        "swap_crossing_ticks",
        "quote",
        "mint_burn_cycle",
        "executor_round",
        "block_fill",
        "system_epoch",
        "pbft_round",
        "committee_epoch",
        "sharded_epoch",
    }
    assert set(report["scenarios"]) == expected
    for name, result in report["scenarios"].items():
        assert result["ops_per_sec"] > 0, name
        assert result["seconds_per_op"] > 0, name
    # sharded_epoch is new in PR 5 and carries no seed-commit baseline;
    # its scaling trajectory lives in the shard_scaling block instead.
    assert set(report["seed_baseline_ops_per_sec"]) == expected - {
        "sharded_epoch"
    }
    scaling = report["shard_scaling"]
    assert scaling["wall_clock"]["1_shard"] > 0
    assert scaling["wall_clock"]["4_shards"] > 0
    assert scaling["simulated"]["speedup_4v1"] >= 2.5
    # Per-phase wall-time breakdown of the epoch loop, from its phase spans.
    phases = report["phase_profile"]
    assert phases["epochs"] >= 1
    assert "phase.round_execution" in phases["phases"]
    for row in phases["phases"].values():
        assert row["total_s"] >= 0.0
        assert row["calls"] >= 1
    # --trace exported a well-formed Chrome trace-event document.
    from repro.telemetry import export

    doc = json.loads(trace_out.read_text())
    assert export.validate_chrome_trace(doc) == []
    names = {event["name"] for event in doc["traceEvents"]}
    assert "epoch.run" in names


def test_run_benchmarks_store_records_feed_compare(tmp_path):
    """--store emits artifact-store records `compare` reads like any other
    result set (this is the CI benchmark gate's data path)."""
    output = tmp_path / "bench.json"
    store = tmp_path / "store"
    proc = subprocess.run(
        [
            sys.executable,
            str(RUNNER),
            "--quick",
            "--scenario",
            "sqrt_ratio_at_tick",
            "--scenario",
            "quote",
            "-o",
            str(output),
            "--store",
            str(store),
        ],
        capture_output=True,
        text=True,
        timeout=120,
        env={**__import__("os").environ, "PYTHONPATH": str(REPO_ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    assert len(list((store / "objects").glob("*/*.json"))) == 2
    assert len(list((store / "runs").glob("*.json"))) == 1

    from repro.results.compare import compare_tables, load_result_set

    report_tables = load_result_set(output)
    store_tables = load_result_set(store)
    assert set(store_tables) == {"benchmarks"}
    # The store manifest and the JSON report describe the same measurement.
    drifts, _ = compare_tables(report_tables, store_tables)
    assert drifts == []


def test_gate_mode_is_calibrated(tmp_path):
    output = tmp_path / "bench.json"
    proc = subprocess.run(
        [
            sys.executable,
            str(RUNNER),
            "--gate",
            "--scenario",
            "sqrt_ratio_at_tick",
            "-o",
            str(output),
        ],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(output.read_text())
    assert report["mode"] == "gate"
    result = report["scenarios"]["sqrt_ratio_at_tick"]
    assert result["repeats"] == 2
    assert result["iterations"] > 1  # calibrated, unlike --quick


def test_run_benchmarks_single_scenario(tmp_path):
    output = tmp_path / "bench.json"
    proc = subprocess.run(
        [
            sys.executable,
            str(RUNNER),
            "--quick",
            "--scenario",
            "sqrt_ratio_at_tick",
            "-o",
            str(output),
        ],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(output.read_text())
    assert list(report["scenarios"]) == ["sqrt_ratio_at_tick"]
    assert report["speedup_vs_seed"]["sqrt_ratio_at_tick"] > 0
