#!/usr/bin/env python
"""Persistent AMM benchmark harness.

Runs the ``bench_amm_engine.py`` scenarios (swap in range, tick-crossing
swaps, quoting, mint/burn cycles, tick math) plus an end-to-end executor
round benchmark, and writes ``BENCH_amm.json`` with ops/sec per scenario
so successive PRs have a throughput trajectory to regress against.

Usage::

    PYTHONPATH=src python benchmarks/run_benchmarks.py            # full run
    PYTHONPATH=src python benchmarks/run_benchmarks.py --quick    # CI smoke
    PYTHONPATH=src python benchmarks/run_benchmarks.py --gate     # CI gate
    PYTHONPATH=src python benchmarks/run_benchmarks.py -o out.json
    PYTHONPATH=src python benchmarks/run_benchmarks.py --store .repro-results
    PYTHONPATH=src python benchmarks/run_benchmarks.py --backend compiled

``--backend {pure,compiled}`` selects the AMM math/keccak backend (it
sets ``REPRO_BACKEND`` before the engine import — dispatch binds at
import time).  Full runs additionally measure a ``backend_speedup``
block: the *other* backend is benchmarked in a subprocess on the
dispatch-sensitive scenarios and compiled/pure ratios are recorded.

The JSON also records the seed-commit baseline (measured on the same
scenario definitions before the fast-path work landed) and the speedup of
the current tree against it.  Interpretation notes live in
``benchmarks/README.md``.

``--gate`` is the CI regression-gate mode: calibrated like a full run but
with a shorter inner loop (~0.05 s) and two repeats — stable enough to
compare against the committed ``BENCH_amm.json`` under a generous
tolerance, cheap enough for every pull request::

    python -m repro.experiments compare BENCH_amm.json fresh.json \
        --rtol 0.30 --fail-low-only

``--store DIR`` additionally persists each measurement as a
content-addressed artifact (plus a run manifest) in the same store
format the experiment CLI writes, so ``compare`` works on benchmark
stores exactly like on scenario stores.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

_HERE = Path(__file__).resolve().parent
_REPO_ROOT = _HERE.parent
sys.path.insert(0, str(_REPO_ROOT / "src"))
sys.path.insert(0, str(_HERE))


def _apply_backend_flag(argv: list[str]) -> None:
    """Honour ``--backend`` before the first ``repro`` import.

    Backend dispatch is resolved once at import time (hot loops bind the
    selected functions directly), so the flag must become
    ``REPRO_BACKEND`` before ``bench_amm_engine`` pulls in the engine.
    argparse still declares the flag below for --help and validation.
    """
    for i, arg in enumerate(argv):
        if arg == "--backend" and i + 1 < len(argv):
            os.environ["REPRO_BACKEND"] = argv[i + 1]
        elif arg.startswith("--backend="):
            os.environ["REPRO_BACKEND"] = arg.split("=", 1)[1]


_apply_backend_flag(sys.argv[1:])

import bench_amm_engine  # noqa: E402

from repro.amm import backend as _amm_backend  # noqa: E402

#: Ops/sec measured at the seed commit (pre-optimization engine) with this
#: same runner.  Kept so every BENCH_amm.json carries its own before/after
#: trajectory; refresh only when scenario definitions change.
SEED_BASELINE_OPS_PER_SEC = {
    "tick_math_roundtrip": 21_674.4,
    "sqrt_ratio_at_tick": 458_374.0,
    "swap_in_range": 22_135.5,
    "swap_crossing_ticks": 16_030.3,
    "quote": 23_906.2,
    "mint_burn_cycle": 43_068.2,
    "executor_round": 10_683.4,
    # system_epoch was added in PR 2; its baseline is the PR 1 (monolithic
    # epoch loop) tree measured with this same runner, in sidechain tx/s.
    "system_epoch": 26_326.6,
    # pbft_round was added in PR 3 (fault engine): one honest 8-member
    # message-level agreement with the fault driver armed, in rounds/s.
    # Baseline measured on the PR 3 tree — it tracks fault-path overhead
    # on the happy path from here on.
    "pbft_round": 4.2,
    # sharded_epoch was added in PR 5 (shard engine): one lock-step epoch
    # of a 4-shard deployment, in aggregate sidechain tx/s.  No seed
    # baseline (the subsystem is new); the shard_scaling block of the
    # report carries the 1-vs-4-shard scaling ratios.
    # migration_epoch was added in PR 6 (recovery engine): a 2-shard
    # serial epoch with a live pool handoff in flight at every boundary,
    # driven through the recovery-aware coordinator path (bridge
    # journal, migration engine, per-epoch conservation check).
    # Baseline measured on the PR 6 tree with this runner — it tracks
    # migration-path overhead from here on (the *happy-path* cost of the
    # recovery machinery is gated by sharded_epoch's head-vs-merge-base
    # comparison in CI).  Not comparable to sharded_epoch's number: a
    # migrating pool's volume slice is dormant inside each handoff
    # window, so epochs carry fewer transactions than nominal.
    "migration_epoch": 28_872.4,
    # committee_epoch was added with the linear committee crypto: sortition
    # of 500 out of 1 000 miners + simulate_dkg(500, 334) + two threshold
    # signatures, in epochs of committee work per second.  Baseline
    # measured with this op on the parent tree (per-signer Lagrange
    # coefficients, coefficient-form dealing, one hash-to-curve per signer).
    "committee_epoch": 8.4,
    # block_fill was added with the one block builder: a byte-capped
    # 20/40/20/20 swap/mint/burn/collect block through
    # SidechainExecutor.fill_block, in transactions per second.  Baseline:
    # the same queue on the parent tree, packed by mine_meta_block's old
    # run pre-selection + process / process_round loop (median of 8 runs
    # that ranged 51.7k-75.4k on a shared box).
    "block_fill": 64_300.0,
}

# Scenario bodies are defined once in bench_amm_engine.py (shared with the
# pytest-benchmark suite) so the two cannot drift apart.
SCENARIOS = {
    "tick_math_roundtrip": bench_amm_engine.make_tick_math_roundtrip_op,
    "sqrt_ratio_at_tick": bench_amm_engine.make_sqrt_ratio_at_tick_op,
    "swap_in_range": bench_amm_engine.make_swap_in_range_op,
    "swap_crossing_ticks": bench_amm_engine.make_swap_crossing_ticks_op,
    "quote": bench_amm_engine.make_quote_op,
    "mint_burn_cycle": bench_amm_engine.make_mint_burn_cycle_op,
    "executor_round": bench_amm_engine.make_executor_round_op,
    "block_fill": bench_amm_engine.make_block_fill_op,
    "system_epoch": bench_amm_engine.make_system_epoch_op,
    "pbft_round": bench_amm_engine.make_pbft_round_op,
    "committee_epoch": bench_amm_engine.make_committee_epoch_op,
    "sharded_epoch": bench_amm_engine.make_sharded_epoch_op,
    "migration_epoch": bench_amm_engine.make_migration_epoch_op,
}


# -- measurement ---------------------------------------------------------------


def _time_once(op, iterations: int) -> float:
    start = time.perf_counter()
    for _ in range(iterations):
        op()
    return time.perf_counter() - start


#: Measurement modes: (per-repeat target seconds, repeats).  ``quick`` is a
#: one-shot smoke (numbers are noisy); ``gate`` is calibrated but short —
#: stable enough for a tolerance-gated comparison on every PR.
MODES = {
    "full": (0.25, 3),
    "gate": (0.05, 2),
    "quick": (None, 1),
}


def measure(op, mode: str = "full") -> dict:
    """Best-of-N repeats of a calibrated inner loop; returns ops/sec."""
    scale = getattr(op, "scale", 1)
    target, repeats = MODES[mode]
    if target is None:
        iterations = 1
    else:
        # Calibrate the inner loop to ~`target` seconds per repeat.
        iterations = 1
        while True:
            elapsed = _time_once(op, iterations)
            if elapsed >= 0.05 or iterations >= 1 << 16:
                break
            iterations *= 4
        iterations = max(1, int(iterations * target / max(elapsed, 1e-9)))
    best = min(_time_once(op, iterations) for _ in range(repeats))
    per_op = best / iterations
    return {
        "ops_per_sec": round(scale * iterations / best, 3),
        "seconds_per_op": per_op / scale,
        "iterations": iterations,
        "repeats": repeats,
    }


def profile(names: list[str]) -> None:
    """cProfile each scenario and print the top 20 cumulative hotspots.

    Profiling is for *shape*, not speed: the tracer makes every Python
    call ~5-10x slower, so compare the relative weight of callees, never
    the absolute times, and confirm any win with a normal timed run.
    """
    import cProfile
    import pstats

    for name in names:
        op = SCENARIOS[name]()
        try:
            op()  # warm caches outside the profile
            iterations = 1
            while _time_once(op, iterations) < 0.2 and iterations < 1 << 14:
                iterations *= 4
            profiler = cProfile.Profile()
            profiler.enable()
            for _ in range(iterations):
                op()
            profiler.disable()
        finally:
            cleanup = getattr(op, "cleanup", None)
            if cleanup is not None:
                cleanup()
        print(f"\n=== {name} ({iterations} iteration(s)) ===")
        pstats.Stats(profiler).sort_stats("cumulative").print_stats(20)


def run(names: list[str], mode: str) -> dict:
    results = {}
    for name in names:
        factory = SCENARIOS[name]
        op = factory()
        try:
            results[name] = measure(op, mode)
        finally:
            cleanup = getattr(op, "cleanup", None)
            if cleanup is not None:
                cleanup()
        print(
            f"{name:24s} {results[name]['ops_per_sec']:>14,.0f} ops/s",
            file=sys.stderr,
        )
    return results


def measure_shard_scaling(mode: str) -> dict:
    """Aggregate sidechain tx/s at 1 vs 4 shards, wall-clock and simulated.

    * ``wall_clock`` ops/sec use the standard harness over one lock-step
      epoch per call, with one scheduler worker per shard (capped at the
      machine's cores) — on a >=4-core runner the 4-shard deployment's
      epochs run concurrently, so aggregate tx per wall-clock second
      scales with the shard count; a smaller machine serialises them and
      the wall-clock ratio degrades toward 1 (the report records the
      cores used so the number can be interpreted).
    * ``simulated`` tx/s divide each deployment's processed transactions
      by its *simulated* elapsed time — the protocol-level capacity
      claim, independent of the benchmarking machine: shards run their
      epochs concurrently in simulated time, so the deployment's rate is
      the per-shard sum.
    """
    import os

    from repro.sharding import ShardedSystem

    wall = {}
    simulated = {}
    for shards in (1, 4):
        op = bench_amm_engine.make_sharded_epoch_op(num_shards=shards)
        try:
            wall[shards] = measure(op, mode)["ops_per_sec"]
        finally:
            op.cleanup()
        report = ShardedSystem(
            bench_amm_engine.make_sharded_config(shards)
        ).run(num_epochs=3)
        simulated[shards] = round(report.aggregate_throughput, 2)
    block = {
        "unit": "aggregate sidechain tx/s",
        "cores": os.cpu_count(),
        "wall_clock": {
            "1_shard": wall[1],
            "4_shards": wall[4],
            "speedup_4v1": round(wall[4] / wall[1], 2) if wall[1] else None,
        },
        "simulated": {
            "1_shard": simulated[1],
            "4_shards": simulated[4],
            "speedup_4v1": (
                round(simulated[4] / simulated[1], 2) if simulated[1] else None
            ),
        },
    }
    print(
        "shard_scaling 1->4: wall x{} (on {} core(s)), simulated x{}".format(
            block["wall_clock"]["speedup_4v1"],
            block["cores"],
            block["simulated"]["speedup_4v1"],
        ),
        file=sys.stderr,
    )
    return block


def measure_serving_latency(mode: str) -> dict:
    """Closed-loop serving percentiles: p50/p99 quote, swap-to-finality.

    Drives the quote/swap gateway with >=1000 deterministic
    closed-loop clients against copy-on-epoch pool snapshots.  The tick
    and finality percentiles (and the log digest) are seed-deterministic;
    the wall-clock percentiles and throughput depend on the machine, so
    `compare` never folds this block into the gated scenarios table —
    it is a trajectory signal, like ``shard_scaling``.
    """
    from repro.serving import GatewayConfig, ServingConfig, ServingRun
    from repro.serving.stats import percentile

    epochs, ticks = {"full": (3, 6), "gate": (2, 4), "quick": (2, 3)}[mode]
    config = ServingConfig(
        num_clients=1200,
        epochs=epochs,
        ticks_per_epoch=ticks,
        seed=2024,
        gateway=GatewayConfig(
            queue_capacity=512,
            quote_capacity_per_tick=256,
            pending_quote_bound=4096,
        ),
    )
    started = time.perf_counter()
    report = ServingRun(config).execute()
    elapsed = time.perf_counter() - started
    wall_ms = [s * 1000.0 for s in report.wall_quote_seconds]
    tick_latencies = [float(v) for v in report.stats.quote_latency_ticks]
    finality = [float(v) for v in report.stats.finality_epochs]
    block = {
        "unit": "closed-loop serving latency",
        "clients": config.num_clients,
        "epochs": epochs,
        "ticks_per_epoch": ticks,
        "quotes_served": report.stats.quotes_served,
        "swaps_accepted": report.stats.submits_accepted,
        "rejections": {
            "quote": dict(sorted(report.stats.quote_rejections.items())),
            "swap": dict(sorted(report.stats.submit_rejections.items())),
        },
        "quote_wall_ms": {
            "p50": round(percentile(wall_ms, 50), 4),
            "p99": round(percentile(wall_ms, 99), 4),
        },
        "quote_ticks": {
            "p50": percentile(tick_latencies, 50),
            "p99": percentile(tick_latencies, 99),
        },
        "swap_finality_epochs": {
            "p50": percentile(finality, 50),
            "p99": percentile(finality, 99),
        },
        "quotes_per_sec_wall": (
            round(report.stats.quotes_served / elapsed, 1) if elapsed else None
        ),
        "elapsed_seconds": round(elapsed, 3),
        "log_digest": report.digest(),
    }
    print(
        "serving_latency: {} clients, quote p50/p99 {}/{} ms wall "
        "({}/{} ticks), finality p50/p99 {}/{} epochs".format(
            config.num_clients,
            block["quote_wall_ms"]["p50"],
            block["quote_wall_ms"]["p99"],
            block["quote_ticks"]["p50"],
            block["quote_ticks"]["p99"],
            block["swap_finality_epochs"]["p50"],
            block["swap_finality_epochs"]["p99"],
        ),
        file=sys.stderr,
    )
    return block


def measure_phase_profile(mode: str) -> dict:
    """Per-phase wall-time breakdown of the epoch loop.

    Installs the telemetry :class:`~repro.telemetry.profile.PhaseProfiler`
    and drives the ``system_epoch`` op through it, so the report shows
    where each epoch's wall time goes (inject, rounds, boundary, ...).
    Wall-clock numbers — machine-dependent trajectory data like
    ``serving_latency``; ``compare`` never folds this block into the
    gated scenarios table.
    """
    from repro.telemetry import profile as phase_profile

    epochs = {"full": 60, "gate": 20, "quick": 5}[mode]
    op = bench_amm_engine.make_system_epoch_op()
    profiler = phase_profile.PhaseProfiler()
    phase_profile.install(profiler)
    try:
        for _ in range(epochs):
            op()
    finally:
        phase_profile.uninstall()
        cleanup = getattr(op, "cleanup", None)
        if cleanup is not None:
            cleanup()
    summary = profiler.summary()
    block = {
        "unit": "wall seconds by epoch phase (system_epoch op)",
        **summary,
    }
    top = max(
        summary["phases"].items(),
        key=lambda item: item[1]["total_s"],
        default=(None, None),
    )
    if top[0] is not None:
        print(
            "phase_profile: {} epoch(s), heaviest phase {} "
            "({:.0%} of epoch time)".format(
                summary["epochs"], top[0], top[1]["share"]
            ),
            file=sys.stderr,
        )
    return block


#: Scenarios the cross-backend comparison runs: the two tightest math
#: loops plus the end-to-end system number the roadmap gates on.
BACKEND_SPEEDUP_SCENARIOS = ("tick_math_roundtrip", "swap_in_range", "system_epoch")


def measure_backend_speedup(results: dict, mode: str) -> dict:
    """Compiled-vs-pure ops/sec ratios on the dispatch-sensitive scenarios.

    Backend dispatch binds at import time, so the *other* backend has to be
    measured in a subprocess (same script, ``--backend`` flag, same mode);
    this process contributes its own already-measured numbers.  If the
    requested counterpart backend is unavailable (extension not built, so
    the subprocess silently fell back to pure), the block records that
    instead of reporting a meaningless ~1.0x ratio.
    """
    active = _amm_backend.active_backend()
    other = "pure" if active == "compiled" else "compiled"
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / f"{other}.json"
        cmd = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--backend",
            other,
            "-o",
            str(out),
        ]
        if mode != "full":
            cmd.append(f"--{mode}")
        for name in BACKEND_SPEEDUP_SCENARIOS:
            cmd += ["--scenario", name]
        env = dict(os.environ, REPRO_BACKEND=other)
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            print(
                f"backend_speedup: {other}-backend subprocess failed:\n"
                f"{proc.stderr}",
                file=sys.stderr,
            )
            return {"active_backend": active, "error": "subprocess failed"}
        other_report = json.loads(out.read_text())
    other_active = other_report.get("backend", {}).get("active")
    if other_active != other:
        print(
            f"backend_speedup: skipped ({other} backend unavailable; "
            "build the extension with `pip install -e .[compiled]`)",
            file=sys.stderr,
        )
        return {
            "active_backend": active,
            "skipped": f"{other} backend unavailable (extension not built)",
        }
    ops = {
        active: {n: results[n]["ops_per_sec"] for n in BACKEND_SPEEDUP_SCENARIOS},
        other: {
            n: other_report["scenarios"][n]["ops_per_sec"]
            for n in BACKEND_SPEEDUP_SCENARIOS
        },
    }
    block = {
        "unit": "compiled ops_per_sec / pure ops_per_sec",
        "scenarios": {
            name: {
                "pure": ops["pure"][name],
                "compiled": ops["compiled"][name],
                "speedup": round(ops["compiled"][name] / ops["pure"][name], 2),
            }
            for name in BACKEND_SPEEDUP_SCENARIOS
        },
    }
    for name, row in block["scenarios"].items():
        print(
            f"backend_speedup {name:24s} x{row['speedup']:.2f} "
            f"(pure {row['pure']:,.0f} -> compiled {row['compiled']:,.0f})",
            file=sys.stderr,
        )
    return block


def write_store_records(store_dir: Path, results: dict, mode: str) -> None:
    """Persist measurements as content-addressed artifacts + a manifest.

    Uses the same store format as ``python -m repro.experiments --out``, so
    ``python -m repro.experiments compare <store> <store>`` works on
    benchmark runs too (the manifest exposes one ``benchmarks`` table).
    """
    from repro.results.fingerprint import fingerprint, point_key_material
    from repro.results.store import ArtifactStore, PointArtifact

    store = ArtifactStore(store_dir)
    points = []
    for name, result in results.items():
        material = point_key_material(
            f"bench:{name}",
            {"mode": mode},
            point_fn=SCENARIOS[name],
            scale=None,
            base_seed="bench",
            env_scale_boost=1,
            headers=("scenario", "ops_per_sec"),
        )
        key = fingerprint(material)
        store.save_point(
            PointArtifact(
                key=key,
                scenario=f"bench:{name}",
                point_index=0,
                params={"mode": mode},
                result=result,
                key_material=material,
                wall_clock_s=result["seconds_per_op"] * result["iterations"],
            )
        )
        points.append(
            {"scenario": f"bench:{name}", "index": 0, "key": key, "ok": True,
             "cached": False, "stored": True}
        )
    store.write_manifest(
        {
            "invocation": ["benchmarks/run_benchmarks.py", "--mode", mode],
            "scenarios": sorted(results),
            "points": points,
            "results": {
                "benchmarks": {
                    "experiment_id": "benchmarks",
                    "title": "AMM engine benchmark suite",
                    "headers": ["scenario", "ops_per_sec"],
                    "rows": [
                        [name, results[name]["ops_per_sec"]]
                        for name in sorted(results)
                    ],
                    "notes": f"mode={mode}",
                }
            },
        }
    )
    print(f"stored {len(points)} benchmark artifact(s) in {store_dir}",
          file=sys.stderr)


def export_trace(out: Path, epochs: int = 3) -> None:
    """Record a traced ``system_epoch`` pass and export Chrome trace JSON.

    Runs *after* every timed measurement so tracing overhead never leaks
    into the report's numbers.
    """
    from repro.telemetry import export, trace

    trace.enable()
    try:
        op = bench_amm_engine.make_system_epoch_op()
        try:
            for _ in range(epochs):
                op()
        finally:
            cleanup = getattr(op, "cleanup", None)
            if cleanup is not None:
                cleanup()
        events = trace.drain()
    finally:
        trace.disable()
    document = export.to_chrome_trace(events)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(document) + "\n")
    print(
        f"trace: {len(events)} event(s) -> {out} "
        "(open in https://ui.perfetto.dev)",
        file=sys.stderr,
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="run each benchmark once (CI smoke check, numbers are noisy)",
    )
    parser.add_argument(
        "--gate",
        action="store_true",
        help="calibrated short run (CI regression gate; see module docstring)",
    )
    parser.add_argument(
        "--store",
        type=Path,
        default=None,
        metavar="DIR",
        help="also persist measurements into a content-addressed artifact "
        "store (same format as `python -m repro.experiments --out`)",
    )
    parser.add_argument(
        "-o",
        "--output",
        type=Path,
        default=_REPO_ROOT / "BENCH_amm.json",
        help="where to write the JSON report (default: repo root BENCH_amm.json)",
    )
    parser.add_argument(
        "--scenario",
        action="append",
        choices=sorted(SCENARIOS),
        help="run only the named scenario(s); may repeat",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="cProfile the selected scenario(s) and print the top 20 "
        "functions by cumulative time instead of writing a report "
        "(profiler numbers are ~5-10x slower than timed runs)",
    )
    parser.add_argument(
        "--backend",
        choices=("pure", "compiled"),
        default=None,
        help="AMM math/keccak backend to benchmark (sets REPRO_BACKEND "
        "before the engine import; default: whatever REPRO_BACKEND says)",
    )
    parser.add_argument(
        "--trace",
        type=Path,
        default=None,
        metavar="OUT.json",
        help="after the timed runs, record a traced system_epoch pass and "
        "export it as Chrome trace-event JSON (tracing stays off during "
        "measurement so the numbers are unaffected)",
    )
    args = parser.parse_args(argv)
    if args.quick and args.gate:
        parser.error("--quick and --gate are mutually exclusive")
    if args.backend and args.backend != _amm_backend.requested_backend:
        # Dispatch bound at import time; a programmatic main(argv) call
        # cannot switch it after the fact.
        parser.error(
            "--backend only takes effect on the command line (backend "
            f"dispatch already bound to {_amm_backend.requested_backend!r})"
        )
    mode = "quick" if args.quick else "gate" if args.gate else "full"

    names = args.scenario or list(SCENARIOS)
    if args.profile:
        profile(names)
        return 0
    results = run(names, mode)
    shard_scaling = (
        measure_shard_scaling(mode) if args.scenario is None else None
    )
    serving_latency = (
        measure_serving_latency(mode) if args.scenario is None else None
    )
    backend_speedup = (
        measure_backend_speedup(results, mode) if args.scenario is None else None
    )
    phase_profile = (
        measure_phase_profile(mode) if args.scenario is None else None
    )

    speedups = {}
    for name, result in results.items():
        baseline = SEED_BASELINE_OPS_PER_SEC.get(name)
        if baseline:
            speedups[name] = round(result["ops_per_sec"] / baseline, 2)

    report = {
        "schema": 1,
        "suite": "amm_engine",
        "quick": args.quick,
        "mode": mode,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "backend": {
            "requested": _amm_backend.requested_backend,
            "active": _amm_backend.active_backend(),
            "fell_back": _amm_backend.backend_fell_back(),
        },
        "scenarios": results,
        "seed_baseline_ops_per_sec": SEED_BASELINE_OPS_PER_SEC,
        "speedup_vs_seed": speedups,
    }
    if shard_scaling is not None:
        report["shard_scaling"] = shard_scaling
    if serving_latency is not None:
        report["serving_latency"] = serving_latency
    if backend_speedup is not None:
        report["backend_speedup"] = backend_speedup
    if phase_profile is not None:
        report["phase_profile"] = phase_profile
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}", file=sys.stderr)
    if args.store is not None:
        write_store_records(args.store, results, mode)
    if args.trace is not None:
        export_trace(args.trace)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
