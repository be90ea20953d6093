#!/usr/bin/env python3
"""The repo's benchmark: one command, every metric by name with its unit.

Two ways in:

``python bench/run.py --workload W --seed N --seconds S --trace 0|1``
    One run of one workload in this process (what the driver behind
    ``BENCHMARK.json`` calls).  ``--trace 0`` prints the end-to-end
    metrics, measured with no span wrapper installed and the program's
    tracer off; ``--trace 1`` prints the per-layer metrics.  The last
    line of standard output is the result as one JSON object.  A run
    whose outputs fail a check prints the failed checks and exits 1
    without a result.

``python bench/run.py [--repeats R] [--trace] [--smoke] [--out DIR]``
    Every workload, ``R`` times, each run in a fresh process, workloads
    interleaved (A B C D E, A B C D E, ...) so drift spreads evenly;
    prints the table and writes ``DIR/results.json`` for ``compare.py``.

See ``bench/README.md`` for what each workload and metric is for.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()  # before any import of the program

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median, quantiles  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]
#: Warm-up deployments per end-to-end run; ``setup_s`` is their median.
SETUP_CYCLES = 3


def header(args, workload) -> dict:
    from repro.amm.backend import active_backend

    return {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "sizes": workload.sizes(),
        "nproc": os.cpu_count(),
        "loadavg_1m": os.getloadavg()[0],
        "python": platform.python_version(),
        "backend": active_backend(),
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child
    (the sharded scheduler's workers); Linux reports KiB."""
    return (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    ) / 1024


def assert_unobserved() -> None:
    """End-to-end numbers are taken with nothing watching."""
    import layers
    from repro.telemetry import trace

    if trace.enabled():
        raise SystemExit("repro.telemetry.trace is enabled (REPRO_TRACE set?)")
    wrapped = layers.wrapped_targets()
    if wrapped:
        raise SystemExit(f"span wrappers still installed: {wrapped}")


def run_one(args) -> int:
    import layers
    import workloads as wl

    imported_s = time.perf_counter() - _PROCESS_START
    workload = next(w for w in wl.all_workloads() if w.name == args.workload)
    if args.smoke:
        workload.shrink()
    record = header(args, workload)
    assert_unobserved()

    # Warm-up: whole throwaway deployments, which also time set-up and
    # tell the time box how long an epoch takes on this machine today.
    cycles = 1 if args.trace or args.smoke else SETUP_CYCLES
    warm, cycle_s = [], []
    for _ in range(cycles):
        started = time.perf_counter()
        warm.append(workload.run(args.seed, workload.warm_epochs))
        cycle_s.append(time.perf_counter() - started)
    estimate = wl.epoch_estimate(warm[-1])
    problems = [p for outcome in warm for p in outcome.problems]
    # A fixed loop, timed outside every timed section: what this machine
    # made of it today, for whoever compares numbers across sessions.
    record["calibration_ms"] = 1e3 * median(wl.reference_loop() for _ in range(9))

    if args.trace:
        metrics, traced_problems, recorder, outcome = layers.measure_layers(
            workload, args.seed, args.seconds, estimate,
            [m["name"] for m in SPEC["per_layer"]],
            None if args.smoke else layers.MAX_TRACE_OVERHEAD,
        )
        problems += traced_problems
        declared = SPEC["per_layer"]
        record["wrap_targets_missing"] = recorder.missing
        record["spans"] = len(recorder)
        if args.trace_file:
            problems += write_trace(recorder, workload, Path(args.trace_file))
    else:
        epochs = layers.epochs_for(args.seconds, estimate, workload)
        assert_unobserved()
        outcome = workload.run(args.seed, epochs)
        problems += outcome.problems
        digests = {o.checkpoint for o in warm} | {outcome.checkpoint}
        if len(digests) != 1:
            problems.append(f"same-seed deployments diverged at the checkpoint: {digests}")
        metrics = {
            "setup_s": imported_s + median(cycle_s),
            "tx_per_s": outcome.txs / outcome.wall_s,
            "epoch_ms_p50": 1e3 * median(outcome.epoch_s),
            "accept_share": outcome.accepted / outcome.attempted,
            "peak_rss_mb": peak_rss_mb(),
        }
        declared = SPEC["end_to_end"]
        record.update(
            epochs=epochs, wall_s=outcome.wall_s, txs=outcome.txs,
            epoch_ms=[1e3 * s for s in outcome.epoch_s],
            client=layers.client_metrics(outcome),
        )

    if problems:
        print(f"{workload.name}: output checks failed:", file=sys.stderr)
        for problem in problems:
            print(f"  - {problem}", file=sys.stderr)
        return 1
    if set(metrics) != {m["name"] for m in declared}:
        raise SystemExit(
            "metrics measured != metrics declared in BENCHMARK.json: "
            f"{sorted(set(metrics) ^ {m['name'] for m in declared})}"
        )
    result = {
        "correct": True,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared
        },
    }
    record.update(checkpoint=outcome.checkpoint, result=result)
    if args.record:
        Path(args.record).write_text(json.dumps(record, indent=1))
    for name, entry in result["metrics"].items():
        print(f"{workload.name:16s} {name:44s} {entry['value']:>16.6g} {entry['unit']}")
    print(json.dumps(result))
    return 0


def write_trace(recorder, workload, path: Path) -> list[str]:
    """Write the spans up to the checkpoint epoch as Chrome trace JSON."""
    from repro.telemetry.export import validate_chrome_trace
    from spans import chrome_trace

    doc = chrome_trace(recorder, max_unit=workload.checkpoint)
    path.write_text(json.dumps(doc))
    return [f"trace export: {error}" for error in validate_chrome_trace(doc)[:5]]


# -- every workload, in fresh processes ----------------------------------------


def git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def spread(values: list[float]) -> dict:
    """Median and quartiles as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, _, q3 = quantiles(values, n=4)
    return {"median": median(values), "q1": q1, "q3": q3}


def run_all(args) -> int:
    out = Path(args.out)
    (out / "runs").mkdir(parents=True, exist_ok=True)
    passes = [(0, rep) for rep in range(args.repeats)] + ([(1, 0)] if args.trace else [])
    records: dict[str, list[dict]] = {name: [] for name in WORKLOAD_NAMES}
    traced: dict[str, dict] = {}
    for trace, rep in passes:
        for name in WORKLOAD_NAMES:
            path = out / "runs" / f"{name}.{'traced' if trace else rep}.json"
            command = [
                sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(trace), "--record", str(path),
                "--trace-file", str(out / f"{name}.trace.json"),
            ] + (["--smoke"] if args.smoke else [])
            done = subprocess.run(command, stdout=subprocess.DEVNULL)
            if done.returncode:
                print(f"{name}: run failed (exit {done.returncode}); no result set written")
                return 1
            record = json.loads(path.read_text())
            if trace:
                traced[name] = record
            else:
                records[name].append(record)

    results = {
        "header": {
            **{k: v for k, v in records[WORKLOAD_NAMES[0]][0].items()
               if k in ("seed", "seconds", "smoke", "nproc", "python", "backend")},
            "repeats": args.repeats,
            "harness_git_sha": git_sha(),
        },
        "workloads": {},
    }
    status = 0
    for name in WORKLOAD_NAMES:
        runs = records[name]
        digests = {r["checkpoint"] for r in runs} | (
            {traced[name]["checkpoint"]} if name in traced else set()
        )
        if len(digests) != 1:
            print(f"{name}: same-seed runs diverged at the checkpoint: {digests}")
            status = 1
        entry = results["workloads"][name] = {
            "sizes": runs[0]["sizes"],
            "checkpoint": runs[0]["checkpoint"],
            "loadavg_1m": [r["loadavg_1m"] for r in runs],
            "calibration_ms": [r["calibration_ms"] for r in runs],
            "attempted": [r["result"]["attempted"] for r in runs],
            "failed": [r["result"]["failed"] for r in runs],
            "end_to_end": {},
            # What serving clients saw in the same untraced runs; bounded
            # by compare.py, per-layer names in BENCHMARK.json.
            "client": {},
            "per_layer": {},
        }
        repeated = [
            ("end_to_end", m, [r["result"]["metrics"][m["name"]]["value"] for r in runs])
            for m in SPEC["end_to_end"]
        ] + [
            ("client", m, [r["client"][m["name"]] for r in runs])
            for m in SPEC["per_layer"]
            if m["name"] in runs[0]["client"]
        ]
        for kind, metric, values in repeated:
            row = entry[kind][metric["name"]] = {
                "unit": metric["unit"], "values": values, **spread(values)
            }
            print(
                f"{name:16s} {metric['name']:44s} {row['median']:>14.6g} {metric['unit']:6s}"
                f" [q1 {row['q1']:.6g}, q3 {row['q3']:.6g}, n={len(values)}]"
            )
        if name in traced:
            for metric_name, value in traced[name]["result"]["metrics"].items():
                entry["per_layer"][metric_name] = value
                print(f"{name:16s} {metric_name:44s} {value['value']:>14.6g} {value['unit']}")
    (out / "results.json").write_text(json.dumps(results, indent=1))
    print(f"result set: {out / 'results.json'}")
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, help="length of one run's timed section")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the tests")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", default=str(HERE / "out"), help="result-set directory")
    # Internal to run_all: where a child run leaves its record and trace.
    parser.add_argument("--record", help=argparse.SUPPRESS)
    parser.add_argument("--trace-file", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.seconds is None:
        args.seconds = 0.1 if args.smoke else float(SPEC["run_seconds"])
    if args.smoke:
        args.repeats = min(args.repeats, 2)
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
