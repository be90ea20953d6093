"""Command-line entry point: regenerate any paper table/figure.

Usage::

    python -m repro.experiments list
    python -m repro.experiments table5
    python -m repro.experiments figure5 table12 --jobs 4
    python -m repro.experiments all --jobs 8
    python -m repro.experiments extras
    python -m repro.experiments table8 --scale 100   # coarser volume scaling
    python -m repro.experiments table5 --resume      # skip stored points
    python -m repro.experiments compare A B --rtol 0.01
    python -m repro.experiments baseline export
    python -m repro.experiments baseline check --jobs 4
    python -m repro.experiments table5 --trace trace.json
    python -m repro.experiments trace shard_scaling pbft_adversary

``all`` runs the paper set; ``extras`` the additional scenarios.  With
``--jobs N`` independent grid points (sweep entries, comparison legs) fan
out across N worker processes; the rendered tables are bit-identical to a
serial run.  Scenarios that fail are reported on stderr and the process
exits non-zero after finishing the rest.

Every run persists its grid points into a content-addressed artifact
store (``--out DIR``, default ``.repro-results/``; ``--no-store``
disables) and writes a run manifest.  ``--resume`` skips points whose
key already has an artifact — bit-identical to a fresh run.  ``compare``
diffs two result sets (store dirs, run manifests, golden fixtures,
benchmark reports) under per-column tolerances and exits 1 on drift;
``baseline export``/``baseline check`` maintain the golden fixtures
under ``tests/golden/``.  See ``src/repro/results/README.md``.

``--trace OUT.json`` records a structured execution trace of the run
(epoch phases, PBFT rounds, cross-shard transfers, gateway requests)
and exports it as Chrome trace-event JSON — load it in Perfetto
(https://ui.perfetto.dev) or ``chrome://tracing``.  ``trace`` is the
shorthand subcommand: it runs the named scenarios with tracing on and
nothing persisted.  Tracing never changes results: timestamps are
virtual time, and the golden/compare machinery ignores wall-clock
fields.  See ``src/repro/telemetry/README.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro import scenarios
from repro.results import compare as results_compare
from repro.results.store import ArtifactStore
from repro.scenarios.runner import ScenarioError, ScenarioRunner

#: Default artifact-store location, relative to the working directory.
DEFAULT_STORE_DIR = ".repro-results"


def _describe(spec, headline: str) -> None:
    """Two lines per scenario: headline, then description + provider.

    The provider is the registry module whose point function backs the
    scenario — where to look to change or extend it.
    """
    description = spec.description or "(no description)"
    print(f"  {spec.name:<20} {headline}")
    print(f"  {'':<20} {description}  [{spec.point.__module__}]")


def _print_listing() -> None:
    print(__doc__)
    print("paper experiments (the `all` set):")
    for spec in scenarios.specs("paper"):
        _describe(spec, f"{spec.experiment_id}: {spec.title}")
    print("extra scenarios (the `extras` set):")
    for spec in scenarios.specs("extra"):
        _describe(spec, spec.title)
    print("available experiments:", ", ".join(scenarios.names()))


def _expand_names(raw: list[str]) -> list[str]:
    """Expand ``all``/``extras`` groups and drop duplicates, keeping order."""
    expanded: list[str] = []
    for name in raw:
        if name == "all":
            expanded.extend(scenarios.names("paper"))
        elif name == "extras":
            expanded.extend(scenarios.names("extra"))
        else:
            expanded.append(name)
    return list(dict.fromkeys(expanded))


def _parse_column_tolerances(entries: list[str]) -> dict[str, float]:
    """``--col 'tput tx/s=0.05'`` entries -> ``{header: rtol}``."""
    tolerances = {}
    for entry in entries:
        column, sep, value = entry.rpartition("=")
        if not sep:
            raise ValueError(f"--col expects COLUMN=RTOL, got {entry!r}")
        tolerances[column] = float(value)
    return tolerances


def _compare_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments compare",
        description=(
            "Diff two result sets (artifact stores, run manifests, golden "
            "fixtures, or benchmark reports); exits 1 on drift."
        ),
    )
    parser.add_argument("baseline", help="reference result set (path)")
    parser.add_argument("candidate", help="candidate result set (path)")
    parser.add_argument(
        "--rtol", type=float, default=1e-9,
        help="relative tolerance for numeric cells (default: %(default)s)",
    )
    parser.add_argument(
        "--atol", type=float, default=0.0,
        help="absolute tolerance for numeric cells (default: %(default)s)",
    )
    parser.add_argument(
        "--col", action="append", default=[], metavar="COLUMN=RTOL",
        help="per-column relative tolerance override; may repeat",
    )
    parser.add_argument(
        "--ignore-col", action="append", default=[], metavar="COLUMN",
        help="additional column name to skip; may repeat",
    )
    parser.add_argument(
        "--fail-low-only", action="store_true",
        help="numeric cells drift only when the candidate is below the "
        "tolerance band (throughput-gate semantics)",
    )
    args = parser.parse_args(argv)

    try:
        column_rtol = _parse_column_tolerances(args.col)
        baseline = results_compare.load_result_set(args.baseline)
        candidate = results_compare.load_result_set(args.candidate)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    drifts, notes = results_compare.compare_tables(
        baseline,
        candidate,
        rtol=args.rtol,
        atol=args.atol,
        column_rtol=column_rtol,
        ignore_columns=results_compare.DEFAULT_IGNORED_COLUMNS
        | set(args.ignore_col),
        fail_low_only=args.fail_low_only,
    )
    report = results_compare.format_report(drifts, notes)
    print(report, file=sys.stderr if drifts else sys.stdout)
    return 1 if drifts else 0


def _baseline_main(argv: list[str]) -> int:
    from repro.results import baseline as results_baseline

    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments baseline",
        description=(
            "Export or check the golden REPRO_FAST fixtures under tests/golden/."
        ),
    )
    parser.add_argument("action", choices=("export", "check"))
    parser.add_argument(
        "names", nargs="*",
        help="scenario subset (default: every paper scenario for export, "
        "every committed fixture for check)",
    )
    parser.add_argument(
        "--golden-dir", type=Path, default=results_baseline.DEFAULT_GOLDEN_DIR,
        help="fixture directory (default: %(default)s)",
    )
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument(
        "--rtol", type=float, default=0.0,
        help="check tolerance (default: exact — scenario output is "
        "deterministic across machines)",
    )
    parser.add_argument(
        "--out", type=Path, default=None, metavar="DIR",
        help="also persist the recomputed points into an artifact store "
        "(the nightly job uploads it when a check fails)",
    )
    args = parser.parse_args(argv)
    if args.jobs < 1:
        print(f"--jobs must be >= 1, got {args.jobs}", file=sys.stderr)
        return 2
    store = ArtifactStore(args.out) if args.out is not None else None

    unknown = [n for n in args.names if not scenarios.is_registered(n)]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    try:
        if args.action == "export":
            outcome = results_baseline.export_baselines(
                args.names or None, golden_dir=args.golden_dir, jobs=args.jobs,
                store=store,
            )
            for path in outcome.written:
                print(f"wrote {path}")
            return 0
        outcome = results_baseline.check_baselines(
            args.names or None,
            golden_dir=args.golden_dir,
            jobs=args.jobs,
            rtol=args.rtol,
            store=store,
        )
    except (FileNotFoundError, ScenarioError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = results_compare.format_report(outcome.drifts, outcome.notes)
    print(report, file=sys.stderr if outcome.drifts else sys.stdout)
    if outcome.drifts:
        print(
            "golden baselines drifted — if the change is intended, re-run "
            "`python -m repro.experiments baseline export` and commit",
            file=sys.stderr,
        )
    return 1 if outcome.drifts else 0


def _write_manifest(
    store: ArtifactStore,
    runner: ScenarioRunner,
    argv: list[str],
    names: list[str],
    outcomes: list,
) -> None:
    """Persist this invocation's manifest; never fail the run over it.

    A table whose rows do not serialize to JSON (a point returned e.g. a
    Decimal cell) is dropped from the manifest with a warning — the same
    "correct, just not persisted" stance the point-artifact cache takes.
    """
    results = {}
    for name, outcome in zip(names, outcomes):
        if isinstance(outcome, ScenarioError):
            continue
        table = {
            "experiment_id": outcome.experiment_id,
            "title": outcome.title,
            "headers": list(outcome.headers),
            "rows": [list(row) for row in outcome.rows],
            "notes": outcome.notes,
        }
        try:
            json.dumps(table, allow_nan=False)
        except (TypeError, ValueError):
            print(
                f"warning: {name} rows are not strict JSON; "
                "omitting its table from the run manifest",
                file=sys.stderr,
            )
            continue
        results[name] = table
    try:
        store.write_manifest(
            {
                "invocation": argv,
                "scenarios": names,
                "failed": [
                    n
                    for n, o in zip(names, outcomes)
                    if isinstance(o, ScenarioError)
                ],
                "points": runner.point_records,
                "results": results,
            }
        )
    except (OSError, TypeError, ValueError) as exc:
        print(f"warning: could not write run manifest: {exc}", file=sys.stderr)


def _trace_main(argv: list[str]) -> int:
    """``trace NAMES...`` — run scenarios with tracing on, export JSON.

    Shorthand for ``NAMES... --trace OUT --no-store``: a quick way to
    get a Perfetto-loadable picture of a run without touching the
    artifact store.
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments trace",
        description=(
            "Run scenarios with structured tracing enabled and export a "
            "Chrome trace-event JSON file (open in https://ui.perfetto.dev)."
        ),
    )
    parser.add_argument("names", nargs="+", help="scenario names / groups")
    parser.add_argument(
        "--out", type=Path, default=Path("trace.json"), metavar="OUT.json",
        help="trace output file (default: %(default)s)",
    )
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--scale", type=int, default=None)
    args = parser.parse_args(argv)
    forwarded = [*args.names, "--trace", str(args.out), "--no-store",
                 "--jobs", str(args.jobs)]
    if args.scale is not None:
        forwarded += ["--scale", str(args.scale)]
    return main(forwarded)


def _export_trace(out: Path) -> None:
    """Drain the trace buffer into a Chrome trace-event JSON file."""
    from repro.telemetry import export, trace

    events = trace.drain()
    document = export.to_chrome_trace(events)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(document) + "\n")
    print(
        f"trace: {len(events)} event(s) -> {out} "
        "(open in https://ui.perfetto.dev)"
    )


def main(argv: list[str]) -> int:
    if argv and argv[0] == "compare":
        return _compare_main(argv[1:])
    if argv and argv[0] == "baseline":
        return _baseline_main(argv[1:])
    if argv and argv[0] == "trace":
        return _trace_main(argv[1:])

    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables/figures via the scenario registry.",
    )
    parser.add_argument(
        "names",
        nargs="*",
        help="scenario names, the groups `all` / `extras` (see `list`), or "
        "the subcommands `compare` / `baseline`",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for independent grid points (default: 1)",
    )
    parser.add_argument(
        "--scale",
        type=int,
        default=None,
        help="override the volume scale factor for scaled scenarios",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(DEFAULT_STORE_DIR),
        help="artifact store directory (default: %(default)s)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="skip grid points whose key already has a stored artifact",
    )
    parser.add_argument(
        "--no-store",
        action="store_true",
        help="do not persist artifacts or a run manifest (implies no --resume)",
    )
    parser.add_argument(
        "--trace",
        type=Path,
        default=None,
        metavar="OUT.json",
        help="record a structured execution trace and export it as Chrome "
        "trace-event JSON (results are unchanged; see telemetry README)",
    )
    args = parser.parse_args(argv)

    if not args.names or args.names[0] == "list":
        _print_listing()
        return 0
    if args.jobs < 1:
        print(f"--jobs must be >= 1, got {args.jobs}", file=sys.stderr)
        return 2
    if args.resume and args.no_store:
        print("--resume conflicts with --no-store", file=sys.stderr)
        return 2

    names = _expand_names(args.names)
    unknown = [n for n in names if not scenarios.is_registered(n)]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        print("available:", ", ".join(scenarios.names()), file=sys.stderr)
        return 2

    store = None if args.no_store else ArtifactStore(args.out)
    specs = [scenarios.get(name) for name in names]
    runner = ScenarioRunner(
        jobs=args.jobs, scale=args.scale, store=store, resume=args.resume
    )
    if args.trace is not None:
        from repro.telemetry import trace

        trace.enable()
    try:
        outcomes = runner.run_many(specs)
    finally:
        if args.trace is not None:
            _export_trace(args.trace)
            trace.disable()
    if store is not None:
        _write_manifest(store, runner, argv, names, outcomes)
    failures = 0
    for spec, outcome in zip(specs, outcomes):
        if isinstance(outcome, ScenarioError):
            failures += 1
            print(f"error: {outcome}", file=sys.stderr)
            if outcome.details:
                print(outcome.details.rstrip(), file=sys.stderr)
            continue
        print(outcome.render())
        if outcome.notes:
            print(f"notes: {outcome.notes}")
        print()
    if failures:
        print(
            f"{failures} of {len(specs)} experiment(s) failed", file=sys.stderr
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
