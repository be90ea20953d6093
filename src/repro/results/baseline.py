"""Golden-baseline fixtures: export paper tables, check them later.

``repro.experiments baseline export`` runs scenarios under the
``REPRO_FAST`` volume boost (forced, so fixtures are small and a check
always runs the same grids regardless of the caller's environment) and
writes one canonical JSON file per scenario under ``tests/golden/``.
``baseline check`` re-runs those scenarios and compares the fresh tables
against the committed fixtures through the same engine as
``repro.experiments compare`` — the nightly CI job is exactly this plus
``--jobs 4``.

Scenario output is deterministic (hash-derived substream seeds, pure
integer/float arithmetic, per-deployment transaction ids), so the default
tolerance is *exact*; ``rtol`` exists for callers who deliberately relax
the gate.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from repro.results.compare import Drift, compare_tables
from repro.results.fingerprint import code_version
from repro.results.store import ArtifactStore

#: Where golden fixtures live relative to the repo root.
DEFAULT_GOLDEN_DIR = Path("tests/golden")

GOLDEN_SCHEMA = 1


@dataclass
class BaselineOutcome:
    """What export/check did, per scenario."""

    written: list[Path]
    drifts: list[Drift]
    notes: list[str]

    @property
    def ok(self) -> bool:
        return not self.drifts


class _ForcedFastEnv:
    """Force ``REPRO_FAST=1`` for the duration of a run, then restore.

    Fixtures must not depend on whether the exporting shell had the
    variable set; forked workers inherit the forced value.
    """

    def __enter__(self) -> None:
        self._prior = os.environ.get("REPRO_FAST")
        os.environ["REPRO_FAST"] = "1"

    def __exit__(self, *exc_info) -> None:
        if self._prior is None:
            os.environ.pop("REPRO_FAST", None)
        else:
            os.environ["REPRO_FAST"] = self._prior


def _run_scenarios(names: Sequence[str], jobs: int, store: ArtifactStore | None):
    """Run the named scenarios under forced REPRO_FAST; returns results."""
    from repro import scenarios
    from repro.scenarios.runner import ScenarioError, ScenarioRunner

    specs = [scenarios.get(name) for name in names]
    with _ForcedFastEnv():
        runner = ScenarioRunner(jobs=jobs, store=store)
        outcomes = runner.run_many(specs)
    failures = [o for o in outcomes if isinstance(o, ScenarioError)]
    if failures:
        raise failures[0]
    return specs, outcomes


def default_names() -> list[str]:
    from repro import scenarios

    return scenarios.names("paper")


def golden_path(golden_dir: Path, name: str) -> Path:
    return Path(golden_dir) / f"{name}.json"


def export_baselines(
    names: Sequence[str] | None = None,
    golden_dir: str | Path = DEFAULT_GOLDEN_DIR,
    jobs: int = 1,
    store: ArtifactStore | None = None,
) -> BaselineOutcome:
    """Run scenarios under REPRO_FAST and write golden fixtures."""
    names = list(names) if names else default_names()
    golden_dir = Path(golden_dir)
    golden_dir.mkdir(parents=True, exist_ok=True)
    specs, outcomes = _run_scenarios(names, jobs, store)
    written = []
    for spec, result in zip(specs, outcomes):
        doc = {
            "schema": GOLDEN_SCHEMA,
            "kind": "golden",
            "scenario": spec.name,
            "experiment_id": result.experiment_id,
            "title": result.title,
            "headers": list(result.headers),
            "rows": [list(row) for row in result.rows],
            "notes": result.notes,
            "environment": {
                "repro_fast": True,
                "base_seed": "0",
                "scale": None,
                "code_version": code_version(),
            },
        }
        path = golden_path(golden_dir, spec.name)
        path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
        written.append(path)
    return BaselineOutcome(written=written, drifts=[], notes=[])


def check_baselines(
    names: Sequence[str] | None = None,
    golden_dir: str | Path = DEFAULT_GOLDEN_DIR,
    jobs: int = 1,
    rtol: float = 0.0,
    atol: float = 0.0,
    store: ArtifactStore | None = None,
) -> BaselineOutcome:
    """Re-run golden scenarios and diff against the committed fixtures."""
    golden_dir = Path(golden_dir)
    fixtures: dict[str, dict] = {}
    for path in sorted(golden_dir.glob("*.json")):
        doc = json.loads(path.read_text())
        if doc.get("kind") == "golden":
            fixtures[doc["scenario"]] = doc
    if names:
        missing = [n for n in names if n not in fixtures]
        if missing:
            raise FileNotFoundError(
                f"no golden fixture for: {', '.join(missing)} (run baseline export)"
            )
        fixtures = {n: fixtures[n] for n in names}
    if not fixtures:
        raise FileNotFoundError(f"no golden fixtures under {golden_dir}")
    from repro import scenarios

    stale = [n for n in fixtures if not scenarios.is_registered(n)]
    if stale:
        raise FileNotFoundError(
            f"golden fixture(s) for unregistered scenario(s): {', '.join(stale)} "
            "— stale files in the golden dir? delete them or re-export"
        )

    specs, outcomes = _run_scenarios(list(fixtures), jobs, store)
    baseline_tables = {
        name: {"headers": doc["headers"], "rows": doc["rows"]}
        for name, doc in fixtures.items()
    }
    candidate_tables = {
        spec.name: {"headers": list(result.headers), "rows": result.rows}
        for spec, result in zip(specs, outcomes)
    }
    drifts, notes = compare_tables(
        baseline_tables, candidate_tables, rtol=rtol, atol=atol
    )
    return BaselineOutcome(written=[], drifts=drifts, notes=notes)
