"""Process-parallel scenario execution.

Grid points are independent (each builds its own system from its own
seed), so a scenario — or a whole batch of scenarios — fans out across
worker processes with ``jobs > 1``.  Three properties make parallel runs
*bit-identical* to serial ones:

* points are mapped in grid order (``Pool.map`` preserves input order),
  and rows are merged per spec before finalisation;
* point functions receive everything through their ``params`` dict and
  build their own deployments, which number their own transactions — no
  worker-local state survives between points, and a point's rows do not
  depend on what ran before it in the process;
* derived per-point seeds come from
  :class:`~repro.simulation.rng.DeterministicRng` substreams (hash-based,
  no global RNG), so they do not depend on which worker runs the point.

Workers are forked where available (cheap: the parent has already paid
the import cost); platforms without ``fork`` fall back to the default
start method.

With a ``store`` (an :class:`~repro.results.store.ArtifactStore` or a
path), every completed point is persisted as a content-addressed
artifact, and ``resume=True`` skips points whose key already has one —
the cached result round-tripped strict JSON at save time, so a resumed
run is bit-identical to a fresh one.  Artifacts are written by the
parent after the map (workers stay write-free), so a crashed sweep
keeps everything that finished.
"""

from __future__ import annotations

import multiprocessing
import time
import traceback
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.results.fingerprint import fingerprint, point_key_material
from repro.results.store import ArtifactStore, NotSerializable, PointArtifact
from repro.scenarios.result import ExperimentResult
from repro.scenarios.scaling import env_scale_boost
from repro.scenarios.spec import ScenarioSpec
from repro.simulation.rng import DeterministicRng
from repro.telemetry import trace


class ScenarioError(RuntimeError):
    """A scenario point raised; carries the worker's traceback text."""

    def __init__(self, scenario: str, message: str, details: str = "") -> None:
        super().__init__(f"scenario {scenario!r} failed: {message}")
        self.scenario = scenario
        self.message = message
        self.details = details


def point_substream_seed(base_seed: int | str, scenario: str, index: int) -> int:
    """Deterministic per-point seed, independent of worker and job count."""
    return DeterministicRng(f"{base_seed}/{scenario}/point{index}").randbits(63)


def _invoke(task: tuple) -> tuple:
    """Run one point; never raise (errors must survive the pickle trip).

    Success outcomes carry the point's wall clock so the artifact store
    can record how expensive each grid point was to (re)compute, plus —
    with tracing on — the point's drained trace spans as a 4th element
    (``None`` when tracing is off), so parallel workers ship their
    events back over the pickle trip like everything else.
    """
    fn, params = task
    # Points get fresh-trace semantics: the caller's buffered events (or
    # a forked worker's inherited copy of them) are set aside so the
    # drain below returns exactly this point's spans, then restored for
    # serial callers.
    inherited = trace.drain() if trace.enabled() else None
    try:
        start = time.perf_counter()
        result = fn(params)
        wall = time.perf_counter() - start
        if inherited is None:
            return ("ok", result, wall)
        spans = trace.drain()
        trace.ingest(inherited)
        return ("ok", result, wall, spans)
    except Exception as exc:  # noqa: BLE001 — reported per-scenario by the caller
        if inherited is not None:
            trace.discard()
            trace.ingest(inherited)
        # Errors flagged ``concise`` (e.g. WorkerLostError: a shard
        # worker died past its retry budget) are operational outcomes,
        # not programming bugs — one clean line, no traceback.
        details = "" if getattr(exc, "concise", False) else traceback.format_exc()
        return ("err", f"{type(exc).__name__}: {exc}", details)


def _pool_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


class ScenarioRunner:
    """Executes scenario specs, serially or across worker processes."""

    def __init__(
        self,
        jobs: int = 1,
        scale: int | None = None,
        base_seed: int | str = 0,
        store: ArtifactStore | str | Path | None = None,
        resume: bool = False,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if resume and store is None:
            raise ValueError("resume=True requires a store to resume from")
        self.jobs = jobs
        self.scale = scale
        self.base_seed = base_seed
        self.store = (
            ArtifactStore(store) if isinstance(store, (str, Path)) else store
        )
        self.resume = resume
        #: Per-point metadata of the most recent run()/run_many() call:
        #: dicts with scenario/index/key/wall_clock_s/cached/stored.
        self.point_records: list[dict] = []

    # -- task construction ---------------------------------------------------

    def _point_params(
        self, spec: ScenarioSpec, index: int, params: Mapping[str, Any]
    ) -> dict:
        enriched = dict(params)
        if spec.accepts_scale and self.scale is not None:
            enriched["scale"] = self.scale
        if spec.derive_seeds:
            enriched.setdefault(
                "seed", point_substream_seed(self.base_seed, spec.name, index)
            )
        return enriched

    def _tasks(self, spec: ScenarioSpec) -> list[tuple]:
        return [
            (spec.point, self._point_params(spec, i, params))
            for i, params in enumerate(spec.grid)
        ]

    def _point_material(
        self, spec: ScenarioSpec, params: Mapping[str, Any]
    ) -> dict:
        """Key material for one enriched grid point (its fingerprint is the
        artifact key — computed once, stored verbatim in the artifact)."""
        return point_key_material(
            spec.name,
            params,
            point_fn=spec.point,
            scale=self.scale,
            base_seed=self.base_seed,
            env_scale_boost=env_scale_boost(),
            headers=spec.headers,
        )

    # -- execution -----------------------------------------------------------

    def _map(self, tasks: Sequence[tuple]) -> list[tuple]:
        """Map ``_invoke`` over tasks, in order, optionally in parallel."""
        if self.jobs <= 1 or len(tasks) <= 1:
            return [_invoke(task) for task in tasks]
        workers = min(self.jobs, len(tasks))
        with _pool_context().Pool(processes=workers) as pool:
            # chunksize=1: points vary hugely in cost; let workers steal.
            return pool.map(_invoke, tasks, chunksize=1)

    @staticmethod
    def _collect(spec: ScenarioSpec, outcomes: Sequence[tuple]) -> ExperimentResult:
        results = []
        for outcome in outcomes:
            if outcome[0] == "err":
                raise ScenarioError(spec.name, outcome[1], outcome[2])
            results.append(outcome[1])
        return spec.finalize_result(results)

    def run(self, spec: ScenarioSpec) -> ExperimentResult:
        """Run one scenario; raises :class:`ScenarioError` on point failure."""
        outcome = self.run_many([spec])[0]
        if isinstance(outcome, ScenarioError):
            raise outcome
        return outcome

    # -- artifact persistence ------------------------------------------------

    def _load_cached(self, key: str | None) -> tuple | None:
        """A cached outcome for ``key`` under ``resume``, or ``None``."""
        if not (self.resume and self.store is not None and key):
            return None
        artifact = self.store.load_point(key)
        if artifact is None:
            return None
        # No spans element: a cached point re-emits nothing (its spans
        # belong to the run that computed it).
        return ("ok", artifact.result, artifact.wall_clock_s)

    def _save_point(
        self, spec: ScenarioSpec, index: int, key: str, material: dict,
        params: Mapping[str, Any], outcome: tuple,
    ) -> bool:
        """Persist a computed point; a non-serialisable result is a no-op
        (never cached, so resume recomputes it — correct, just slower)."""
        assert self.store is not None
        artifact = PointArtifact(
            key=key,
            scenario=spec.name,
            point_index=index,
            params=dict(params),
            result=outcome[1],
            key_material=material,
            wall_clock_s=round(outcome[2], 6),
        )
        try:
            self.store.save_point(artifact)
        except NotSerializable:
            return False
        return True

    def run_many(
        self, specs: Sequence[ScenarioSpec]
    ) -> list[ExperimentResult | ScenarioError]:
        """Run a batch through one shared worker pool.

        Points of *all* scenarios are interleaved in one task list, so a
        wide pool stays busy even while a one-point scenario runs.  The
        returned list is parallel to ``specs``; a scenario whose point
        raised yields a :class:`ScenarioError` entry instead of aborting
        the whole batch.

        With a store, completed points are persisted as artifacts as soon
        as the map returns — even when a sibling point of the same
        scenario failed — so interrupted sweeps keep their finished work
        and ``resume`` restarts only what is missing.
        """
        all_tasks: list[tuple] = []
        slices: list[tuple[int, int]] = []
        task_meta: list[tuple[ScenarioSpec, int, str | None, dict | None]] = []
        for spec in specs:
            tasks = self._tasks(spec)
            slices.append((len(all_tasks), len(all_tasks) + len(tasks)))
            all_tasks.extend(tasks)
            for index, (_, params) in enumerate(tasks):
                material = (
                    self._point_material(spec, params) if self.store else None
                )
                key = fingerprint(material) if material is not None else None
                task_meta.append((spec, index, key, material))

        outcomes: list[tuple | None] = [None] * len(all_tasks)
        pending: list[int] = []
        for i, (_, _, key, _) in enumerate(task_meta):
            cached = self._load_cached(key)
            if cached is not None:
                outcomes[i] = cached
            else:
                pending.append(i)
        for i, outcome in zip(pending, self._map([all_tasks[i] for i in pending])):
            outcomes[i] = outcome

        # Merge the points' trace spans in task order (the same order a
        # serial run would have emitted them), tagging each point as its
        # own trace process so Perfetto groups lanes per grid point.
        if trace.enabled():
            for i, (spec, index, _, _) in enumerate(task_meta):
                outcome = outcomes[i]
                if outcome is None or outcome[0] != "ok" or len(outcome) < 4:
                    continue
                spans = outcome[3]
                if not spans:
                    continue
                proc = f"{spec.name}[{index}]"
                for event in spans:
                    event["proc"] = proc
                trace.ingest(spans)

        pending_set = set(pending)
        self.point_records = []
        for i, (spec, index, key, material) in enumerate(task_meta):
            outcome = outcomes[i]
            cached = i not in pending_set
            stored = False
            if (
                self.store is not None
                and key
                and material is not None
                and not cached
                and outcome is not None
                and outcome[0] == "ok"
            ):
                stored = self._save_point(
                    spec, index, key, material, all_tasks[i][1], outcome
                )
            self.point_records.append(
                {
                    "scenario": spec.name,
                    "index": index,
                    "key": key,
                    "ok": outcome is not None and outcome[0] == "ok",
                    "wall_clock_s": (
                        round(outcome[2], 6)
                        if outcome is not None and outcome[0] == "ok"
                        else None
                    ),
                    "cached": cached,
                    "stored": stored,
                }
            )

        collected: list[ExperimentResult | ScenarioError] = []
        for spec, (start, end) in zip(specs, slices):
            try:
                collected.append(self._collect(spec, outcomes[start:end]))
            except ScenarioError as error:
                collected.append(error)
        return collected
