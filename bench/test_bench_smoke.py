"""Smoke tests of the benchmark harness (tier-1, a few seconds).

One ``run.py --smoke --trace`` pass over every workload checks that the
harness emits exactly the workloads and metrics ``BENCHMARK.json``
declares; the rest are unit tests of the span recorder.
"""

from __future__ import annotations

import asyncio
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import compare  # noqa: E402
import layers  # noqa: E402
import spans  # noqa: E402
from run import spread  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def result_set(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("bench")
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--trace", "--repeats", "1",
         "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return out


def test_smoke_emits_exactly_the_declared_names(result_set):
    results = json.loads((result_set / "results.json").read_text())
    assert list(results["workloads"]) == [w["name"] for w in SPEC["workloads"]]
    for kind in ("end_to_end", "per_layer"):
        declared = {m["name"]: m["unit"] for m in SPEC[kind]}
        assert all(NAME.fullmatch(name) for name in declared)
        for workload, entry in results["workloads"].items():
            assert set(entry[kind]) == set(declared), (workload, kind)
            for name, metric in entry[kind].items():
                value = metric["median"] if kind == "end_to_end" else metric["value"]
                assert math.isfinite(value), (workload, name)
                assert metric["unit"] == declared[name]
                if kind == "end_to_end":
                    assert value > 0, (workload, name)
    for key in ("nproc", "python", "backend", "seed", "harness_git_sha"):
        assert key in results["header"]
    # What its clients saw is bounded for the one workload that has clients.
    assert set(compare.CLIENT_BOUNDS) <= {m["name"] for m in SPEC["per_layer"]}
    for workload, entry in results["workloads"].items():
        expected = set(compare.CLIENT_BOUNDS) if workload == "serving_fleet" else set()
        assert set(entry["client"]) == expected
        assert all(row["median"] > 0 for row in entry["client"].values())


def test_one_run_prints_the_contract_line_and_a_valid_trace(result_set):
    from repro.telemetry.export import validate_chrome_trace

    for workload in (w["name"] for w in SPEC["workloads"]):
        record = json.loads((result_set / "runs" / f"{workload}.0.json").read_text())
        assert set(record["result"]) == {"correct", "attempted", "failed", "metrics"}
        assert record["result"]["correct"] is True
        assert record["result"]["attempted"] >= 1 and record["result"]["failed"] == 0
        for key in ("loadavg_1m", "calibration_ms", "sizes", "checkpoint"):
            assert key in record
        traced = json.loads((result_set / "runs" / f"{workload}.traced.json").read_text())
        assert traced["wrap_targets_missing"] == []
        doc = json.loads((result_set / f"{workload}.trace.json").read_text())
        assert validate_chrome_trace(doc) == []
        assert any(event["ph"] == "X" for event in doc["traceEvents"])


def test_a_result_set_compares_clean_against_itself(result_set):
    done = subprocess.run(
        [sys.executable, str(HERE / "compare.py"), str(result_set), str(result_set)],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stdout
    assert "regressed or changed rows: 0" in done.stdout


def test_verdicts_against_a_bound():
    def runs(*values):
        return {"values": list(values), **spread(list(values))}

    base = runs(100.0, 101.0, 102.0, 103.0)

    def verdict(b, better="lower"):
        return compare.verdict(base, b, better, 0.10)[0]

    assert verdict(runs(101.5, 102.5, 103.5, 104.5)) == "ok"
    assert verdict(runs(104.0, 105.0, 106.0, 107.0)) == "worse"
    assert verdict(runs(120.0, 121.0, 122.0, 123.0)) == "regressed"
    assert verdict(runs(80.0, 81.0, 82.0, 83.0)) == "improved"
    # Median 20% worse, but B's runs are all over the place and overlap A's.
    assert verdict(runs(95.0, 119.0, 125.0, 160.0)) == "unresolved"
    assert verdict(runs(80.0, 81.0, 82.0, 83.0), better="higher") == "regressed"


# -- the span recorder ---------------------------------------------------------


@pytest.fixture
def clock(monkeypatch):
    """A clock that advances only when the test says so."""
    now = [0.0]
    monkeypatch.setattr(spans, "perf_counter", lambda: now[0])

    def advance(seconds: float) -> None:
        now[0] += seconds

    return advance


class _Layered:
    def outer(self, clock):
        clock(1.0)
        self.inner(clock, 2.0)
        clock(0.5)
        self.inner(clock, 3.0)
        clock(0.25)

    def inner(self, clock, seconds):
        clock(seconds)
        self.leaf(clock)

    @staticmethod
    def leaf(clock):
        clock(0.125)

    async def window(self, clock):
        clock(1.0)
        await asyncio.sleep(0)
        self.leaf(clock)
        await asyncio.sleep(0)
        clock(1.0)


def _wrapped(recorder: spans.Recorder) -> None:
    for attr in ("outer", "inner", "leaf", "window"):
        recorder.wrap(_Layered, attr, attr, "test")


def test_self_time_with_nested_and_sibling_spans(clock):
    recorder = spans.Recorder()
    _wrapped(recorder)
    try:
        _Layered().outer(clock)
    finally:
        recorder.restore()
    totals = recorder.by_name()
    assert totals["outer"].calls == 1 and totals["inner"].calls == 2
    assert totals["outer"].total_s == pytest.approx(7.0)
    # Two sibling children of 2.125 s and 3.125 s leave 1.75 s of its own.
    assert totals["outer"].self_s == pytest.approx(1.75)
    assert totals["inner"].self_s == pytest.approx(5.0)
    assert totals["leaf"].self_s == pytest.approx(0.25)
    # Self times partition the root span.
    assert sum(t.self_s for t in totals.values()) == pytest.approx(7.0)
    parents = [span["parent"] for span in recorder.spans()]
    assert parents == [-1, 0, 1, 0, 3]


def test_async_spans_nest_their_synchronous_children(clock):
    recorder = spans.Recorder()
    _wrapped(recorder)
    try:
        recorder.set_unit(7)
        asyncio.run(_Layered().window(clock))
    finally:
        recorder.restore()
    window, leaf = list(recorder.spans())
    assert (window["name"], leaf["name"], leaf["parent"]) == ("window", "leaf", 0)
    assert window["end"] - window["start"] == pytest.approx(2.125)
    assert recorder.by_name()["window"].self_s == pytest.approx(2.0)
    assert window["unit"] == leaf["unit"] == 7


def test_tally_counts_and_missing_targets():
    recorder = spans.Recorder()
    recorder.wrap(
        _Layered, "leaf", "leaf", "test",
        tally=lambda counts, args, result: counts.update(calls=counts.get("calls", 0) + 1),
    )
    recorder.wrap(_Layered, "no_such_method", "gone", "test")
    try:
        _Layered.leaf(lambda seconds: None)
        _Layered.leaf(lambda seconds: None)
    finally:
        recorder.restore()
    assert recorder.counts == {"calls": 2}
    assert recorder.missing == ["_Layered.no_such_method"]


def test_every_wrapped_attribute_is_restored():
    import inspect

    targets = layers.TARGETS + layers.coordinator_targets(0)

    def current():
        return [
            inspect.getattr_static(layers.owner_of(module_name, owner_name), attr)
            for module_name, owner_name, attr, *_ in targets
        ]

    before = current()
    recorder = spans.Recorder()
    layers.install(recorder, targets)
    assert recorder.missing == []
    assert len(layers.wrapped_targets()) == len(targets)
    recorder.restore()
    assert layers.wrapped_targets() == []
    assert all(a is b for a, b in zip(before, current()))
