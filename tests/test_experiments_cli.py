"""Tests for the ``python -m repro.experiments`` CLI."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro.scenarios as scenarios
from repro.experiments.__main__ import _expand_names, main
from repro.scenarios.spec import ScenarioSpec

REPO_SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(autouse=True)
def _isolated_store(tmp_path, monkeypatch):
    """Keep the default ``.repro-results/`` store out of the repo tree."""
    monkeypatch.chdir(tmp_path)


def test_all_paper_artifacts_have_runners():
    expected = {f"table{i}" for i in range(2, 13)} | {"figure5"}
    assert set(scenarios.names("paper")) == expected


def test_list_returns_zero(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "table5" in out
    assert "multipool" in out  # extra scenarios are listed too


def test_unknown_experiment_rejected(capsys):
    assert main(["table99"]) == 2
    err = capsys.readouterr().err
    assert "unknown" in err


def test_run_single_experiment(capsys):
    assert main(["table4"]) == 0
    out = capsys.readouterr().out
    assert "Payout entry" in out


def test_repeated_names_deduped(capsys):
    """``table4 table4`` must run (and print) the experiment once."""
    assert main(["table4", "table4", "table12", "table4"]) == 0
    out = capsys.readouterr().out
    assert out.count("Table IV:") == 1
    assert out.count("Table XII:") == 1


def test_all_group_dedupes_against_explicit_names():
    names = _expand_names(["table5", "all"])
    assert names.count("table5") == 1
    assert set(names) >= set(scenarios.names("paper"))


def test_failing_scenario_exits_nonzero_without_bare_traceback(capsys):
    def bad_point(params):
        raise RuntimeError("exploded mid-run")

    spec = ScenarioSpec(
        name="cli_explode_test", experiment_id="X", title="t", headers=("a",),
        grid=({},), point=bad_point, group="extra",
    )
    scenarios.register(spec)
    try:
        # The failure is reported on stderr, the healthy experiment still
        # renders, and the exit code is non-zero.
        assert main(["cli_explode_test", "table4"]) == 1
        captured = capsys.readouterr()
        assert "cli_explode_test" in captured.err
        assert "exploded mid-run" in captured.err
        assert "Table IV:" in captured.out
    finally:
        scenarios.unregister("cli_explode_test")


def test_bad_jobs_rejected(capsys):
    assert main(["table4", "--jobs", "0"]) == 2


def test_baseline_bad_jobs_rejected_without_traceback():
    proc = subprocess.run(
        [sys.executable, "-m", "repro.experiments", "baseline", "check", "table4",
         "--jobs", "0"],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(REPO_SRC)},
    )
    assert proc.returncode == 2
    assert "--jobs must be >= 1" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_jobs_flag_accepted(capsys):
    assert main(["table12", "--jobs", "2"]) == 0
    assert "committee" in capsys.readouterr().out


def test_module_invocation(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "repro.experiments", "table12"],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(REPO_SRC)},
    )
    assert proc.returncode == 0
    assert "committee" in proc.stdout
    # The default artifact store lands next to the invocation.
    assert (tmp_path / ".repro-results" / "runs").is_dir()


def test_trace_flag_exports_chrome_trace(tmp_path, capsys, monkeypatch):
    """--trace writes a validating Chrome trace and leaves tracing off."""
    import json

    from repro.telemetry import export, trace

    monkeypatch.setenv("REPRO_FAST", "1")
    out = tmp_path / "nested" / "trace.json"
    assert main(["cross_shard_ratio", "--trace", str(out), "--no-store"]) == 0
    captured = capsys.readouterr()
    assert "perfetto" in captured.out.lower()
    doc = json.loads(out.read_text())
    assert export.validate_chrome_trace(doc) == []
    names = {event["name"] for event in doc["traceEvents"]}
    assert "epoch.run" in names
    assert any(name.startswith("phase.") for name in names)
    # The flag is per-invocation: tracing is torn down afterwards.
    assert not trace.enabled()


def test_trace_subcommand_forwards(tmp_path, capsys, monkeypatch):
    """`trace NAMES` == `NAMES --trace OUT --no-store`."""
    import json

    monkeypatch.setenv("REPRO_FAST", "1")
    out = tmp_path / "trace.json"
    assert main(["trace", "cross_shard_ratio", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["traceEvents"]
    # The shorthand never touches the artifact store.
    assert not Path(".repro-results").exists()
