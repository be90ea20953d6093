"""Golden-baseline export/check, and the committed fixtures themselves."""

import json
from pathlib import Path

import pytest

import repro.scenarios as scenarios
from repro.experiments.__main__ import main
from repro.results.baseline import check_baselines, export_baselines

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

#: Cheap scenarios used for live export/check round-trips in tier-1; the
#: full grid is the nightly CI job.
FAST = ["table4", "table12"]


def test_export_then_check_roundtrip(tmp_path):
    outcome = export_baselines(FAST, golden_dir=tmp_path)
    assert [p.name for p in outcome.written] == [f"{n}.json" for n in FAST]
    for path in outcome.written:
        doc = json.loads(path.read_text())
        assert doc["kind"] == "golden"
        assert doc["environment"]["repro_fast"] is True
        assert doc["rows"]
    checked = check_baselines(golden_dir=tmp_path, jobs=2)
    assert checked.ok


def test_check_detects_injected_drift(tmp_path):
    export_baselines(FAST, golden_dir=tmp_path)
    path = tmp_path / "table12.json"
    doc = json.loads(path.read_text())
    doc["rows"][0][1] = doc["rows"][0][1] * 1.01  # 1% drift
    path.write_text(json.dumps(doc))
    checked = check_baselines(golden_dir=tmp_path)
    assert not checked.ok
    assert checked.drifts[0].table == "table12"
    # ...and a generous tolerance forgives it.
    assert check_baselines(golden_dir=tmp_path, rtol=0.05).ok


def test_check_rejects_stale_fixture_for_unregistered_scenario(tmp_path):
    export_baselines(["table4"], golden_dir=tmp_path)
    stale = json.loads((tmp_path / "table4.json").read_text())
    stale["scenario"] = "renamed_away"
    (tmp_path / "renamed_away.json").write_text(json.dumps(stale))
    with pytest.raises(FileNotFoundError, match="renamed_away"):
        check_baselines(golden_dir=tmp_path)
    # ...and the CLI turns it into a clean usage error, not a traceback.
    assert main(["baseline", "check", "--golden-dir", str(tmp_path)]) == 2


def test_check_subset_and_missing_fixture(tmp_path):
    export_baselines(["table4"], golden_dir=tmp_path)
    assert check_baselines(["table4"], golden_dir=tmp_path).ok
    with pytest.raises(FileNotFoundError):
        check_baselines(["table12"], golden_dir=tmp_path)
    with pytest.raises(FileNotFoundError):
        check_baselines(golden_dir=tmp_path / "empty")


def test_export_forces_repro_fast_but_restores_env(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_FAST", raising=False)
    export_baselines(["table4"], golden_dir=tmp_path)
    import os

    assert "REPRO_FAST" not in os.environ


def test_baseline_cli(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["baseline", "export", "table4", "--golden-dir", "g"]) == 0
    assert (tmp_path / "g" / "table4.json").is_file()
    assert main(["baseline", "check", "--golden-dir", "g"]) == 0
    # --out persists the recomputed points (what nightly uploads on drift).
    assert main(["baseline", "check", "--golden-dir", "g", "--out", "s"]) == 0
    assert list((tmp_path / "s" / "objects").glob("*/*.json"))
    capsys.readouterr()
    assert main(["baseline", "check", "nope", "--golden-dir", "g"]) == 2
    assert main(["baseline", "check", "--golden-dir", "missing"]) == 2


# -- the committed fixtures ----------------------------------------------------


#: Extra scenarios whose fixtures ride the nightly golden grid alongside
#: the paper set (PR 5: the shard engine's regression net; PR 6: the
#: recovery engine's — forks, migrations; PR 8: the serving gateway's
#: typed-overload behaviour; PR 16: its closed-loop latency log).
EXTRA_GOLDEN = {
    "shard_scaling",
    "hot_shard",
    "cross_shard_ratio",
    "fork_recovery",
    "shard_rebalance",
    "serving_overload",
    "serving_latency",
}


def test_committed_fixtures_cover_the_paper_set():
    committed = {p.stem for p in GOLDEN_DIR.glob("*.json")}
    assert committed == set(scenarios.names("paper")) | EXTRA_GOLDEN


def test_extra_golden_scenarios_are_registered():
    # `baseline check` refuses fixtures of unregistered scenarios; keep
    # the extra-golden set in sync with the registry.
    for name in EXTRA_GOLDEN:
        assert scenarios.is_registered(name)


def test_committed_fixtures_are_wellformed():
    for path in sorted(GOLDEN_DIR.glob("*.json")):
        doc = json.loads(path.read_text())
        assert doc["kind"] == "golden"
        assert doc["scenario"] == path.stem
        assert doc["headers"] and doc["rows"]
        spec = scenarios.get(doc["scenario"])
        assert doc["headers"] == list(spec.headers)


def test_committed_fast_fixtures_still_reproduce():
    """The live half of the golden gate in tier-1: cheap scenarios only
    (the nightly workflow checks every fixture)."""
    assert check_baselines(FAST, golden_dir=GOLDEN_DIR).ok
