"""Unit tests for the content-addressed artifact store and its keys."""

import json
import shutil
from pathlib import Path

import pytest

import repro
from repro.results.fingerprint import (
    canonical_json,
    fingerprint,
    point_key,
    point_key_material,
    src_digest,
    tree_digest,
)
from repro.results.store import ArtifactStore, NotSerializable, PointArtifact


def _sample_point(params):
    return {"rows": [[1, 2.5, "x"]]}


def _other_point(params):
    return {"rows": [[3, 4.5, "y"]]}


def _key_kwargs(**overrides):
    kwargs = dict(
        point_fn=_sample_point,
        scale=None,
        base_seed=0,
        env_scale_boost=1,
        headers=("a", "b", "c"),
    )
    kwargs.update(overrides)
    return kwargs


# -- fingerprinting ------------------------------------------------------------


def test_canonical_json_is_order_independent():
    assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})
    assert fingerprint({"b": 1, "a": 2}) == fingerprint({"a": 2, "b": 1})


def test_point_key_is_stable_and_param_sensitive():
    key1 = point_key("s", {"x": 1}, **_key_kwargs())
    key2 = point_key("s", {"x": 1}, **_key_kwargs())
    assert key1 == key2
    assert len(key1) == 64  # sha256 hex
    assert point_key("s", {"x": 2}, **_key_kwargs()) != key1
    assert point_key("other", {"x": 1}, **_key_kwargs()) != key1


def test_point_key_covers_run_configuration():
    base = point_key("s", {"x": 1}, **_key_kwargs())
    assert point_key("s", {"x": 1}, **_key_kwargs(scale=7)) != base
    assert point_key("s", {"x": 1}, **_key_kwargs(base_seed=1)) != base
    # REPRO_FAST changes scaled configs inside points, so it must re-key.
    assert point_key("s", {"x": 1}, **_key_kwargs(env_scale_boost=4)) != base
    # A different point function (different source) must re-key too.
    assert point_key("s", {"x": 1}, **_key_kwargs(point_fn=_other_point)) != base


def test_key_material_encodes_unusual_params_without_crashing():
    material = point_key_material("s", {"obj": object()}, **_key_kwargs())
    assert fingerprint(material)  # falls back to a typed repr


def test_key_material_carries_the_source_digest():
    material = point_key_material("s", {"x": 1}, **_key_kwargs())
    assert material["schema"] == 2
    assert material["src_digest"] == src_digest()


def test_tree_digest_follows_source_bytes_only(tmp_path):
    """Editing one byte of the code re-keys every artifact; build
    products and docs do not."""
    package = Path(repro.__file__).parent
    copy = tmp_path / "repro"
    shutil.copytree(package, copy, ignore=shutil.ignore_patterns("__pycache__", "*.so"))
    base = tree_digest(copy)
    assert base == tree_digest(package)

    (copy / "amm" / "__pycache__").mkdir()
    (copy / "amm" / "__pycache__" / "pool.cpython-311.pyc").write_bytes(b"\0junk")
    (copy / "amm" / "stale.pyc").write_bytes(b"\0junk")
    with open(copy / "amm" / "README.md", "a") as readme:
        readme.write("edited\n")
    assert tree_digest(copy) == base

    pool = copy / "amm" / "pool.py"
    data = bytearray(pool.read_bytes())
    data[100] ^= 1
    pool.write_bytes(bytes(data))
    assert tree_digest(copy) != base


# -- point artifacts -----------------------------------------------------------


def _artifact(key="k" * 64, result=None):
    return PointArtifact(
        key=key,
        scenario="s",
        point_index=0,
        params={"x": 1},
        result=result if result is not None else {"rows": [[1, 2.5, "x"]]},
        wall_clock_s=0.25,
    )


def test_save_and_load_roundtrip(tmp_path):
    store = ArtifactStore(tmp_path / "store")
    artifact = _artifact()
    path = store.save_point(artifact)
    assert path.is_file()
    assert store.has(artifact.key)
    loaded = store.load_point(artifact.key)
    assert loaded is not None
    assert loaded.result == artifact.result
    assert loaded.params == artifact.params
    assert loaded.wall_clock_s == artifact.wall_clock_s
    assert loaded.created_at  # stamped at save time
    # No temp files left behind by the atomic write.
    assert not list((tmp_path / "store").rglob(".tmp.*"))


def test_missing_and_corrupt_artifacts_are_cache_misses(tmp_path):
    store = ArtifactStore(tmp_path)
    assert store.load_point("0" * 64) is None
    artifact = _artifact()
    path = store.save_point(artifact)
    path.write_text("{not json")
    assert store.load_point(artifact.key) is None


def test_artifact_under_wrong_key_is_rejected(tmp_path):
    store = ArtifactStore(tmp_path)
    artifact = _artifact()
    store.save_point(artifact)
    # Copy the object under a different key: content no longer matches.
    other_key = "f" * 64
    store.object_path(other_key).parent.mkdir(parents=True, exist_ok=True)
    store.object_path(other_key).write_text(store.object_path(artifact.key).read_text())
    assert store.load_point(other_key) is None


def test_non_json_results_are_refused(tmp_path):
    store = ArtifactStore(tmp_path)
    with pytest.raises(NotSerializable):
        store.save_point(_artifact(result={"rows": [(1, 2)]}))  # tuple: lossy
    with pytest.raises(NotSerializable):
        store.save_point(_artifact(result={"obj": object()}))
    assert not store.has(_artifact().key)


def test_iter_points(tmp_path):
    store = ArtifactStore(tmp_path)
    a = _artifact(key="a" * 64)
    b = _artifact(key="b" * 64)
    store.save_point(a)
    store.save_point(b)
    assert {p.key for p in store.iter_points()} == {a.key, b.key}


# -- run manifests -------------------------------------------------------------


def test_manifest_roundtrip_and_latest(tmp_path):
    store = ArtifactStore(tmp_path)
    first = store.write_manifest({"scenarios": ["s1"], "results": {}})
    second = store.write_manifest({"scenarios": ["s2"], "results": {}})
    assert first != second
    manifests = store.manifests()
    assert [m["scenarios"] for m in manifests] == [["s1"], ["s2"]]
    latest = store.latest_manifest()
    assert latest is not None and latest["scenarios"] == ["s2"]
    assert latest["run_id"] and latest["code_version"]


def test_manifest_files_are_valid_json(tmp_path):
    store = ArtifactStore(tmp_path)
    path = store.write_manifest({"scenarios": [], "results": {}})
    assert json.loads(path.read_text())["schema"] == 1
