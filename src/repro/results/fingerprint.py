"""Canonical hashing for artifact keys.

A stored grid point must be reusable *only* when re-running it would
provably produce the same bytes.  The key therefore covers everything
that feeds the point function:

* the scenario name and the fully-enriched ``params`` dict (grid entry
  plus runner-injected ``seed``/``scale``);
* the run configuration the runner does not inject into params — the
  CLI ``--scale`` override, the base seed the substream seeds derive
  from, and the ``REPRO_FAST`` volume boost (it changes scaled configs
  *inside* the point at run time);
* the code: the package version, a hash of the point function's own
  source, and :func:`src_digest` — every Python and C source file of the
  ``repro`` package plus the active backend — so a change anywhere in
  the code the point runs invalidates its artifacts.

Hashes are SHA-256 over a canonical JSON encoding (sorted keys, no
whitespace), so keys are stable across processes, machines and dict
insertion orders.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
from pathlib import Path
from typing import Any, Callable, Mapping

from repro.version import __version__

#: Bump when the key material layout changes (invalidates all artifacts).
KEY_SCHEMA = 2


def canonical_json(obj: Any) -> str:
    """Deterministic JSON encoding: sorted keys, compact separators."""
    return json.dumps(
        obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True, default=_coerce
    )


def _coerce(value: Any) -> str:
    """Fallback encoder for key material (params may hold odd scalars)."""
    return f"{type(value).__name__}:{value!r}"


def fingerprint(obj: Any) -> str:
    """SHA-256 hex digest of ``obj``'s canonical JSON encoding."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def source_hash(fn: Callable) -> str:
    """Hash of a function's source text ('' when the source is unavailable)."""
    try:
        source = inspect.getsource(fn)
    except (OSError, TypeError):
        return ""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def code_version() -> str:
    return __version__


def tree_digest(root: Path) -> str:
    """SHA-256 over the sorted relative paths and bytes of every ``*.py``
    / ``*.c`` file under ``root``.

    Build products (``__pycache__``, ``.so``) and docs are left out, so
    running or building the code never changes its digest.
    """
    files = sorted(
        (path.relative_to(root).as_posix(), path)
        for path in root.rglob("*")
        if path.suffix in (".py", ".c") and "__pycache__" not in path.parts
    )
    digest = hashlib.sha256()
    for relative, path in files:
        for part in (relative.encode("utf-8"), path.read_bytes()):
            digest.update(len(part).to_bytes(8, "big"))
            digest.update(part)
    return digest.hexdigest()


@functools.cache
def src_digest() -> str:
    """:func:`tree_digest` of the ``repro`` package plus the active
    backend; computed once per process."""
    from repro.amm import backend

    package = Path(__file__).resolve().parent.parent
    return fingerprint([tree_digest(package), backend.active_backend()])


def point_key_material(
    scenario: str,
    params: Mapping[str, Any],
    *,
    point_fn: Callable,
    scale: int | None,
    base_seed: int | str,
    env_scale_boost: int,
    headers: tuple[str, ...] = (),
) -> dict:
    """The dict whose fingerprint is a grid point's artifact key."""
    return {
        "schema": KEY_SCHEMA,
        "scenario": scenario,
        "params": dict(params),
        "config": {
            "scale": scale,
            "base_seed": str(base_seed),
            "env_scale_boost": env_scale_boost,
            "headers": list(headers),
            "point_fn": f"{getattr(point_fn, '__module__', '?')}:"
            f"{getattr(point_fn, '__qualname__', repr(point_fn))}",
            "point_src": source_hash(point_fn),
        },
        "code_version": code_version(),
        "src_digest": src_digest(),
    }


def point_key(
    scenario: str,
    params: Mapping[str, Any],
    **kwargs: Any,
) -> str:
    """Content-addressed key for one grid point (SHA-256 hex)."""
    return fingerprint(point_key_material(scenario, params, **kwargs))
