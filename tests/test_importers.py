"""Every module in ``src/repro`` has a caller outside the tests.

A module that only ``tests/`` (or ``benchmarks/``) imports is a
reference implementation or dead code: it lives in ``tests/`` or
nowhere.  This scan keeps that rule from eroding.  A module counts as
used when some *other* file under ``src/``, ``examples/`` or ``bench/``
imports it by name (``import repro.x.y``, ``from repro.x.y import ...``
or ``from repro.x import y``).
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
IMPORTER_DIRS = ("src", "examples", "bench")

#: Modules with no importer yet, each waiting on the ROADMAP item that
#: decides whether it gets callers or goes.
ALLOWED_WITHOUT_IMPORTER = {
    # Aim 3, "Public verifiability that verifies": the verifier either
    # speaks this vocabulary or the module is deleted.
    "core/api.py",
    # Aim 3, "The epoch-deposit mechanism, under load": a planner-driven
    # deposit policy uses it, or it is deleted.
    "core/deposits.py",
}


def _module_name(path: Path) -> str:
    return ".".join(path.relative_to(SRC).with_suffix("").parts)


def _imported_names(path: Path) -> set[str]:
    """Every dotted name ``path`` could be importing as a module."""
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names


def _orphans() -> list[str]:
    modules = {
        _module_name(path): path
        for path in (SRC / "repro").rglob("*.py")
        if path.stem not in ("__init__", "__main__")
    }
    importers = [
        path for top in IMPORTER_DIRS for path in (ROOT / top).rglob("*.py")
    ]
    imported: set[str] = set()
    for path in importers:
        own = _module_name(path) if SRC in path.parents else None
        imported.update(name for name in _imported_names(path) if name != own)
    return sorted(
        str(path.relative_to(SRC / "repro"))
        for name, path in modules.items()
        if name not in imported
    )


def test_every_src_module_has_a_production_importer():
    orphans = [m for m in _orphans() if m not in ALLOWED_WITHOUT_IMPORTER]
    assert orphans == [], (
        "modules under src/repro that nothing in src/, examples/ or bench/ "
        f"imports (move test-only code into tests/, delete dead code): {orphans}"
    )


def test_allowlist_names_only_current_orphans():
    assert ALLOWED_WITHOUT_IMPORTER <= set(_orphans())
