"""Every field of a ``*Config`` dataclass in ``src/repro`` has a setter.

A config field that only ``tests/`` sets is an option nothing runs: its
non-default branch is exercised by no scenario, example or benchmark.
This scan is the config twin of ``test_importers.py``.  A field counts
as assigned when some file under ``src/``, ``examples/``, ``bench/`` or
``benchmarks/`` passes it as a keyword argument to any call (the
constructor, ``dataclasses.replace`` or a helper forwarding
``**overrides``), stores it as an attribute (``config.field = ...``), or
fills its slot with a positional argument to the class itself.  The
field's own definition in the class body is an annotation, not any of
these, so it never counts.  Keywords and attribute stores match by name
alone, so a field whose name some other call uses counts as set.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETTER_DIRS = ("src", "examples", "bench", "benchmarks")

#: Fields nothing sets yet, each waiting on the ROADMAP item that gives
#: it a caller or deletes it.
ALLOWED_UNASSIGNED = {
    # "Options nothing runs": fields only tests set.
    "UniswapL1Config.bootstrap_amount",
    "UniswapL1Config.size_profile",
    "MainchainConfig.block_interval",
    "MainchainConfig.block_gas_limit",
    "MainchainConfig.max_rollback_depth",
    # "Options nothing runs": Remark 3's NFT positions.
    "AmmBoostConfig.enable_nft_positions",
    # "The epoch-deposit mechanism, under load".
    "AmmBoostConfig.initial_deposit",
    "AmmBoostConfig.bootstrap_amount",
}


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = target.attr if isinstance(target, ast.Attribute) else getattr(
            target, "id", ""
        )
        if name == "dataclass":
            return True
    return False


def _is_classvar(annotation: ast.expr) -> bool:
    target = annotation.value if isinstance(annotation, ast.Subscript) else annotation
    return getattr(target, "id", getattr(target, "attr", "")) == "ClassVar"


def _config_fields() -> dict[str, list[str]]:
    """``{class name: [field, ...]}`` in declaration order."""
    configs: dict[str, list[str]] = {}
    for path in (SRC / "repro").rglob("*.py"):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.ClassDef)
                and node.name.endswith("Config")
                and _is_dataclass(node)
            ):
                configs[node.name] = [
                    stmt.target.id
                    for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)
                    and not _is_classvar(stmt.annotation)
                ]
    return configs


def _unassigned() -> list[str]:
    configs = _config_fields()
    assigned: set[str] = set()  # bare names: keywords and attribute stores
    positional: set[str] = set()  # "Class.field"
    for top in SETTER_DIRS:
        for path in (ROOT / top).rglob("*.py"):
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                if isinstance(node, ast.Call):
                    assigned.update(k.arg for k in node.keywords if k.arg)
                    func = node.func
                    name = func.attr if isinstance(func, ast.Attribute) else getattr(
                        func, "id", ""
                    )
                    for field in configs.get(name, [])[: len(node.args)]:
                        positional.add(f"{name}.{field}")
                elif isinstance(node, ast.Attribute) and isinstance(
                    node.ctx, ast.Store
                ):
                    assigned.add(node.attr)
    return sorted(
        f"{name}.{field}"
        for name, fields in configs.items()
        for field in fields
        if field not in assigned and f"{name}.{field}" not in positional
    )


def test_every_config_field_is_assigned_outside_the_tests():
    unset = [f for f in _unassigned() if f not in ALLOWED_UNASSIGNED]
    assert unset == [], (
        "config fields that nothing in src/, examples/, bench/ or "
        "benchmarks/ sets (give each a caller, make it a constant, or "
        f"delete it with its branch): {unset}"
    )


def test_allowlist_names_only_current_unassigned_fields():
    assert ALLOWED_UNASSIGNED <= set(_unassigned())
