"""Every public method of an AMM or core class has a caller outside the tests.

A method that only ``tests/`` calls is surface nothing runs: a second
implementation, a feature no scenario reaches, or a reference that
belongs in ``tests/``.  This scan is the method twin of
``test_importers.py`` and ``test_config_fields.py``.  It covers every
public method and property (no leading underscore) of a class defined
under ``src/repro/amm`` or ``src/repro/core``.  A method counts as
called when some file under ``src/``, ``examples/``, ``bench/`` or
``benchmarks/`` accesses an attribute of that name (``obj.name``, called
or not), or, for a subclass of ``Contract`` only, holds a string literal
of that name: ``Mainchain.submit_call`` dispatches a contract call by
its function name.

The match is by name alone, not by receiver: a method whose name some
other class's method also has (``transfer``, ``plan``) counts as called
as soon as either is accessed.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
SCANNED = ("amm", "core")
CALLER_DIRS = ("src", "examples", "bench", "benchmarks")

#: Methods with no caller yet, each waiting on the ROADMAP item that
#: gives it one or deletes it.
ALLOWED_WITHOUT_CALLER = {
    # The reference walker tests/swap_oracle.py steps through ticks with
    # these; a reference the tests compare against stays.
    "TickTable.peek",
    "TickTable.cross",
    # Aim 3, "The epoch-deposit mechanism, under load".
    "DepositPlan.needs_deposit",
    "DepositPlanner.observe_epoch",
    # Aim 2, "Options nothing runs": Remark 3's NFT positions.
    "PositionNftRegistry.token_of",
    # Aim 3, "State-growth control, measured": the permanent-summary column.
    "EpochSummary.sidechain_size_bytes",
    # Aim 3, "Public verifiability that verifies".
    "TsqcAuthenticator.verify_payload",
    # Aim 3, "Invariants that audit themselves": the escrow sum.
    "TokenBank.escrow_balance",
}


def _classes() -> dict[str, ast.ClassDef]:
    """Every class under ``src/repro``, by name."""
    classes: dict[str, ast.ClassDef] = {}
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ClassDef):
                classes[node.name] = node
    return classes


def _base_names(node: ast.ClassDef) -> list[str]:
    return [
        base.attr if isinstance(base, ast.Attribute) else getattr(base, "id", "")
        for base in node.bases
    ]


def _is_contract(name: str, classes: dict[str, ast.ClassDef]) -> bool:
    seen: set[str] = set()
    todo = [name]
    while todo:
        current = todo.pop()
        if current == "Contract":
            return True
        if current in seen or current not in classes:
            continue
        seen.add(current)
        todo.extend(_base_names(classes[current]))
    return False


def _public_methods() -> dict[str, list[str]]:
    """``{class name: [public method, ...]}`` for the scanned packages."""
    methods: dict[str, list[str]] = {}
    for package in SCANNED:
        for path in (SRC / package).rglob("*.py"):
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                if isinstance(node, ast.ClassDef):
                    methods[node.name] = [
                        stmt.name
                        for stmt in node.body
                        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not stmt.name.startswith("_")
                    ]
    return methods


def _uncalled() -> list[str]:
    attributes: set[str] = set()
    strings: set[str] = set()
    for top in CALLER_DIRS:
        for path in (ROOT / top).rglob("*.py"):
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                if isinstance(node, ast.Attribute):
                    attributes.add(node.attr)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    strings.add(node.value)
    classes = _classes()
    uncalled: set[str] = set()
    for cls, names in _public_methods().items():
        dispatched = strings if _is_contract(cls, classes) else set()
        uncalled.update(
            f"{cls}.{name}"
            for name in names
            if name not in attributes and name not in dispatched
        )
    return sorted(uncalled)


def test_every_public_method_has_a_caller_outside_the_tests():
    uncalled = [m for m in _uncalled() if m not in ALLOWED_WITHOUT_CALLER]
    assert uncalled == [], (
        "public methods of src/repro/amm and src/repro/core classes that "
        "nothing in src/, examples/, bench/ or benchmarks/ calls (give "
        f"each a caller, move it into tests/, or delete it): {uncalled}"
    )


def test_allowlist_names_only_current_uncalled_methods():
    assert ALLOWED_WITHOUT_CALLER <= set(_uncalled())


def test_scan_sees_attribute_access_and_contract_dispatch(tmp_path, monkeypatch):
    """Both caller rules, on a throwaway tree laid out like the repo."""
    amm = tmp_path / "src" / "repro" / "amm"
    amm.mkdir(parents=True)
    (amm / "m.py").write_text(
        "class Contract:\n"
        "    pass\n"
        "class Bank(Contract):\n"
        "    def deposit(self): ...\n"
        "    def audit(self): ...\n"
        "class Pool:\n"
        "    def swap(self): ...\n"
        "    def deposit(self): ...\n"
        "    def flash(self): ...\n"
        "    def _walk(self): ...\n"
    )
    (tmp_path / "examples").mkdir()
    (tmp_path / "examples" / "run.py").write_text(
        "chain.submit_call('alice', 'bank', 'deposit')\n"
        "step = pool.swap\n"
    )
    module = sys.modules[__name__]
    monkeypatch.setattr(module, "ROOT", tmp_path)
    monkeypatch.setattr(module, "SRC", tmp_path / "src" / "repro")
    assert _uncalled() == ["Bank.audit", "Pool.deposit", "Pool.flash"]
