"""Every module in ``src/repro`` imports only the standard library and ``repro``.

``setup.py`` declares no runtime dependency, and CI's bare-install jobs
run the package after a plain ``pip install -e .``.  This scan keeps that
promise checkable offline: a module may import a top-level package only
when it is in :data:`sys.stdlib_module_names` or is ``repro`` itself.
Relative imports stay inside the package and are not checked.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
ALLOWED = frozenset(sys.stdlib_module_names) | {"repro"}


def _top_level_imports(path: Path) -> set[str]:
    """The top-level package of every absolute import in ``path``."""
    tops: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            tops.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            tops.add(node.module.partition(".")[0])
    return tops


def _foreign_imports() -> list[str]:
    return sorted(
        f"{path.relative_to(PACKAGE)}: {top}"
        for path in PACKAGE.rglob("*.py")
        for top in _top_level_imports(path) - ALLOWED
    )


def test_runtime_imports_only_the_standard_library():
    foreign = _foreign_imports()
    assert foreign == [], (
        "modules under src/repro importing a package outside the standard "
        f"library (the runtime is stdlib-only): {foreign}"
    )


def test_scan_sees_a_foreign_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "import os.path\nfrom . import sibling\n"
        "def f():\n    import numpy as np\n    from scipy.linalg import lstsq\n"
    )
    assert _top_level_imports(module) - ALLOWED == {"numpy", "scipy"}
