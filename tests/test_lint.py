"""Source hygiene checks that need nothing beyond the standard library."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHECKED = sorted((ROOT / "src" / "mdgpusim").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str):
    """(line, name) for every name an import binds that the module never
    reads.  ``from __future__`` imports are directives, not bindings."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_gate_sees_unused_and_used_imports():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "import json as js\n"
              "from typing import Dict, List\n"
              "x: Dict = os.path.sep\n")
    assert unused_imports(source) == [(3, "js"), (4, "List")]


def test_no_unused_imports():
    offenders = [f"{path.relative_to(ROOT)}:{line}: {name}"
                 for path in CHECKED
                 for line, name in unused_imports(path.read_text(encoding="utf-8"))]
    assert offenders == []
