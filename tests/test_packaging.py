"""Packaging honesty: every third-party import is a declared dependency."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]


def _import_roots() -> "dict[str, set[str]]":
    """Top-level (module-body) third-party import roots, with importers."""
    roots: "dict[str, set[str]]" = {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                root = name.split(".")[0]
                if root != "repro" and root not in sys.stdlib_module_names:
                    roots.setdefault(root, set()).add(
                        str(path.relative_to(ROOT))
                    )
    return roots


def _declared() -> "set[str]":
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    return {
        re.match(r"[A-Za-z0-9_.-]+", requirement).group(0).lower()
        for requirement in project["dependencies"]
    }


def test_every_third_party_import_is_declared():
    roots = _import_roots()
    assert "numpy" in roots  # the walk sees real imports
    missing = {
        root: sorted(files)
        for root, files in roots.items()
        if root.lower() not in _declared()
    }
    assert not missing, f"imported but not in pyproject.toml: {missing}"
