"""Every name a library module imports is used in that module.

No linter ships with the test environment, so this parses each module of
``src/sdsosc`` (except the package ``__init__``, which imports to re-export)
and reports imported names that no expression reads.
"""

import ast
from pathlib import Path

import pytest

MODULES = sorted(p for p in (Path(__file__).parent.parent / "src" / "sdsosc").glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1]) if name not in used]


def test_modules_found():
    assert len(MODULES) >= 9


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_cli_builds_no_quadrature():
    """The CLI takes every norm and Gram entry from the library, so it needs
    nothing from ``polynomials``: no rule builder, no polynomial kernel."""
    tree = ast.parse(next(p for p in MODULES if p.name == "cli.py").read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "polynomials":
            found += [f"line {node.lineno}: {alias.name}" for alias in node.names]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found += [f"line {node.lineno}: {alias.name}" for alias in node.names
                      if alias.name.split(".")[-1] == "polynomials"]
    assert found == []
