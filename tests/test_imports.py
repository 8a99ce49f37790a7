"""Every name a module under src/jemaim or tests imports is used in that
module, and every module under src/jemaim imports at module level only."""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "jemaim"
MODULES = sorted(SRC.rglob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import -> its line, `from __future__` excepted."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
    return names


def test_the_sources_are_found():
    assert len(MODULES) > 20 and len(TESTS) > 10


@pytest.mark.parametrize(
    "path",
    [pytest.param(p, id=str(p.relative_to(SRC))) for p in MODULES]
    + [pytest.param(p, id=str(p.relative_to(ROOT))) for p in TESTS],
)
def test_no_unused_import(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(f"{name} (line {line})" for name, line in imported_names(tree).items() if name not in used)
    assert unused == []


@pytest.mark.parametrize("path", [pytest.param(p, id=str(p.relative_to(SRC))) for p in MODULES])
def test_no_import_inside_a_function(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    inner = sorted(
        f"{fn.name} (line {node.lineno})"
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    )
    assert inner == []
