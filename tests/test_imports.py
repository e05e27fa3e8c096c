"""nvground stays numpy-only: pyproject declares numpy and nothing else.
scipy and mpmath may be installed beside it, but neither is declared."""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def imported(path: Path):
    """(line, top-level module) of every absolute import in a source file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name.partition(".")[0]) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.lineno, node.module.partition(".")[0]


def test_imports_stay_numpy_only():
    # The package imports the standard library, numpy and itself; the tests
    # may import their own tools (pytest, hypothesis), but not scipy or mpmath.
    allowed = set(sys.stdlib_module_names) | {"numpy", "nvground"}
    sources = sorted((ROOT / "src" / "nvground").glob("*.py"))
    tests = sorted((ROOT / "tests").rglob("*.py"))
    assert sources and tests
    found = [
        (path, line, name)
        for path in sources
        for line, name in imported(path)
        if name not in allowed
    ] + [
        (path, line, name)
        for path in tests
        for line, name in imported(path)
        if name in ("scipy", "mpmath")
    ]
    assert not found, "\n".join(f"{p.relative_to(ROOT)}:{line} imports {n}" for p, line, n in found)
