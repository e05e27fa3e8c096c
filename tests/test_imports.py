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


def defined_privates(tree: ast.Module):
    """(line, name) of each single-underscore name a module binds at top level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        yield from ((node.lineno, n) for n in names if n.startswith("_") and not n.startswith("__"))


def test_every_private_name_is_used():
    # Dead-code guard: each module-level private function, class or constant
    # of the package is read somewhere in src/, as a name or an attribute.
    # Tests do not count: a helper only a test calls is not program code.
    sources = sorted((ROOT / "src" / "nvground").glob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), str(path)) for path in sources}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unused = [
        (path, line, name)
        for path, tree in trees.items()
        for line, name in defined_privates(tree)
        if name not in read
    ]
    assert sources and not unused, "\n".join(
        f"{p.relative_to(ROOT)}:{line} defines {n}, which src/ never reads" for p, line, n in unused
    )
