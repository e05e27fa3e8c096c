"""nvground stays numpy-only: pyproject declares numpy and nothing else.
scipy and mpmath may be installed beside it, but neither is declared."""

import ast
import json
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


def top_level_names(tree: ast.Module):
    """(statement index, line, name) of each name a module binds at top level
    with a def, a class or an assignment."""
    for index, node in enumerate(tree.body):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        yield from ((index, node.lineno, n) for n in names)


def defined_privates(tree: ast.Module):
    """(line, name) of each single-underscore name a module binds at top level."""
    for _, line, n in top_level_names(tree):
        if n.startswith("_") and not n.startswith("__"):
            yield line, n


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


# Public names that no program reads, each kept for the acceptance criterion
# (tests/test_acceptance.py) or paper table that needs it.  The criteria are
# fixed, so their entry points and reference values stay.
UNREAD_PUBLIC = {
    "perturbation.exact_beta_estimates": "criterion 4: the exact angular coefficient beta",
    "transitions.ratio_estimators": "criterion 7: gamma ratios from line combinations",
    "transitions.isotopic_d_shift": "criterion 8: the isotopic D shift",
    "presets.TABLE3_BZ_G": "criteria 1-3: the field of Table 3",
    "presets.GAMMA_RATIO_N14": "criterion 7: reference gamma_e/gamma_n(14N)",
    "presets.GAMMA_N_ISOTOPE_RATIO": "criterion 7: reference |gamma_n(15N)/gamma_n(14N)|",
    "presets.A_PAR_ISOTOPE_RATIO": "criterion 7: reference |A_par(15N)/A_par(14N)|",
    "presets.FRACTIONAL_PPM_PER_K": "Table 1: the fractional derivatives quoted with it",
}


def read_names(node: ast.AST):
    """Every name a statement loads: as a name, an attribute or a `from` import."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.ImportFrom):
            yield from (alias.name for alias in n.names)


def test_every_public_name_has_a_program_reader():
    # Dead-surface guard: each module-level public function, class or
    # constant of the package is read by a program.  A reader is a statement
    # of src/ or perfbench/ other than the name's own definition; tests do
    # not count, and neither does the package __init__, whose re-export
    # would hand a name on without using it.  perfbench's tracer finds the
    # functions it times by name, so a BENCHMARK.json per-layer key
    # (module.name.metric) is a reader too.  UNREAD_PUBLIC lists the rest,
    # and an entry that is now read, or gone, fails as well.
    modules = sorted((ROOT / "src" / "nvground").glob("*.py"))
    bench_tests = ROOT / "perfbench" / "tests"
    bench = sorted(p for p in (ROOT / "perfbench").rglob("*.py") if bench_tests not in p.parents)
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), str(path)) for path in modules + bench}
    readers = {}
    for path, tree in trees.items():
        if path.name != "__init__.py":
            for index, stmt in enumerate(tree.body):
                for name in read_names(stmt):
                    readers.setdefault(name, set()).add((path, index))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    keyed = {".".join(layer["name"].split(".")[:2]) for layer in spec["per_layer"]}
    defined, unread = set(), {}
    for path in modules:
        for index, line, name in top_level_names(trees[path]):
            if name.startswith("_"):
                continue
            qual = f"{path.stem}.{name}"
            defined.add(qual)
            if qual not in keyed and not readers.get(name, set()) - {(path, index)}:
                unread[qual] = f"{path.relative_to(ROOT)}:{line}"
    problems = [
        f"{where} defines {qual}, which no program reads"
        for qual, where in unread.items()
        if qual not in UNREAD_PUBLIC
    ] + [
        f"UNREAD_PUBLIC lists {qual}, which " + ("is now read" if qual in defined else "no longer exists")
        for qual in UNREAD_PUBLIC
        if qual not in unread
    ]
    assert modules and not problems, "\n".join(problems)
