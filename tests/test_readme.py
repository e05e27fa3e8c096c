"""README states the contract; the mechanism lives in the docstrings.

So README names no private identifier, and its Layout table lists each
module of the package once, no more and no fewer.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")
FENCED = re.compile(r"^```[^\n]*\n(.*?)^```$", re.M | re.S)


def _code() -> list[str]:
    """Every fenced block and every inline code span of README."""
    inline = re.findall(r"`([^`\n]+)`", FENCED.sub("", README))
    return FENCED.findall(README) + inline


def test_readme_names_no_private_identifier():
    # A private name is one that starts with "_" or is reached through "._".
    private = sorted({
        token
        for code in _code()
        for token in re.findall(r"[\w.]+", code)
        if token.startswith("_") or "._" in token
    })
    assert not private, f"README names private identifiers: {', '.join(private)}"


def test_layout_lists_each_module_once():
    layout = README.split("\n## Layout\n", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^\|\s*`(\w+)`\s*\|", layout, re.M)
    # __init__ only re-exports the modules' public names.
    modules = sorted(p.stem for p in (ROOT / "src" / "nvground").glob("*.py") if p.stem != "__init__")
    assert sorted(listed) == modules, f"Layout lists {sorted(listed)}, src/nvground/ has {modules}"
