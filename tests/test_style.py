"""Source layout: line length and trailing whitespace in the package, and no
function that nothing uses."""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "ringfunc").glob("*.py"))


def test_the_package_has_sources():
    assert any(path.name == "groups.py" for path in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_lines_are_short_and_without_trailing_whitespace(path):
    bad = []
    for number, line in enumerate(path.read_text().splitlines(), start=1):
        if len(line) > 100:
            bad.append(f"{path.name}:{number}: {len(line)} characters")
        if line != line.rstrip():
            bad.append(f"{path.name}:{number}: trailing whitespace")
    assert not bad, "\n".join(bad)


def test_every_function_is_used_beyond_its_definition():
    # a name defined in the package must turn up again in src/, tests/ or
    # perfbench/: a helper nothing calls is dead code
    root = Path(__file__).resolve().parent.parent
    words = Counter(
        word
        for folder in ("src", "tests", "perfbench")
        for path in sorted((root / folder).rglob("*.py"))
        for word in re.findall(r"\w+", path.read_text())
    )
    defined = Counter(
        node.name
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    )
    unused = sorted(name for name, count in defined.items() if words[name] <= count)
    assert not unused, ", ".join(unused)
