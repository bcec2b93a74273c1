"""Source layout: line length and trailing whitespace in the package."""

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
