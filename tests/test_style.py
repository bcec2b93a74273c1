"""Source layout: line length and trailing whitespace in the package, no
function that nothing uses, no parameter that its function never reads, and
an __all__ that matches the package's imports."""

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


def _is_stub(node):
    # the body, after a docstring, is raise NotImplementedError
    if isinstance(node, ast.Lambda):
        return False
    body = node.body[1:] if ast.get_docstring(node) is not None else node.body
    return (
        len(body) == 1
        and isinstance(body[0], ast.Raise)
        and "NotImplementedError" in ast.unparse(body[0])
    )


def test_every_parameter_is_read():
    # a parameter the body never reads is an option that does nothing;
    # self and cls, dunder methods and NotImplementedError stubs aside
    unread = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            name = getattr(node, "name", "<lambda>")
            if name.startswith("__") and name.endswith("__") or _is_stub(node):
                continue
            args = node.args
            params = [
                a.arg
                for a in args.posonlyargs + args.args + args.kwonlyargs
                + [a for a in (args.vararg, args.kwarg) if a is not None]
                if a.arg not in ("self", "cls")
            ]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {
                n.id
                for stmt in body
                for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            unread += [f"{path.name}:{node.lineno}: {name}({p})" for p in params if p not in read]
    assert not unread, "\n".join(unread)


def test_all_is_exactly_the_public_imports_of_the_package():
    # __all__ names each public name __init__ imports, once, and nothing
    # else, and each resolves: a removed export leaves no stale entry
    import ringfunc

    init = next(path for path in SOURCES if path.name == "__init__.py")
    imported = [
        alias.asname or alias.name
        for node in ast.parse(init.read_text()).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    ]
    assert sorted(ringfunc.__all__) == sorted(imported)
    assert len(set(imported)) == len(imported)
    assert all(hasattr(ringfunc, name) for name in ringfunc.__all__)


def _package_imports(tree):
    # every module an AST imports, in function bodies too, relative imports
    # resolved in the package; "from m import n" counts m and m.n
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["ringfunc" if node.level else "", node.module]))
            names.add(module)
            names.update(f"{module}.{alias.name}" for alias in node.names)
    return names


def test_only_the_cli_and_the_package_import_groups():
    # groups sits on top of the library: the modules below it never reach
    # up into it, not even from inside a function
    importers = [
        path.name
        for path in SOURCES
        if path.name not in ("cli.py", "__init__.py")
        and "ringfunc.groups" in _package_imports(ast.parse(path.read_text()))
    ]
    assert importers == []


def test_the_readme_lists_every_standard_library_module_the_package_imports():
    # the README's sentence names each top-level module imported anywhere
    # in the package, function bodies included, and no other; __future__ is
    # a compiler directive, not a module the package loads
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    sentence = re.search(r"imports only these standard-library modules:(.*?)\. ", readme, re.S)
    listed = set(re.findall(r"`(\w+)`", sentence.group(1)))
    imported = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                imported.add(node.module.split(".")[0])
    assert sorted(imported - {"__future__"}) == sorted(listed)
