"""Every name a module of the package imports is read somewhere in it.

A stdlib `ast` scan stands in for a linter: a module's imported names
(`__future__` aside) must each appear as a loaded name in that module.
`__init__.py` is skipped, since it imports to re-export."""

import ast
import pathlib

import adic

PACKAGE = pathlib.Path(adic.__file__).resolve().parent


def unused_imports(source):
    """Sorted names that the module source imports but never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0]
                            for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted(imported - read)


def test_scan_finds_an_unused_import():
    source = (PACKAGE / "martingale.py").read_text()
    assert unused_imports(source) == []
    assert unused_imports("import json\n" + source) == ["json"]
    assert unused_imports("from .scalars import mat_pow as mp\n"
                          + source) == ["mp"]


def test_package_has_no_unused_imports():
    found = {p.name: unused_imports(p.read_text())
             for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"}
    assert {name: names for name, names in found.items() if names} == {}
