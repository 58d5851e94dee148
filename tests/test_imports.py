"""Every name a module of the package imports is read somewhere in it, and
every function or class it defines is used somewhere.

A stdlib `ast` scan stands in for a linter: a module's imported names
(`__future__` aside) must each appear as a loaded name in that module.
`__init__.py` is skipped, since it imports to re-export.  A top-level `def`
or `class` must be read in its own module, or imported or reached as an
attribute of its module from the sources, the tests or the benchmark."""

import ast
import pathlib

import adic

PACKAGE = pathlib.Path(adic.__file__).resolve().parent
ROOT = pathlib.Path(__file__).resolve().parents[1]


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


def _module_of(node):
    """The package module a `from ... import` names, or None."""
    name = node.module or ""
    if node.level == 0 and name.startswith("adic."):
        return name[len("adic."):]
    if node.level == 1 and name:
        return name
    return None


def uses(source):
    """(module, name) pairs the source imports from a package module or
    reaches as an attribute of one: `measures.renorm_data`, also with the
    module under an alias (`from . import algebra as alg`) or looked up by
    name (`pkg["martingale"].lift`)."""
    tree = ast.parse(source)
    found, aliases = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = _module_of(node)
            if module is not None:
                found.update((module, a.name) for a in node.names)
            aliases.update((a.asname, a.name) for a in node.names
                           if a.asname)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        owner = node.value
        if isinstance(owner, ast.Name):
            found.add((aliases.get(owner.id, owner.id), node.attr))
        elif isinstance(owner, ast.Subscript) and \
                isinstance(owner.slice, ast.Constant):
            found.add((owner.slice.value, node.attr))
    return found


def unused_definitions(modules, users):
    """Sorted "module.name" of the top-level functions and classes of
    `modules` ({module: source}) that their own module never reads and no
    source in `users` imports or reaches as an attribute."""
    used = set().union(*(uses(src) for src in users))
    out = []
    for module, source in modules.items():
        tree = ast.parse(source)
        read = {n.id for n in ast.walk(tree)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        out.extend("%s.%s" % (module, node.name) for node in tree.body
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                        ast.ClassDef))
                   and node.name not in read
                   and (module, node.name) not in used)
    return sorted(out)


def _package_sources():
    return {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))
            if p.name != "__init__.py"}


def _user_sources():
    return [p.read_text() for top in ("src", "tests", "bench")
            for p in sorted((ROOT / top).rglob("*.py"))]


def test_scan_finds_an_unused_definition():
    modules = {"scalars": (PACKAGE / "scalars.py").read_text()
               + "\n\ndef orphan():\n    return 0\n"}
    users = _user_sources()
    assert unused_definitions(modules, users) == ["scalars.orphan"]
    assert unused_definitions(
        modules, users + ["from adic.scalars import orphan\n"]) == []
    assert unused_definitions(
        modules, users + ["from adic import scalars as s\ns.orphan()\n"]) \
        == []


def test_package_has_no_unused_definitions():
    assert unused_definitions(_package_sources(), _user_sources()) == []
