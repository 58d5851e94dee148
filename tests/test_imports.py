"""Every name a module of the package imports is read somewhere in it, and
every function, class or class member it defines is used somewhere, and
every option it offers is set somewhere.  No module imports numpy,
`cohomology` imports nothing from `solenoid`, and `algebra` nothing from
`solver` or `solenoid`, directly or through another module.

A stdlib `ast` scan stands in for a linter: a module's imported names
(`__future__` aside) must each appear as a loaded name in that module.
`__init__.py` is skipped, since it imports to re-export.  Only real users
count: the package's own modules (not the re-exports of `__init__.py`),
the benchmark and the acceptance tests, never a unit test.  A top-level
`def` or `class` must be read in its own module, or imported or reached as
an attribute of its module from a user.  A method or property of a class
(dunders aside), a field of a dataclass or of a namedtuple, and an
attribute that `__init__` sets on self, must be read by a user as an
attribute of something.  A parameter with a default must be set by some
call of a user whose callee can be the package's def, not a namesake.
Only `CylinderFunction.parts` and the solver's cylinder weights (`_xi`)
read values as integer columns (`integer_parts`).  `REFERENCES` lists
the reference implementations that only the unit tests comparing against
them read, and `SEAMS` the parameters that only the unit tests set.  The
`test` extra of pyproject.toml names every third-party module the test
files import."""

import ast
import math
import pathlib
import re
import sys

import pytest

import adic

PACKAGE = pathlib.Path(adic.__file__).resolve().parent
ROOT = pathlib.Path(__file__).resolve().parents[1]

# Reference implementations kept in the package, each with the unit test
# that compares the package against it.
REFERENCES = {
    "solenoid.point_distance":
        "test_solenoid.py::test_diameter_against_point_distances",
    "cohomology.birkhoff_cochain":
        "test_cohomology.py::test_distributions_match_rows_times_cochain",
}

# Parameters that only the unit tests set, each with the test file that
# drives the package through it.
SEAMS = {
    "cli.main.argv": "test_cli.py",
}


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
    assert unused_imports("from .scalars import mat_vec as mv\n"
                          + source) == ["mv"]


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


def test_cohomology_imports_nothing_from_solenoid():
    # the class tower reads A and the path structure only: no solenoid
    # geometry, no roof and no Perron field
    tree = ast.parse((PACKAGE / "cohomology.py").read_text())
    assert [node.module for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and _module_of(node) == "solenoid"] == []


def package_imports(module):
    """The package modules that `module` imports from, directly or through
    another package module."""
    found, todo = set(), [module]
    while todo:
        tree = ast.parse((PACKAGE / (todo.pop() + ".py")).read_text())
        for node in ast.walk(tree):
            name = isinstance(node, ast.ImportFrom) and _module_of(node)
            if name and name not in found:
                found.add(name)
                todo.append(name)
    return found


def test_algebra_imports_nothing_from_solver():
    # the crossed-product algebra reads the class tower and the cylinder
    # functions; the error for an overflowing alpha lives in `errors`, so
    # it reaches neither the solver nor, through it, the solenoid
    found = package_imports("algebra")
    assert {"cohomology", "errors", "martingale", "measures"} <= found
    assert {"solver", "solenoid"} & found == set()


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


def user_sources(root):
    """The sources of a source tree whose reads count: the package modules
    but `__init__.py`, the benchmark and the acceptance tests."""
    paths = [p for p in sorted((root / "src").rglob("*.py"))
             if p.name != "__init__.py"]
    paths += sorted((root / "bench").rglob("*.py"))
    return [p.read_text() for p in paths + [root / "tests" /
                                            "test_acceptance.py"]]


def _user_sources():
    return user_sources(ROOT)


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


def test_scan_counts_no_unit_test_as_a_user(tmp_path):
    files = {"src/adic/__init__.py": "from .x import orphan\n",
             "src/adic/x.py": "def orphan():\n    return 0\n",
             "tests/test_x.py": "from adic.x import orphan\n\n\n"
                                "def test_orphan():\n"
                                "    assert orphan() == 0\n",
             "tests/test_acceptance.py": "", "bench/run.py": ""}
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text)
    modules = {"x": files["src/adic/x.py"]}
    assert unused_definitions(modules, user_sources(tmp_path)) == \
        ["x.orphan"]
    (tmp_path / "bench" / "run.py").write_text("from adic import x\n"
                                               "x.orphan()\n")
    assert unused_definitions(modules, user_sources(tmp_path)) == []


def test_package_has_no_unused_definitions():
    assert unused_definitions(_package_sources(), _user_sources()) == \
        [name for name in sorted(REFERENCES) if name.count(".") == 1]


def test_references_are_read_by_their_tests():
    for name, test in REFERENCES.items():
        path, func = test.split("::")
        tree = ast.parse((ROOT / "tests" / path).read_text())
        body = next(n for n in tree.body
                    if getattr(n, "name", None) == func)
        read = {getattr(n, "attr", getattr(n, "id", None))
                for n in ast.walk(body)}
        assert name.rsplit(".", 1)[1] in read, name


def _is_dataclass(cls):
    return any(getattr(f, "id", getattr(f, "attr", None)) == "dataclass"
               for f in (d.func if isinstance(d, ast.Call) else d
                         for d in cls.decorator_list))


def _namedtuple_fields(node):
    """The field names of a `namedtuple("X", "a b")` call, else []."""
    if isinstance(node, ast.Call) and \
            getattr(node.func, "id", getattr(node.func, "attr", None)) == \
            "namedtuple" and len(node.args) > 1 and \
            isinstance(node.args[1], ast.Constant):
        return node.args[1].value.replace(",", " ").split()
    return []


def unused_members(modules, users):
    """Sorted "module.Class.name" of the methods and properties (dunders
    aside) of the top-level classes of `modules` ({module: source}), of the
    fields of their dataclasses and namedtuple bases and the attributes
    their `__init__` sets on self, and of the fields of the module's
    `X = namedtuple("X", ...)` records, that no source in `users` reads as
    an attribute.  Matching is by name only: `x.name` counts for any x."""
    read = {n.attr for src in users for n in ast.walk(ast.parse(src))
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    out = []
    for module, source in modules.items():
        for cls in ast.parse(source).body:
            if isinstance(cls, ast.Assign) and \
                    isinstance(cls.targets[0], ast.Name):
                out.extend("%s.%s.%s" % (module, cls.targets[0].id, name)
                           for name in _namedtuple_fields(cls.value)
                           if name not in read)
            if not isinstance(cls, ast.ClassDef):
                continue
            names = [n.name for n in cls.body
                     if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
                     and not (n.name.startswith("__")
                              and n.name.endswith("__"))]
            if _is_dataclass(cls):
                names += [n.target.id for n in cls.body
                          if isinstance(n, ast.AnnAssign)
                          and isinstance(n.target, ast.Name)]
            for base in cls.bases:
                names += _namedtuple_fields(base)
            for init in cls.body:
                if getattr(init, "name", None) == "__init__":
                    names += [n.attr for n in ast.walk(init)
                              if isinstance(n, ast.Attribute)
                              and isinstance(n.ctx, ast.Store)
                              and getattr(n.value, "id", None) == "self"]
            out.extend("%s.%s.%s" % (module, cls.name, name)
                       for name in dict.fromkeys(names) if name not in read)
    return sorted(out)


def test_scan_finds_an_unused_member():
    modules = {"scalars": (PACKAGE / "scalars.py").read_text()
               + "\n\n@dataclass(frozen=True)\nclass Orphan:\n"
               "    kept: int\n    spare: int\n\n"
               "    def __len__(self):\n        return 0\n\n"
               "    @property\n    def idle(self):\n        return 0\n"
               "\n\nStray = namedtuple(\"Stray\", \"kept, lost\")\n"
               "\n\nclass Waif(namedtuple(\"Waif\", \"kept \"\n"
               "                         \"gone\")):\n    __slots__ = ()\n"
               "\n\nclass Loner:\n    def __init__(self):\n"
               "        self.kept, self.alone = 0, 1\n"}
    users = _user_sources()
    every = ["scalars.Loner.alone", "scalars.Loner.kept",
             "scalars.Orphan.idle", "scalars.Orphan.kept",
             "scalars.Orphan.spare", "scalars.Stray.kept",
             "scalars.Stray.lost", "scalars.Waif.gone", "scalars.Waif.kept"]
    assert unused_members(modules, users) == every
    assert unused_members(modules, users + ["o.kept\ns.Orphan(1).idle\n"]) \
        == ["scalars.Loner.alone", "scalars.Orphan.spare",
            "scalars.Stray.lost", "scalars.Waif.gone"]
    assert unused_members(modules, users + ["o.spare = o.lost = 1\n"]) == \
        every


def test_package_has_no_unused_members():
    assert unused_members(_package_sources(), _user_sources()) == \
        [name for name in sorted(REFERENCES) if name.count(".") == 2]


def dataclasses_of(source):
    """Sorted names of the classes of the source that `@dataclass`
    decorates."""
    return sorted(c.name for c in ast.walk(ast.parse(source))
                  if isinstance(c, ast.ClassDef) and _is_dataclass(c))


def test_transfer_solution_is_the_one_dataclass():
    # @dataclass runs exec on generated methods while a module loads, about
    # a quarter of the package's import, so records are namedtuples; the
    # benchmark's self-test bends a TransferSolution with dataclasses.replace
    assert dataclasses_of("@dataclass(frozen=True)\nclass A:\n    x: int\n"
                          "\n\nclass B:\n    @dataclass\n    class C:\n"
                          "        y: int\n") == ["A", "C"]
    found = {p.stem: dataclasses_of(p.read_text())
             for p in sorted(PACKAGE.glob("*.py"))}
    assert {module: names for module, names in found.items() if names} == \
        {"solver": ["TransferSolution"]}


def imports_numpy(source):
    """Whether the source imports numpy or one of its submodules."""
    return any(isinstance(n, ast.Import)
               and any(a.name.split(".")[0] == "numpy" for a in n.names)
               or isinstance(n, ast.ImportFrom)
               and (n.module or "").split(".")[0] == "numpy"
               for n in ast.walk(ast.parse(source)))


def test_scan_finds_a_numpy_import():
    source = (PACKAGE / "scalars.py").read_text()
    assert not imports_numpy(source)
    assert imports_numpy(source + "\nimport numpy as np\n")
    assert imports_numpy("from numpy.linalg import eigvals\n")
    assert imports_numpy("def f():\n    import numpy.linalg\n")


def test_package_does_not_import_numpy():
    # the package needs the standard library only; tests and the
    # benchmark's oracles may use numpy
    assert [p.name for p in sorted(PACKAGE.glob("*.py"))
            if imports_numpy(p.read_text())] == []


def _defs_where(source, hit, kinds=(ast.FunctionDef, ast.AsyncFunctionDef)):
    """Sorted names of the innermost defs (or other nodes of the kinds) of
    the source holding a node for which hit is true; "<module>" for one
    outside all of them."""
    found = set()

    def visit(node, owner):
        if isinstance(node, kinds):
            owner = node.name
        if hit(node):
            found.add(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return sorted(found)


def _named(node, name):
    """Whether node is the name, bare or as an attribute."""
    return name in (getattr(node, "id", None), getattr(node, "attr", None))


def column_reads(source):
    """Sorted names of the innermost defs of the source that read
    `integer_parts`, by name or as an attribute; "<module>" for a read
    outside every def.  Passing the function on counts as a read."""
    return _defs_where(source, lambda n: isinstance(
        getattr(n, "ctx", None), ast.Load) and _named(n, "integer_parts"))


def test_scan_finds_a_column_read():
    source = (PACKAGE / "solver.py").read_text()
    assert column_reads(source) == ["_xi"]
    assert column_reads(source + "\n\ndef f(h):\n"
                        "    return m.integer_parts(h.values)\n") == \
        ["_xi", "f"]
    assert column_reads(source + "\nREAD = map(integer_parts, ())\n") == \
        ["<module>", "_xi"]


def test_columns_are_read_in_one_place():
    # a function's integer columns are read behind CylinderFunction.parts;
    # the cylinder weights xi that the solver's gauge reads are the one
    # other reader
    found = {p.stem: column_reads(p.read_text())
             for p in sorted(PACKAGE.glob("*.py"))}
    assert {module: defs for module, defs in found.items() if defs} == \
        {"martingale": ["parts"], "solver": ["_xi"]}


def coefficient_builders(source):
    """Sorted names of the innermost classes of the source that call
    `of_parts`, by name or as an attribute; "<module>" for a call outside
    every class."""
    return _defs_where(source, lambda n: isinstance(n, ast.Call)
                       and _named(n.func, "of_parts"), (ast.ClassDef,))


def names_columns(source):
    """Whether the source defines, imports or reads the name `_columns`."""
    return any(_named(n, "_columns") or getattr(n, "name", None) ==
               "_columns" for n in ast.walk(ast.parse(source)))


def test_scan_finds_a_coefficient_builder():
    source = (PACKAGE / "algebra.py").read_text()
    assert coefficient_builders(
        source + "\n\ndef f(q, cols):\n"
        "    return CylinderFunction.of_parts(0, q, cols, None)\n") == \
        ["<module>", "AlgebraElement"]
    assert coefficient_builders("class A:\n    class B:\n        x = "
                                "of_parts(0, 1, [[1]], None)\n") == ["B"]
    assert names_columns(source + "\n\ndef _columns(a):\n    pass\n")
    assert names_columns("from .algebra import _columns\n")
    assert names_columns("def f(a):\n    return alg._columns(a)\n")


def test_elements_build_coefficients_in_one_place():
    # an element stores the bare columns of its kernels: only its own
    # coeff view builds cylinder functions from them, and no operation
    # converts an operand to columns
    source = (PACKAGE / "algebra.py").read_text()
    assert coefficient_builders(source) == ["AlgebraElement"]
    assert not names_columns(source)


def alpha_overflow_raisers(source):
    """Sorted names of the innermost defs of the source that construct an
    AlphaOverflowError, by name or as an attribute."""
    return _defs_where(source, lambda n: isinstance(n, ast.Call)
                       and _named(n.func, "AlphaOverflowError"))


def overflow_catchers(source):
    """Sorted names of the innermost defs of the source with an except
    clause that names OverflowError, alone or in a tuple."""
    return _defs_where(source, lambda n: isinstance(n, ast.ExceptHandler)
                       and any(_named(t, "OverflowError") for t in
                               getattr(n.type, "elts", [n.type])))


def test_scan_finds_an_overflow_rule():
    source = ("def f(a):\n    raise AlphaOverflowError(a)\n\n\n"
              "def g(a):\n    try:\n        return 2.0 ** a\n"
              "    except (ValueError, OverflowError):\n"
              "        raise errors.AlphaOverflowError(a) from None\n"
              "    except OverflowError:\n        pass\n\n\n"
              "def h(a):\n    return AlphaOverflowError\n")
    assert alpha_overflow_raisers(source) == ["f", "g"]
    assert overflow_catchers(source) == ["g"]


def test_alpha_overflow_is_decided_in_one_function():
    # every float norm weighs through `martingale.weighted`, the one place
    # that blames alpha; the other except clauses read a value: an infinite
    # one in an input file (`_parse_value`), a float that has no exact
    # ratio (`integer_parts`), and one beyond the floats (`main`, exit 4)
    found = {p.stem: (alpha_overflow_raisers(p.read_text()),
                      overflow_catchers(p.read_text()))
             for p in sorted(PACKAGE.glob("*.py"))}
    assert {m: pair for m, pair in found.items() if pair != ([], [])} == {
        "martingale": (["weighted"], ["integer_parts", "weighted"]),
        "cli": ([], ["_parse_value", "main"])}


def defaulted_parameters(source):
    """{(class, def name, parameter): index} of the parameters with a
    default on the defs of the source; class names the class whose body
    holds the def, None for any other def.  The index is the number of
    positional arguments a call must pass to set the parameter, not
    counting the self of a method; None for a keyword-only parameter."""
    tree = ast.parse(source)
    owners = {id(node): cls.name for cls in ast.walk(tree)
              if isinstance(cls, ast.ClassDef) for node in cls.body}
    out = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args, owner = node.args, owners.get(id(node))
        positional = args.posonlyargs + args.args
        skip = 1 if owner and not any(
            isinstance(d, ast.Name) and d.id == "staticmethod"
            for d in node.decorator_list) else 0
        for i in range(len(positional) - len(args.defaults), len(positional)):
            out[(owner, node.name, positional[i].arg)] = i + 1 - skip
        out.update(((owner, node.name, a.arg), None) for a, d in
                   zip(args.kwonlyargs, args.kw_defaults) if d is not None)
    return out


def calls(source, module=None):
    """(callee, positional count, keyword names) of each call of the
    source whose callee can be a def of the package.  callee is
    (package module, name) for a name the source imports from a package
    module, for an attribute of a package module (`algebra.power`,
    `alg.convolve` after `from . import algebra as alg`,
    `pkg["martingale"].lift`), and for any other bare name when the source
    is the package module `module`.  It is (None, name) for an attribute
    of anything else, which only a method can be; other bare names (a
    builtin, a def of the benchmark) are no call of the package.  A *args
    passes every position and a **kwargs every keyword (None in the
    names)."""
    tree = ast.parse(source)
    names, modules = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            owner = _module_of(node)
            for a in node.names:
                if owner is not None:
                    names[a.asname or a.name] = (owner, a.name)
                elif node.module == "adic" or node.level == 1:
                    modules[a.asname or a.name] = a.name
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name):
            callee = names.get(func.id, module and (module, func.id))
        elif isinstance(func, ast.Attribute):
            owner = func.value
            if isinstance(owner, ast.Name) and owner.id in modules:
                callee = (modules[owner.id], func.attr)
            elif isinstance(owner, ast.Subscript) and \
                    isinstance(owner.slice, ast.Constant) and \
                    isinstance(owner.slice.value, str):
                callee = (owner.slice.value, func.attr)
            else:
                callee = (None, func.attr)
        else:
            callee = None
        if callee is None:
            continue
        count = math.inf if any(isinstance(a, ast.Starred)
                                for a in node.args) else len(node.args)
        out.append((callee, count, {k.arg for k in node.keywords}))
    return out


def unset_parameters(modules, users):
    """Sorted "module.def.parameter" ("module.Class.def.parameter" for a
    method) of the defaulted parameters of `modules` ({module: source})
    that no call in `users`, or in the def's own module, sets by keyword or
    by position.  A call counts for a function only when its callee can be
    that function (`calls`), so the seven positional arguments of the
    benchmark's own `oracles.norms` cover no parameter of `algebra.norms`.
    A method is matched by name, since the scan cannot read the type of
    what an attribute is looked up on: any attribute call of that name
    counts."""
    made = {}
    for module, src in [(None, src) for src in users] + list(modules.items()):
        for callee, count, keywords in calls(src, module):
            made.setdefault(callee, []).append((count, keywords))
    out = set()
    for module, source in modules.items():
        for (cls, name, param), index in defaulted_parameters(source).items():
            if not any(param in kw or None in kw
                       or index is not None and count >= index
                       for count, kw in made.get(
                           (None if cls else module, name), ())):
                out.add(".".join(filter(None, (module, cls, name, param))))
    return sorted(out)


def test_scan_finds_an_unset_parameter():
    modules = {"scalars": (PACKAGE / "scalars.py").read_text()
               + "\n\ndef orphan(x, knob=1, *, mode=None):\n    return x\n"
               "\n\nclass Spinner:\n    def spin(self, turns=1):\n"
               "        return turns\n"}
    users = _user_sources()
    unset = ["scalars.Spinner.spin.turns", "scalars.orphan.knob",
             "scalars.orphan.mode"]
    # a namesake of the package's orphan sets nothing
    for user in ("from adic.scalars import orphan\norphan(1)\n",
                 "orphan(1, 2, mode=3)\n",
                 "from oracles import orphan\norphan(1, 2, mode=3)\n",
                 "import oracles\noracles.orphan(1, 2, mode=3)\n",
                 "from adic import cli\ncli.orphan(1, 2, mode=3)\n",
                 "spin(2)\n"):
        assert unset_parameters(modules, users + [user]) == unset
    for extra in (["from adic.scalars import orphan as o\n"
                   "o(1, 2, mode=3)\n"],
                  ["from adic import scalars as s\ns.orphan(1, knob=2)\n",
                   "from . import scalars\nscalars.orphan(**o)\n"],
                  ['pkg["scalars"].orphan(1, 2, mode=3)\n']):
        assert unset_parameters(modules, users + extra + ["x.spin(2)\n"]) \
            == []
    # the module's own calls count
    modules["scalars"] += "\n\nSPUN = orphan(Spinner().spin(1), 2, mode=3)\n"
    assert unset_parameters(modules, users) == []


def test_package_has_no_unset_parameters():
    assert unset_parameters(_package_sources(), _user_sources()) == \
        sorted(SEAMS)


def test_seams_are_set_by_their_tests():
    for name, test in SEAMS.items():
        module = name.split(".")[0]
        assert name not in unset_parameters(
            {module: (PACKAGE / (module + ".py")).read_text()},
            [(ROOT / "tests" / test).read_text()]), name


def third_party_imports(source):
    """Sorted top-level modules that the source imports at its top level,
    or skips on with `pytest.importorskip`, outside the standard library,
    the package and the test modules."""
    tree = ast.parse(source)
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            names.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
    names.update(n.args[0].value for n in ast.walk(tree)
                 if isinstance(n, ast.Call)
                 and getattr(n.func, "attr", None) == "importorskip"
                 and n.args and isinstance(n.args[0], ast.Constant))
    return sorted({n.split(".")[0] for n in names} - set(
        sys.stdlib_module_names) - {"adic", "conftest"}
        - {n for n in names if n.startswith("test_")})


def test_scan_finds_a_test_dependency():
    assert third_party_imports(
        "import json\nimport numpy.linalg as la\nfrom hypothesis import "
        "given\nfrom test_step import _prefixed\nfrom adic import cli\n"
        "from . import x\n\ndef f():\n    import scipy\n"
        "    sympy = pytest.importorskip('sympy')\n") == \
        ["hypothesis", "numpy", "sympy"]


def test_test_extra_names_every_test_dependency():
    # CI installs the extra, so a test file importing a module it leaves
    # out would fail to collect there
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        extra = tomllib.load(fh)["project"]["optional-dependencies"]["test"]
    named = {re.match(r"[A-Za-z0-9_.-]+", req).group(0).lower()
             for req in extra}
    found = {name for path in sorted((ROOT / "tests").glob("*.py"))
             for name in third_party_imports(path.read_text())}
    assert sorted(found - named) == []
