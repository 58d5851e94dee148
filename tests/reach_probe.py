"""Every function of the package has a reader outside the unit tests, or
a declared reason to stay.

    python tests/reach_probe.py

The probe records with `sys.settrace` the code of every call made while it
replays the CLI golden corpus byte for byte (`test_cli_golden.py`) and
runs one set-up (`run.cold_setup`) and one checked pass of each benchmark
workload at one round.  Each `def` of src/adic, found with `ast`, is reached when
its code was called.  The probe prints the unreached defs and exits 1 when
one of them is not in KEPT, or when a def in KEPT was reached: its
declaration is stale.  Like `regen_cli_golden.py` it is not a test module,
and it needs the standard library alone.
"""

import ast
import importlib
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "adic"

# The defs that neither the corpus nor a workload calls, each with the
# reason it stays.
KEPT = {
    "scalars._gcd": "the split of a reducible Perron factor of degree >= 4 "
                    "(`NumberField._split`); no builtin has one",
    "scalars.NumberField._split": "as `_gcd`",
    "scalars.NumberField.__repr__": "the text of the mixed-field and "
                                    "division-by-zero refusals",
    "scalars.FieldElement.__repr__": "as `NumberField.__repr__`",
    "scalars.FieldElement.__neg__": "the sup of a nonzero Q(lambda) "
                                    "residual, the fault check of "
                                    "`solver._residual`",
    "scalars.FieldElement.__abs__": "as `__neg__`",
    "diagrams.OrderedDiagram.__reduce__": "a pickle leaves the tables out; "
                                          "CI pickles a diagram",
    "errors.InsufficientStabilizationError.__init__":
        "raised by `algebra.trace(at_level=...)`, which the benchmark calls",
    "solenoid.wrapping": "criterion 05",
    "solenoid.WrappingMap.word_total": "criterion 05",
    "solenoid.point_distance": "criterion 08's exact reference; "
                               "bench/spans.py wraps it by name",
    "cohomology.birkhoff_cochain": "the reference of the distributions; "
                                   "bench/spans.py wraps it by name",
}


def package_defs():
    """{(file, first line of the code): "module.qualified.name"} for every
    def of the package, nested ones included; the code of a decorated
    function starts at its first decorator."""
    out = {}

    def walk(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            name = prefix
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno
                                              for d in child.decorator_list])
                name = "%s.%s" % (prefix, child.name)
                out[(path, first)] = name
            elif isinstance(child, ast.ClassDef):
                name = "%s.%s" % (prefix, child.name)
            walk(child, name, path)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text()), path.stem, str(path))
    return out


def reached_codes():
    """The code objects called while the corpus replays and each workload
    is set up, run once and checked; a drifted record or a failed check
    raises AssertionError."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench"), str(HERE)]
    seen = set()

    def trace(frame, event, arg):
        seen.add(frame.f_code)

    sys.settrace(trace)
    try:
        import run
        from test_cli_golden import test_every_record_replays_byte_for_byte
        test_every_record_replays_byte_for_byte()
        package = run.load_package()
        for name in run.WORKLOADS:
            # seed 1; 0 seconds is one round of operations
            workload = importlib.import_module(name).Workload(1, 0)
            run.cold_setup(workload, run.cache_resets(package))
            bad = workload.check([op() for op in workload.operations()])
            assert not bad, (name, bad[:5])
    finally:
        sys.settrace(None)
    return seen


def main():
    defs = package_defs()
    reached = {(code.co_filename, code.co_firstlineno)
               for code in reached_codes()}
    unreached = sorted(name for key, name in defs.items()
                       if key not in reached)
    for name in unreached:
        print("%-50s %s" % (name, KEPT.get(name, "UNDECLARED")))
    undeclared = [name for name in unreached if name not in KEPT]
    stale = sorted(set(KEPT) - set(unreached))
    print("%d defs, %d unreached" % (len(defs), len(unreached)))
    if undeclared or stale:
        print("undeclared: %s\nstale: %s" % (undeclared, stale))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
