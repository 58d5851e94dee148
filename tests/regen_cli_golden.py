"""Rewrite the CLI golden corpus in tests/cli_golden/.

    python tests/regen_cli_golden.py

The corpus is the byte-for-byte regression oracle of the `adic` command:
`inputs/` holds the files the runs read, and each `<group>.json` a list of
records, one per run, with its argv, exit code, stdout and stderr (the
streams as lists of lines, so a diff shows the lines that moved).  Every
run is made in process through `adic.cli.main` from `inputs/`, so paths
are relative and no output names a temporary directory.
`test_cli_golden.py` replays the records.  Rewrite them only for a
declared output change, and list the records it changes.

Run under Python 3.10 to 3.12, the script rewrites the inputs and the
records.  Python 3.13 wraps argparse's usage and words its invalid-choice
errors differently, so a record may also hold a "3.13" variant of its run,
which the replay reads from 3.13 on.  Run under 3.13 or later, the script
rewrites those variants alone: it replays every record and keeps the run
as its variant where it differs.  A rewrite under 3.10 to 3.12 keeps the
variants, so rerun the script under 3.13 after one that changes a record
holding a variant.
"""

import json
import pathlib
import shutil
import sys
from fractions import Fraction

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from adic.catalog import builtin_diagram  # noqa: E402
from adic.diagrams import (OrderedDiagram, enumerate_paths,  # noqa: E402
                           make_level)
from adic.errors import PreconditionError  # noqa: E402
from adic.martingale import compose_phi, from_vector, lift  # noqa: E402
from test_cli_golden import CORPUS, INPUTS, replay  # noqa: E402


def _one_level(n, edges, in_order):
    return OrderedDiagram((make_level(n, n, edges, in_order),), True)


def diagrams():
    """label -> (the --diagram argument, the diagram or None)."""
    fib = builtin_diagram("fib")
    pisot31 = builtin_diagram("pisot31")
    prefix = [(s, 0) for s in range(2)] + [(0, 1)]
    files = {
        # [[2, 1], [1, 1]]: lambda = phi^2, properly ordered
        "golden2": _one_level(2, [(0, 0), (0, 0), (1, 0), (0, 1), (1, 1)],
                              [[2, 0, 1], [4, 3]]),
        # primitive, with two minimal and two maximal paths
        "twomin": _one_level(2, [(0, 0), (1, 0), (0, 1), (1, 1)],
                             [[0, 1], [3, 2]]),
        # [[0, 2], [2, 0]]: positive eigenvectors, not primitive
        "period2": _one_level(2, [(1, 0), (1, 0), (0, 1), (0, 1)],
                              [[0, 1], [2, 3]]),
        # Perron root 1: the path space is one point
        "loop": _one_level(1, [(0, 0)], [[0]]),
        # [[1, 1, 0], [0, 0, 1], [3, 1, 1]]: a cubic Perron root
        "cubic": _one_level(3, [(0, 0), (1, 0), (2, 1), (0, 2), (0, 2),
                                (0, 2), (1, 2), (2, 2)],
                            [[0, 1], [2], [3, 4, 5, 6, 7]]),
        # [[0, 0, 1], [1, 1, 0], [1, 1, 1]]: singular, of index 2, so
        # k' = 2, d = 1 and lambda = 2; properly ordered
        "index2": _one_level(3, [(2, 0), (0, 1), (1, 1), (0, 2), (1, 2),
                                 (2, 2)], [[0], [2, 1], [4, 3, 5]]),
        # pisot31 behind a level that does not repeat; its roof has a zero
        "prefixed": OrderedDiagram((make_level(2, 2, prefix, [[0, 1], [2]]),)
                                   + pisot31.levels, True),
        # three fib levels that do not repeat
        "nonstat": OrderedDiagram(fib.levels * 3),
    }
    out = {name: (name, builtin_diagram(name))
           for name in ("odo2", "odo3", "fib", "pisot31")}
    out.update({name: (name + ".json", d) for name, d in files.items()})
    out["missing"] = ("missing.json", None)
    return out


def _function(d, level, values):
    return {"level": level, "values": {str(i): str(Fraction(v))
                                       for i, v in enumerate(values)
                                       if v != 0}}


def inputs(label, ref, d):
    """The files a diagram's runs read: the diagram, a level-1 function h,
    a coboundary (h = g o phi - g where phi is defined, else 0), a start
    path, and two elements near the unit."""
    files = {}
    if label not in ("odo2", "odo3", "fib", "pisot31"):
        files[label + ".json"] = d.to_json_dict()
    n1 = len(enumerate_paths(d, 1))
    files[label + "-h.json"] = _function(d, 1, [i % 3 - 1
                                                for i in range(n1)])
    g = from_vector(d, 1, [Fraction(i % 2) for i in range(n1)])
    try:
        gphi = compose_phi(d, g, 1)
        cob = [a - b for a, b in zip(gphi.values,
                                     lift(d, g, gphi.level).values)]
        files[label + "-cob.json"] = _function(d, gphi.level, cob)
    except PreconditionError:
        files[label + "-cob.json"] = _function(d, 0, [])
    p = enumerate_paths(d, 2)[-1]
    files[label + "-start.json"] = {"prefix": list(p.edges), "tail": "MIN"}
    unit = {"level": 0, "values": {str(v): "1"
                                   for v in range(d.num_vertices(0))}}
    files[label + "-e0.json"] = {"diagram": ref,
                                 "alpha": 3, "coeffs": {"0": unit}}
    files[label + "-e.json"] = {
        "alpha": 3, "coeffs": {"0": unit, "1": {
            "level": 1, "values": {"0": "1/100000"}}}}
    if label in ("period2", "nonstat"):
        files[label + "-e0.json"]["lam"] = 2
    return files


# The runs on every diagram: "D" is the diagram, "H" its function, "C" its
# coboundary, "S" its start path file, "E" an element with a shift-1
# coefficient and "E0" one on shift 0 that names its diagram.
RUNS = (
    ["validate", "--diagram", "D"],
    ["paths", "--diagram", "D", "--level", "2"],
    ["paths", "--diagram", "D", "--level", "2", "--emit", "csv"],
    ["paths", "--diagram", "D", "--level", "-1"],
    ["orbit", "--diagram", "D", "-N", "5"],
    ["orbit", "--diagram", "D", "-N", "4", "--emit", "csv"],
    ["orbit", "--diagram", "D", "--start", "S", "-N", "4"],
    ["orbit", "--diagram", "D", "--start", '{"prefix": [], "tail": "MAX"}',
     "-N", "2", "--emit", "csv"],
    ["orbit", "--diagram", "D", "-N", "-1"],
    ["measure", "--diagram", "D"],
    ["measure", "--diagram", "D", "--level", "1"],
    ["measure", "--diagram", "D", "--level", "-1"],
    ["lyapunov", "--diagram", "D"],
    ["complex", "--diagram", "D", "--level", "1"],
    ["complex", "--diagram", "D", "--level", "2", "--emit", "dot"],
    ["complex", "--diagram", "D", "--level", "-1"],
    ["decompose", "--diagram", "D", "--function", "H"],
    ["decompose", "--diagram", "D", "--function", "H", "--emit", "json"],
    ["decompose", "--diagram", "D", "--function", "nofile.json"],
    ["cohomology", "--diagram", "D", "--max-level", "3"],
    ["coho", "--diagram", "D", "--max-level", "2"],
    ["cohomology", "--diagram", "D", "--max-level", "-1"],
    ["distributions", "--diagram", "D", "--function", "H"],
    ["distributions", "--diagram", "D", "--function", "C"],
    ["solve", "--diagram", "D", "--function", "C"],
    ["solve", "--diagram", "D", "--function", "C", "--alpha", "3"],
    ["solve", "--diagram", "D", "--function", "H", "--alpha", "3.5",
     "--eps", "0.5"],
    ["solve", "--diagram", "D", "--function", "C", "--alpha", "1e300"],
    ["solve", "--diagram", "D", "--function", "C", "--eps", "0"],
    ["birkhoff", "--diagram", "D", "--function", "H", "-N", "100"],
    ["birkhoff", "--diagram", "D", "--function", "C", "-N", "9",
     "--emit", "csv"],
    ["birkhoff", "--diagram", "D", "--function", "H", "--start", "S",
     "-N", "7"],
    ["birkhoff", "--diagram", "D", "--function", "H", "-N", "0"],
    ["algebra", "check", "--diagram", "D", "--trials", "0"],
    ["algebra", "check", "--diagram", "D", "--trials", "1", "--seed", "3"],
    ["algebra", "check", "--diagram", "D", "--trials", "1",
     "--alpha", "2.5"],
    ["algebra", "check", "--diagram", "D", "--trials", "-1"],
    ["algebra", "invert", "--diagram", "D", "--element", "E",
     "--tol", "0.01"],
    ["algebra", "invert", "--element", "E0"],
    ["algebra", "invert", "--element", "E0", "--alpha", "2", "--tol", "0"],
)

# Start paths with a PERIODIC tail, per diagram: "P" a prefix followed by a
# word repeated forever, not eventually extreme; "R" a word with an edge
# index out of range; "X" a word whose edges do not chain (both exit 2).
PERIODIC = {
    "fib": {"P": {"prefix": [0], "tail": {"periodic": [2, 1, 0]}},
            "R": {"prefix": [0], "tail": {"periodic": [2, 3]}},
            "X": {"prefix": [], "tail": {"periodic": [2, 2]}}},
    "pisot31": {"P": {"prefix": [2], "tail": {"periodic": [1, 4, 6, 3]}},
                "R": {"prefix": [2], "tail": {"periodic": [1, 8]}},
                "X": {"prefix": [], "tail": {"periodic": [4, 4]}}},
    # levels that do not repeat: the tail is checked on them alone
    "nonstat": {"P": {"prefix": [], "tail": {"periodic": [0]}},
                "R": {"prefix": [0], "tail": {"periodic": [2, 3]}},
                "X": {"prefix": [], "tail": {"periodic": [2, 2]}}},
}
PERIODIC_RUNS = (
    ["orbit", "--diagram", "D", "--start", "P", "-N", "4"],
    ["orbit", "--diagram", "D", "--start", "P", "-N", "4", "--emit", "csv"],
    ["birkhoff", "--diagram", "D", "--function", "H", "--start", "P",
     "-N", "7"],
    ["orbit", "--diagram", "D", "--start", "R", "-N", "2"],
    ["orbit", "--diagram", "D", "--start", "X", "-N", "2"],
)

# Malformed input files, each refused by one check of the loaders or
# reported by validate: "fn-" function files, read by distributions on
# odo2; "el-" element files, read by algebra invert with --diagram odo2,
# and "own-" ones without it; "bad-" diagram files, read by validate.
_UNIT = {"level": 0, "values": {"0": "1"}}
REFUSALS = {
    "fn-bool.json": {"level": 1, "values": {"0": True}},
    "fn-value.json": {"level": 1, "values": {"0": "x"}},
    "fn-level.json": {"level": -1, "values": {}},
    "fn-index.json": {"level": 1, "values": {"a": "1"}},
    "fn-range.json": {"level": 1, "values": {"2": "1"}},
    "fn-dup.json": {"level": 1, "values": {"1": "1", "01": "2"}},
    "fn-list.json": {"level": 1, "values": [["0", "-1"], ["1", "1"]]},
    "el-list.json": [],
    "el-noalpha.json": {"coeffs": {"0": _UNIT}},
    "el-lam.json": {"alpha": 3, "lam": "x", "coeffs": {"0": _UNIT}},
    "el-shift.json": {"alpha": 3, "coeffs": {"a": _UNIT}},
    "el-dupshift.json": {"alpha": 3, "coeffs": {"1": _UNIT, "+1": _UNIT}},
    "el-coeff.json": {"alpha": 3, "coeffs": {"0": 3}},
    "own-none.json": {"alpha": 3, "coeffs": {"0": _UNIT}},
    "own-int.json": {"diagram": 2, "alpha": 3, "coeffs": {"0": _UNIT}},
    # level 2 reads one source where level 1 has two ranges, and its
    # in_order lists two vertices
    "bad-counts.json": {"levels": [
        {"num_sources": 1, "num_ranges": 2, "edges": [[0, 0], [0, 1]],
         "in_order": [[0], [1]]},
        {"num_sources": 1, "num_ranges": 1, "edges": [[0, 0]],
         "in_order": [[0], []]}]},
    "bad-edges.json": {"levels": [
        {"num_sources": 1, "num_ranges": 1, "edges": [[1, 0], [0, 1]],
         "in_order": [[0]]}]},
    # the repeating level is 3 x 2, and vertices 1 and 2 have no out-edge
    "bad-repeat.json": {"stationary": True, "levels": [
        {"num_sources": 3, "num_ranges": 2, "edges": [[0, 0], [0, 1]],
         "in_order": [[0], [1]]}]},
    "bad-nolevels.json": {"levels": []},
}

# Runs on no diagram in particular: help, parser errors, a numeric failure,
# a listing over the edge budget, a diagram file that is structurally
# broken or not JSON, start paths that are not paths, a function whose
# values span more than the floats hold, and the files of REFUSALS.
PARSER_RUNS = (
    [], ["--help"], ["nope"], ["algebra"], ["algebra", "--help"],
    ["paths", "--diagram", "odo2"],
    ["paths", "--diagram", "odo2", "--level", "x"],
    ["complex", "--diagram", "odo2", "--level", "1", "--emit", "csv"],
    ["orbit", "--diagram", "odo2", "-N"],
    ["validate", "--help"], ["paths", "--help"], ["orbit", "--help"],
    ["measure", "--help"], ["lyapunov", "--help"], ["complex", "--help"],
    ["decompose", "--help"], ["cohomology", "--help"], ["coho", "--help"],
    ["distributions", "--help"], ["solve", "--help"], ["birkhoff", "--help"],
    ["algebra", "check", "--help"], ["algebra", "invert", "--help"],
    ["solve", "--diagram", "odo2", "--function", "h1.json",
     "--alpha", "1e300"],
    ["solve", "--diagram", "odo2", "--function", "h1.json",
     "--alpha", "1022"],
    ["paths", "--diagram", "loop.json", "--level", "100000000"],
    ["validate", "--diagram", "broken.json"],
    ["measure", "--diagram", "broken.json"],
    ["validate", "--diagram", "cut.json"],
    ["orbit", "--diagram", "cut.json"],
    ["orbit", "--diagram", "fib", "--start", '{"prefix": [7], "tail": "MIN"}',
     "-N", "2"],
    ["orbit", "--diagram", "fib", "--start",
     '{"prefix": [0, 1], "tail": "MIN"}', "-N", "2"],
    # the word breaks its chain at level 2 and leaves the edge indices at 3
    ["orbit", "--diagram", "fib", "--start",
     '{"prefix": [], "tail": {"periodic": [2, 2, 7]}}', "-N", "2"],
    ["solve", "--diagram", "odo2", "--function", "h308.json",
     "--alpha", "3"],
    ["decompose", "--diagram", "odo2", "--function", "h308.json",
     "--emit", "json"],
    *(["distributions", "--diagram", "odo2", "--function", name]
      for name in REFUSALS if name.startswith("fn-")),
    *(["algebra", "invert", "--diagram", "odo2", "--element", name]
      for name in REFUSALS if name.startswith("el-")),
    *(["algebra", "invert", "--element", name]
      for name in REFUSALS if name.startswith("own-")),
    *(["validate", "--diagram", name]
      for name in REFUSALS if name.startswith("bad-")),
)


def _run(argv):
    """The exit code and the streams, as lists of lines, of one run."""
    code, out, err = replay(argv)
    return {"exit": code, "stdout": out.split("\n"),
            "stderr": err.split("\n")}


def _write(path, records):
    path.write_text(json.dumps(records, indent=1, ensure_ascii=False) + "\n")


def variants():
    """Each record's "3.13" variant: the run of this interpreter where it
    differs from the record, none where it does not."""
    for path in sorted(CORPUS.glob("*.json")):
        records = json.loads(path.read_text())
        for r in records:
            r.pop("3.13", None)
            run = _run(r["argv"])
            if run != {key: r[key] for key in run}:
                r["3.13"] = run
        _write(path, records)


def main():
    if sys.version_info >= (3, 13):
        return variants()
    kept = {(path.stem, json.dumps(r["argv"])): r["3.13"]
            for path in CORPUS.glob("*.json")
            for r in json.loads(path.read_text()) if "3.13" in r}
    if INPUTS.exists():
        shutil.rmtree(INPUTS)
    INPUTS.mkdir(parents=True)
    for old in CORPUS.glob("*.json"):
        old.unlink()
    (INPUTS / "h1.json").write_text(json.dumps(
        {"level": 1, "values": {"0": "-1", "1": "1"}}) + "\n")
    (INPUTS / "h308.json").write_text(json.dumps(
        {"level": 1, "values": {"0": -1e308, "1": 1e308}}) + "\n")
    # odo2 with an in-order that is not a permutation, and a cut file
    (INPUTS / "broken.json").write_text(json.dumps(
        {"stationary": True, "levels": [{
            "num_sources": 1, "num_ranges": 1, "edges": [[0, 0], [0, 0]],
            "in_order": [[0]]}]}) + "\n")
    (INPUTS / "cut.json").write_text('{"stationary": true, "lev')
    for name, obj in REFUSALS.items():
        (INPUTS / name).write_text(json.dumps(obj) + "\n")
    groups = {}
    for label, (ref, d) in diagrams().items():
        if d is not None:
            for name, obj in inputs(label, ref, d).items():
                (INPUTS / name).write_text(json.dumps(obj) + "\n")
        words = {"D": ref, "H": label + "-h.json", "C": label + "-cob.json",
                 "S": label + "-start.json", "E": label + "-e.json",
                 "E0": label + "-e0.json"}
        groups[label] = [[words.get(w, w) for w in argv] for argv in RUNS]
        if label in PERIODIC:
            for key, start in PERIODIC[label].items():
                words[key] = "%s-periodic-%s.json" % (label, key)
                (INPUTS / words[key]).write_text(json.dumps(start) + "\n")
            groups[label] += [[words.get(w, w) for w in argv]
                              for argv in PERIODIC_RUNS]
    groups["parser"] = [list(argv) for argv in PARSER_RUNS]
    for group, runs in groups.items():
        records = [{"argv": argv, **_run(argv)} for argv in runs]
        for r in records:
            variant = kept.get((group, json.dumps(r["argv"])))
            if variant:
                r["3.13"] = variant
        _write(CORPUS / (group + ".json"), records)
    print("%d records in %d groups" % (sum(map(len, groups.values())),
                                       len(groups)))


if __name__ == "__main__":
    main()
