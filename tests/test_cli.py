"""End-to-end command-line checks against pinned outputs.

Every golden below is asserted byte for byte: the JSON renderer sorts keys
and prints floats with repr-faithful precision, so any drift in numerics or
formatting shows up as a diff, not as a tolerance miss."""

import csv
import json
import math
import os
import pathlib
import random
import re
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from test_cohomology import _dump_diagrams
from test_scalars import sympy_value
from test_step import (_ordered, _prefixed, _random_diagram, _random_matrix,
                       _random_prefix)

import adic
from adic import algebra as alg
from adic import cli
from adic.catalog import builtin_diagram
from adic.cli import main
from adic.diagrams import (OrderedDiagram, diagram_from_json_dict, extreme,
                           make_level, path_table)
from adic.cohomology import limit_rank
from adic.errors import AdicError, AlphaOverflowError, PreconditionError
from adic.martingale import compose_phi, decompose, from_vector, lift
from adic.measures import renorm_data, xi_vector
from adic.solenoid import build_complex
from adic.solver import BirkhoffReport, chained_constant, solve


@pytest.fixture()
def work(tmp_path):
    files = {
        "h.json": {"level": 2, "values": {"0": "1/2", "1": "-1/2",
                                          "2": "1/2", "3": "-1/2"}},
        "obst.json": {"level": 0, "values": {"0": 1}},
        "fib1.json": {"level": 1, "values": {"0": "1"}},
        "f0.json": {"level": 1, "values": {"0": "4/5", "1": "1"}},
        "g0.json": {"level": 1, "values": {"0": "3/4", "1": "1"}},
        "e.json": {"diagram": "odo2", "alpha": 3,
                   "coeffs": {"0": "f0.json"}},
        "e2.json": {"diagram": "odo2", "alpha": 3,
                    "coeffs": {"0": "g0.json"}},
        "bad.json": {"levels": [{"num_sources": 1, "num_ranges": 1,
                                 "edges": [[0, 0], [0, 0]],
                                 "in_order": [[0]]}],
                     "stationary": True},
    }
    for name, payload in files.items():
        (tmp_path / name).write_text(json.dumps(payload))
    (tmp_path / "broken.json").write_text("{oops")
    return tmp_path


def run(capsys, argv):
    rc = main(argv)
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


def test_validate_builtin(capsys):
    rc, out, _ = run(capsys, ["validate", "--diagram", "odo2"])
    assert rc == 0
    assert out == ('{\n  "admissible": {\n    "perron": true,\n'
                   '    "stationary": true,\n    "unique_max_path": true,\n'
                   '    "unique_min_path": true\n  },\n'
                   '  "diagnostics": [],\n  "ok": true\n}\n')


def test_validate_reports_broken_order(capsys, work):
    rc, out, _ = run(capsys,
                     ["validate", "--diagram", str(work / "bad.json")])
    assert rc == 0
    assert out == ('{\n  "admissible": {\n    "perron": null,\n'
                   '    "stationary": null,\n    "unique_max_path": null,\n'
                   '    "unique_min_path": null\n  },\n  "diagnostics": [\n'
                   '    "level 1 vertex 0: order not a permutation"\n'
                   '  ],\n  "ok": false\n}\n')


def test_vertex_without_in_edges_is_a_parse_error(capsys, work):
    spec = {"levels": [{"num_sources": 2, "num_ranges": 2,
                        "edges": [[0, 0], [1, 0]],
                        "in_order": [[0, 1], []]}],
            "stationary": True}
    (work / "no_in.json").write_text(json.dumps(spec))
    rc, out, _ = run(capsys,
                     ["validate", "--diagram", str(work / "no_in.json")])
    assert rc == 0
    assert out == ('{\n  "admissible": {\n    "perron": null,\n'
                   '    "stationary": null,\n    "unique_max_path": null,\n'
                   '    "unique_min_path": null\n  },\n  "diagnostics": [\n'
                   '    "level 1 vertex 1: no incoming edge"\n'
                   '  ],\n  "ok": false\n}\n')
    (work / "h2.json").write_text(json.dumps(
        {"level": 1, "values": {"0": "1", "1": "2"}}))
    rc, _, err = run(capsys, ["birkhoff", "--diagram",
                              str(work / "no_in.json"), "--function",
                              str(work / "h2.json"), "-N", "7"])
    assert rc == 2
    assert "no incoming edge" in err


def test_more_vertices_than_edges_is_one_diagnostic(capsys, work):
    # every vertex needs an in-edge, so a level that claims more vertices
    # than it has edges is reported once, with no walk over its vertices
    spec = {"levels": [{"num_sources": 1, "num_ranges": 10 ** 9,
                        "edges": [[0, 0]], "in_order": [[0]]}]}
    (work / "wide.json").write_text(json.dumps(spec))
    t0 = time.perf_counter()
    rc, out, _ = run(capsys, ["validate", "--diagram",
                              str(work / "wide.json")])
    assert time.perf_counter() - t0 < 1
    assert rc == 0
    assert json.loads(out)["diagnostics"] == [
        "level 1: 1000000000 vertices but 1 edges: some vertex has no "
        "incoming edge", "level 1: in_order has wrong vertex count"]
    rc, _, err = run(capsys, ["paths", "--diagram", str(work / "wide.json"),
                              "--level", "1"])
    assert rc == 2
    assert "1000000000 vertices but 1 edges" in err


def test_paths_csv(capsys):
    rc, out, _ = run(capsys, ["paths", "--diagram", "odo2",
                              "--level", "2", "--emit", "csv"])
    assert rc == 0
    assert out == "index,edges\n0,0 0\n1,1 0\n2,0 1\n3,1 1\n"


def test_orbit_csv(capsys):
    rc, out, _ = run(capsys, ["orbit", "--diagram", "odo2",
                              "-N", "4", "--emit", "csv"])
    assert rc == 0
    assert out == ("n,edges\n0,0 0 0\n1,1 0 0\n2,0 1 0\n"
                   "3,1 1 0\n4,0 0 1\n")


@pytest.mark.parametrize("start", [
    '{"prefix": [0, 7], "tail": "MIN"}',           # edge index out of range
    '{"prefix": [0], "tail": {"periodic": [9]}}',  # periodic word out of range
    '{"prefix": [0, 1], "tail": "MIN"}',           # edges do not chain
])
def test_orbit_rejects_bad_start(capsys, start):
    rc, out, err = run(capsys, ["orbit", "--diagram", "fib",
                                "--start", start, "-N", "2"])
    assert (rc, out) == (2, "")
    assert err.startswith("error: ")


@pytest.mark.parametrize("start", [
    '{"prefix": [0, 2], "tail": "MIN"}',
    '{"prefix": [1], "tail": {"periodic": [0, 5]}}',
])
def test_birkhoff_rejects_bad_start(capsys, work, start):
    rc, out, err = run(capsys, ["birkhoff", "--diagram", "odo2",
                                "--function", str(work / "h.json"),
                                "--start", start, "-N", "8"])
    assert (rc, out) == (2, "")
    assert err.startswith("error: ")


def _odo2_spec(level=(), **top):
    """odo2 as a diagram file, with some entries of its level or of the
    file replaced."""
    return dict({"levels": [dict({
        "num_sources": 1, "num_ranges": 1, "edges": [[0, 0], [0, 0]],
        "in_order": [[0, 1]]}, **dict(level))], "stationary": True}, **top)


@pytest.mark.parametrize("start", [
    {"prefix": [0.9], "tail": "MIN"},
    {"prefix": ["1"], "tail": "MIN"},
    {"prefix": [True], "tail": "MIN"},
    {"prefix": [], "tail": {"periodic": [1.5]}},
])
def test_path_files_take_json_integers_only(capsys, start):
    # int() would read each of these as an edge index
    rc, out, err = run(capsys, ["orbit", "--diagram", "odo2", "--start",
                                json.dumps(start), "-N", "1"])
    assert (rc, out) == (2, "")
    assert err.startswith("error: malformed path: ")


@pytest.mark.parametrize("spec", [
    _odo2_spec({"edges": [[0.5, 0], [0, 0]]}),
    _odo2_spec({"num_sources": 1.0}),
    _odo2_spec({"in_order": [[0, "1"]]}),
    _odo2_spec({"in_order": [[False, 1]]}),
    _odo2_spec(stationary="false"),
    _odo2_spec(stationary=1),
])
def test_diagram_files_take_json_integers_only(capsys, tmp_path, spec):
    # int() and bool() would read each of these as another diagram
    path = tmp_path / "d.json"
    path.write_text(json.dumps(spec))
    for argv in (["validate"], ["paths", "--level", "1"]):
        rc, out, err = run(capsys, argv + ["--diagram", str(path)])
        assert (rc, out) == (2, "")
        assert err.startswith("error: malformed diagram: ")
    path.write_text(json.dumps(_odo2_spec()))
    assert run(capsys, ["validate", "--diagram", str(path)]) == (0, (
        '{\n  "admissible": {\n    "perron": true,\n'
        '    "stationary": true,\n    "unique_max_path": true,\n'
        '    "unique_min_path": true\n  },\n'
        '  "diagnostics": [],\n  "ok": true\n}\n'), "")


@pytest.mark.parametrize("command", [
    ["orbit"],
    ["birkhoff", "--function", "fib1.json"],
])
@pytest.mark.parametrize("word", [[2, 2], [2]])
def test_non_chaining_periodic_start_is_rejected(capsys, work, command, word):
    # on fib, edge 0 and edge 2 both leave vertex 0, but edge 2 ends at
    # vertex 1, so the word cannot follow itself
    argv = [str(work / a) if a.endswith(".json") else a for a in command]
    start = json.dumps({"prefix": [0], "tail": {"periodic": word}})
    rc, out, err = run(capsys, argv + ["--diagram", "fib", "--start", start,
                                       "-N", "1"])
    assert (rc, out, err) == (2, "", "error: periodic tail does not chain\n")


LYAPUNOV_FIB = """\
{
  "certificates": {
    "roof_residual": 0,
    "stationary_exact": true
  },
  "exact": true,
  "exponent": 0.48121182505960347,
  "lambda_mu": 1.6180339887498949,
  "roof": [
    1.1708203932499368,
    0.72360679774997894
  ],
  "xi": {
    "0": [
      0.6180339887498949,
      0.38196601125010515
    ],
    "1": [
      0.38196601125010515,
      0.23606797749978969
    ],
    "2": [
      0.23606797749978969,
      0.14589803375031546
    ],
    "3": [
      0.14589803375031546,
      0.090169943749474235
    ]
  }
}
"""


def test_lyapunov_golden_and_deterministic(capsys):
    rc, out, _ = run(capsys, ["lyapunov", "--diagram", "fib"])
    assert rc == 0
    assert out == LYAPUNOV_FIB
    rc2, out2, _ = run(capsys, ["lyapunov", "--diagram", "fib"])
    assert rc2 == 0 and out2 == out


def test_fib_measure_is_correctly_rounded_at_depth(capsys):
    # every cylinder of positive measure prints a positive weight, the
    # weights fall strictly with the level, and each is the correctly
    # rounded float of the exact weight
    fib = builtin_diagram("fib")
    rc, out, _ = run(capsys, ["measure", "--diagram", "fib", "--level", "40"])
    assert rc == 0
    xi = json.loads(out)["xi"]
    assert sorted(map(int, xi)) == list(range(41))
    for k in range(41):
        assert all(x > 0 for x in xi[str(k)])
        if k:
            assert all(a < b for a, b in zip(xi[str(k)], xi[str(k - 1)]))
        assert xi[str(k)] == [float(sympy_value(x))
                              for x in xi_vector(fib, k)]


def test_measure_exact_doubling(capsys):
    rc, out, _ = run(capsys, ["measure", "--diagram", "odo2",
                              "--level", "1"])
    assert rc == 0
    assert out == """\
{
  "certificates": {
    "roof_residual": 0,
    "stationary_exact": true
  },
  "exact": true,
  "exponent": 0.69314718055994529,
  "lambda_mu": 2,
  "roof": [
    "1"
  ],
  "xi": {
    "0": [
      "1"
    ],
    "1": [
      "1/2"
    ]
  }
}
"""


def test_complex_json(capsys):
    rc, out, _ = run(capsys, ["complex", "--diagram", "odo2",
                              "--level", "1"])
    assert rc == 0
    data = json.loads(out)
    assert data == {"classes": [[["-", 0], ["+", 0]]],
                    "diameter": 0.5,
                    "end_class": [0],
                    "euler_characteristic": 0,
                    "glued_pairs": [[0, 0]],
                    "lengths": [1],
                    "level": 1,
                    "num_edges": 1,
                    "start_class": [0],
                    "total_length": 1}


def test_complex_dot(capsys):
    rc, out, _ = run(capsys, ["complex", "--diagram", "fib",
                              "--level", "1", "--emit", "dot"])
    assert rc == 0
    assert out == ("digraph approx {\n"
                   "  graph [rankdir=LR];\n"
                   "  c0 [label=\"class 0\"];\n"
                   "  c0 -> c0 [label=\"e0 len=1.17082\"];\n"
                   "  c0 -> c0 [label=\"e1 len=0.723607\"];\n"
                   "}\n")


def test_decompose_csv(capsys, work):
    rc, out, _ = run(capsys, ["decompose", "--diagram", "odo2",
                              "--function", str(work / "h.json")])
    assert rc == 0
    assert out == ("level,peak,c0_norm,c1_norm\n"
                   "0,0,0,0\n"
                   "1,0.5,2.734375,49.691802527495582\n"
                   "2,0,0,0\n")


def test_cohomology_and_alias(capsys):
    rc, out, _ = run(capsys, ["cohomology", "--diagram", "odo2"])
    assert rc == 0
    data = json.loads(out)
    assert data["d"] == 1 and data["k_prime"] == 0 and data["stabilized"]
    assert data["per_level_dims"] == [1] * 9 and data["ranks"] == [1, 1]
    rc2, out2, _ = run(capsys, ["coho", "--diagram", "fib"])
    assert rc2 == 0
    rc3, out3, _ = run(capsys, ["cohomology", "--diagram", "fib"])
    assert out2 == out3
    assert json.loads(out2)["d"] == 2


def test_max_level_zero_and_negative(capsys, work):
    # --max-level is the range of `per_level_dims` of `cohomology` only
    rc, out, _ = run(capsys, ["cohomology", "--diagram", "fib",
                              "--max-level", "0"])
    assert rc == 0
    assert json.loads(out)["per_level_dims"] == [2]
    rc, out, err = run(capsys, ["cohomology", "--diagram", "odo2",
                                "--max-level", "-1"])
    assert (rc, out) == (2, "")
    assert err == "error: max level must be >= 0, got -1\n"
    # no other command takes a level bound, and distributions are read at
    # no chosen level
    for command, flag in (("distributions", "--max-level"),
                          ("solve", "--max-level"),
                          ("distributions", "--level")):
        with pytest.raises(SystemExit) as exc:
            main([command, "--diagram", "odo2",
                  "--function", str(work / "h.json"), flag, "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: %s" % flag in capsys.readouterr().err


def test_functions_of_any_level_are_read(capsys, tmp_path):
    # a level-9 coboundary on odo2, 512 values, is read and solved at its
    # own level
    (tmp_path / "h9.json").write_text(json.dumps(
        {"level": 9, "values": {"0": "1", "511": "-1"}}))
    argv = ["--diagram", "odo2", "--function", str(tmp_path / "h9.json")]
    rc, out, _ = run(capsys, ["distributions"] + argv)
    assert rc == 0
    assert json.loads(out) == {"D": [0], "coboundary": True,
                               "exact_zero": [True]}
    rc, out, _ = run(capsys, ["solve"] + argv)
    assert rc == 0
    data = json.loads(out)
    assert (data["level"], data["residual"]) == (9, 0)


def test_distributions_coboundary(capsys, work):
    rc, out, _ = run(capsys, ["distributions", "--diagram", "odo2",
                              "--function", str(work / "h.json")])
    assert rc == 0
    assert out == ('{\n  "D": [\n    0\n  ],\n  "coboundary": true,\n'
                   '  "exact_zero": [\n    true\n  ]\n}\n')


def test_distributions_are_exact_on_a_roof_with_a_zero_entry(capsys,
                                                            tmp_path):
    # the exact roof of `_prefixed(pisot31)` is (3/2, 0): every numerator of
    # a true coboundary is an exact zero, and h + 1 pairs to 0 with the
    # second distribution only
    d = _prefixed(builtin_diagram("pisot31"))
    g0 = from_vector(d, 2, [Fraction(i % 3, 2) for i in range(12)])
    moved = compose_phi(d, g0, 1)
    h = [a - b for a, b in zip(moved.values,
                               lift(d, g0, moved.level).values, strict=True)]
    (tmp_path / "d.json").write_text(json.dumps(d.to_json_dict()))
    for name, f in (("h.json", h), ("h1.json", [v + 1 for v in h])):
        values = {str(i): str(v) for i, v in enumerate(f)}
        (tmp_path / name).write_text(json.dumps({"level": moved.level,
                                                 "values": values}))
    verdicts = []
    for name, zeros in (("h.json", [True, True]), ("h1.json", [False, True])):
        rc, out, _ = run(capsys, ["distributions", "--diagram",
                                  str(tmp_path / "d.json"), "--function",
                                  str(tmp_path / name)])
        assert rc == 0
        data = json.loads(out)
        assert data["exact_zero"] == zeros
        verdicts.append(data["coboundary"])
    assert verdicts == [True, False]


SOLVE_GOLDEN = """\
{
  "chained_constant": {
    "bump_factor": 14945.364244409573,
    "constant": 16689.193836204184,
    "mean_variation_factor": 0.5,
    "return_factor": 2.2333606010903218
  },
  "g": {
    "level": 2,
    "values": {
      "0": "-1/4",
      "1": "1/4",
      "2": "-1/4",
      "3": "1/4"
    }
  },
  "gauge": "1/4",
  "level": 2,
  "norms": {
    "g_norm": 0.75,
    "h_norm": 1.5,
    "k_ratio": 0.5
  },
  "residual": 0
}
"""


def test_solve_golden(capsys, work):
    rc, out, _ = run(capsys, ["solve", "--diagram", "odo2",
                              "--function", str(work / "h.json"),
                              "--alpha", "3", "--eps", "0.25"])
    assert rc == 0
    assert out == SOLVE_GOLDEN


def test_solve_obstructed_exit_code(capsys, work):
    rc, out, err = run(capsys, ["solve", "--diagram", "odo2",
                                "--function", str(work / "obst.json")])
    assert rc == 3
    assert out == ""
    assert err == "error: obstructed: D = [1.0]\n"


@pytest.mark.parametrize("alpha", ["2000", "1e308"])
def test_solve_alpha_that_overflows_is_a_numeric_error(capsys, work, alpha):
    # lam ** alpha overflows the float norms; --alpha 400 still fits
    argv = ["solve", "--diagram", "odo2", "--function", str(work / "h.json")]
    rc, out, err = run(capsys, argv + ["--alpha", alpha])
    assert (rc, out) == (4, "")
    assert err == "error: alpha %s overflows the float norms\n" % float(alpha)
    rc, out, err = run(capsys, argv + ["--alpha", "400"])
    assert (rc, err) == (0, "")
    assert json.loads(out)["chained_constant"]["bump_factor"] > 1e123


def test_solve_near_the_float_limit_prints_json_or_exits_4(capsys, work):
    # lam ** alpha = 2 ** alpha fits up to alpha 1023, but the bump factor
    # 2 lam^alpha cr_norm(1) / ... overflows from about 1014, and the
    # weight 2^alpha times the level-1 oscillation 2 of the level-2 h at
    # 1023: a product beyond the floats is the same overflow as a power, so
    # no run prints inf, which is not JSON, and solve's own norms are
    # finite or refused
    d = builtin_diagram("odo2")
    tower = limit_rank(d, renorm_data(d))
    printed = set()
    for level, values in ((1, [-1, 1]), (2, [-1, 1, 1, -1])):
        path = work / ("sweep%d.json" % level)
        path.write_text(json.dumps({"level": level, "values": {
            str(i): str(v) for i, v in enumerate(values)}}))
        h = from_vector(d, level, [Fraction(v) for v in values])
        for alpha in range(1000, 1031):
            rc, out, err = run(capsys, ["solve", "--diagram", "odo2",
                                        "--function", str(path),
                                        "--alpha", str(alpha)])
            if rc == 4:
                assert (out, err) == ("", "error: alpha %s overflows the "
                                      "float norms\n" % float(alpha))
            else:
                assert (rc, err) == (0, "")
                assert json.loads(out)["level"] == level
                printed.add(alpha)
            try:
                norms = solve(h, tower, alpha=alpha).norms
            except AlphaOverflowError:
                continue
            assert all(map(math.isfinite, norms.values())), (level, alpha)
    assert 1000 in printed and 1022 not in printed


def test_algebra_alpha_that_overflows_is_a_numeric_error(capsys, work):
    # the weights 2^alpha of the crossed-product norms overflow, as
    # lam ** alpha does for solve; invert reads --alpha as a Fraction
    (work / "e1.json").write_text(json.dumps(
        {"diagram": "odo2", "alpha": 3, "coeffs": {
            "0": "f0.json", "1": {"level": 0, "values": {"0": "1/50"}}}}))
    for argv, shown in (
            (["invert", "--element", str(work / "e1.json"), "--tol", "0.01"],
             "2000"),
            (["check", "--diagram", "pisot31", "--trials", "1"], "2000.0")):
        rc, out, err = run(capsys, ["algebra"] + argv + ["--alpha", "2000"])
        assert (rc, out) == (4, "")
        assert err == "error: alpha %s overflows the float norms\n" % shown


def test_algebra_value_that_overflows_is_a_numeric_error(capsys, work):
    # "1e400" reads as an exact Fraction beyond the floats; the error names
    # the value, not the alpha that fits
    (work / "e1.json").write_text(json.dumps(
        {"diagram": "odo2", "alpha": 3, "coeffs": {
            "0": {"level": 0, "values": {"0": "1"}},
            "1": {"level": 1, "values": {"0": "1e400", "1": "-1/2"}}}}))
    rc, out, err = run(capsys, ["algebra", "invert", "--element",
                                str(work / "e1.json"), "--tol", "0.01"])
    assert (rc, out) == (4, "")
    assert err == "error: a value overflows a float\n"


@pytest.mark.parametrize("argv", [["solve"], ["distributions"], ["decompose"],
                                  ["birkhoff", "-N", "8"]])
def test_value_that_overflows_is_a_numeric_error(capsys, work, argv):
    # each command takes a float of "1e400" somewhere: the distributions of
    # the obstruction, the peaks, the mean rate
    (work / "big.json").write_text(json.dumps(
        {"level": 1, "values": {"0": "1e400", "1": "-1/2"}}))
    rc, out, err = run(capsys, argv + ["--diagram", "odo2", "--function",
                                       str(work / "big.json")])
    assert (rc, out) == (4, "")
    assert err == "error: a value overflows a float\n"


@pytest.mark.parametrize("argv", [["solve", "--alpha", "3"], ["decompose"],
                                  ["decompose", "--emit", "json"]])
def test_a_span_beyond_the_floats_is_no_alpha_overflow(capsys, work, argv):
    # both values fit a float, but max - min = 2e308 does not: solve names
    # the value, not an alpha whose weights are 1 at level 0, and decompose
    # prints no C^r norm of inf, which is not JSON
    (work / "h308.json").write_text(json.dumps(
        {"level": 1, "values": {"0": -1e308, "1": 1e308}}))
    rc, out, err = run(capsys, argv + ["--diagram", "odo2", "--function",
                                       str(work / "h308.json")])
    assert (rc, out) == (4, "")
    assert err == "error: a value overflows a float\n"


@pytest.mark.parametrize("emit, change", [
    ("json", {"mean_rate": math.inf}),
    ("json", {"sup_abs": Decimal("1e400")}),  # rendered through float()
    ("csv", {"checkpoints": ((1, 0.5), (2, math.nan))}),
])
def test_no_output_prints_a_value_beyond_the_floats(capsys, monkeypatch,
                                                     work, emit, change):
    # no command prints inf today; the renderer refuses one in either form,
    # and a CSV refused at its second row prints no first row
    report = BirkhoffReport(n_total=2, checkpoints=((1, 0.5), (2, 1.0)),
                            sup_abs=1.0, mean_rate=0.5, exponent=None,
                            r_squared=None, claimed=False)
    monkeypatch.setattr(cli, "birkhoff", lambda *args: report._replace(
        **change))
    rc, out, err = run(capsys, ["birkhoff", "--diagram", "odo2", "--function",
                                str(work / "h.json"), "-N", "2",
                                "--emit", emit])
    assert (rc, out) == (4, "")
    assert err == "error: a value overflows a float\n"


def _strict_json(text):
    """json.loads, refusing the Infinity and NaN that it accepts by
    default."""
    def refuse(name):
        raise ValueError("%s is not JSON" % name)
    return json.loads(text, parse_constant=refuse)


# alpha up to the largest float, denser where the weights of pisot31 leave
# the floats (lam is about 1.32, the distortion estimate 4.0 below); values
# m 2^e with |m| <= 1 and e up to 1023, so up to +-9e307 at every scale
BIG_ALPHAS = st.floats(2.5, 300.0) | st.floats(2.5, 4000.0) | \
    st.floats(2.5, sys.float_info.max)


@example(100.0, [1.0, -0.5, 0.75, -1.0, 0.25, 0.5, -0.25, 1.0], 250, 0).via(
    "weights that fit the floats and products with the norms that do not")
@example(2600.0, [0.5, -1.0, 1.0, -0.5, 1.0, 0.0, -1.0, 0.5], 0, 1).via(
    "lam^alpha near the float limit")
@settings(max_examples=30,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(BIG_ALPHAS, st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8),
       st.integers(-1074, 1023), st.integers(0, 2 ** 16))
def test_no_weight_reaches_stdout_beyond_the_floats(capsys, tmp_path, alpha,
                                                    mantissas, e, seed):
    # one rule for every float norm: a run prints output a reader can
    # parse, with no inf or nan in it, or refuses with an empty stdout; a
    # norm of the library is a finite float or a typed refusal
    values = [math.ldexp(m, e) for m in mantissas]
    d = builtin_diagram("pisot31")
    rd = renorm_data(d)
    f = from_vector(d, 1, [Fraction(v) / 2 for v in values])
    phi_f = compose_phi(d, f, 1)
    cob = [a - b for a, b in zip(phi_f.values,
                                 lift(d, f, phi_f.level).values)]
    files = {
        "h.json": {"level": 1, "values": {
            str(i): v for i, v in enumerate(values)}},
        "cob.json": {"level": phi_f.level, "values": {
            str(i): str(v) for i, v in enumerate(cob)}},
        "e.json": {"diagram": "pisot31", "alpha": 3, "coeffs": {
            "0": {"level": 0, "values": {"0": "1"}},
            "1": {"level": 1, "values": {
                str(i): v for i, v in enumerate(values)}}}},
    }
    for name, payload in files.items():
        (tmp_path / name).write_text(json.dumps(payload))
    a = repr(alpha)
    for argv, emit in (
            (["solve", "--diagram", "pisot31", "--function",
              str(tmp_path / "cob.json"), "--alpha", a], "json"),
            (["decompose", "--diagram", "pisot31", "--function",
              str(tmp_path / "h.json")], "csv"),
            (["decompose", "--diagram", "pisot31", "--function",
              str(tmp_path / "h.json"), "--emit", "json"], "json"),
            (["algebra", "check", "--diagram", "pisot31", "--trials", "1",
              "--seed", str(seed), "--alpha", a], "json"),
            (["algebra", "invert", "--element", str(tmp_path / "e.json"),
              "--tol", "0.01", "--alpha", a], "json")):
        rc, out, err = run(capsys, argv)
        assert rc in (0, 3, 4), (argv, rc, err)
        if not out:
            assert rc != 0 and err.startswith("error: "), (argv, rc, err)
        elif emit == "json":
            _strict_json(out)
        else:
            for row in list(csv.reader(out.splitlines()))[1:]:
                assert all(map(math.isfinite, map(float, row))), (argv, row)
    el = alg.element(d, rd.lam_float, alpha, {1: f, -2: lift(d, f, 2)})
    tower = limit_rank(d, rd)
    for call in [lambda s=s, q=q, t=t: alg.norms(el, s, q, triangle=t)
                 for s in (0, alpha) for q in (1, 2) for t in (0.5, 4.0)] + [
            lambda: alg.lemma_constant(4.0, alpha, 1),
            lambda: chained_constant(d, rd, alpha, Fraction(1, 4)),
            lambda: solve(from_vector(d, phi_f.level, cob), tower,
                          alpha=alpha).norms] + [
            lambda c=c, r=r: c.cr_norm(r, rd.lam_float)
            for c in decompose(d, f, rd) for r in (0, 1)]:
        try:
            got = call()
        except AdicError:
            continue
        floats = got.values() if isinstance(got, dict) else [got]
        assert all(math.isfinite(v) for v in floats
                   if isinstance(v, float)), got


def test_decompose_refuses_a_zero_roof(capsys, tmp_path):
    # the exact roof of `_prefixed(pisot31)` is (3/2, 0): no bump fits
    d = _prefixed(builtin_diagram("pisot31"))
    (tmp_path / "d.json").write_text(json.dumps(d.to_json_dict()))
    (tmp_path / "h.json").write_text(json.dumps(
        {"level": 1, "values": {"0": "1/2", "1": "-1/2"}}))
    rc, out, err = run(capsys, ["decompose", "--diagram",
                                str(tmp_path / "d.json"), "--function",
                                str(tmp_path / "h.json")])
    assert (rc, out) == (3, "")
    assert err == ("error: the bump needs a positive roof, got a shortest "
                   "level-0 edge of 0\n")


@pytest.mark.parametrize("command", [
    ["measure"], ["lyapunov"], ["cohomology"], ["complex", "--level", "1"],
    ["decompose", "--function"], ["distributions", "--function"],
    ["solve", "--alpha", "3", "--function"],
])
def test_the_one_edge_loop_is_refused(capsys, tmp_path, command):
    # its Perron root is 1 and its path space one point: no Cantor system
    (tmp_path / "d.json").write_text(json.dumps({
        "stationary": True, "levels": [{
            "num_sources": 1, "num_ranges": 1, "edges": [[0, 0]],
            "in_order": [[0]]}]}))
    (tmp_path / "h.json").write_text(json.dumps(
        {"level": 0, "values": {"0": "0"}}))
    if command[-1] == "--function":
        command = command + [str(tmp_path / "h.json")]
    rc, out, err = run(capsys, command[:1] + ["--diagram",
                                              str(tmp_path / "d.json")]
                       + command[1:])
    assert (rc, out) == (3, "")
    assert err == "error: the Perron root is 1: the path space is finite\n"


def test_a_periodic_repeating_matrix_is_refused(capsys, tmp_path):
    # A = [[0, 2], [2, 0]] has positive eigenvectors for lambda = 2 but
    # index of imprimitivity 2: its tail-invariant measures form a segment,
    # not the one xi = (1/2, 1/2) that a positive eigenvector would give
    (tmp_path / "d.json").write_text(json.dumps({
        "stationary": True, "levels": [{
            "num_sources": 2, "num_ranges": 2,
            "edges": [[1, 0], [1, 0], [0, 1], [0, 1]],
            "in_order": [[0, 1], [2, 3]]}]}))
    rc, out, err = run(capsys, ["measure", "--diagram",
                                str(tmp_path / "d.json"), "--level", "2"])
    assert (rc, out) == (3, "")
    assert err == "error: the repeating matrix is not primitive\n"


# primitive, but its min in-edge source map is the identity and its max
# one a swap: two minimal and two maximal paths
TWOMIN = {"stationary": True, "levels": [{
    "num_sources": 2, "num_ranges": 2,
    "edges": [[0, 0], [1, 0], [0, 1], [1, 1]], "in_order": [[0, 1], [3, 2]]}]}


def test_solve_refuses_two_minimal_paths_whatever_h(capsys, tmp_path):
    # g o phi needs phi, so the refusal comes before the certificate: for
    # h = 0, a coboundary, and for an h with D = [-1] alike
    (tmp_path / "d.json").write_text(json.dumps(TWOMIN))
    for values in ({}, {str(i): i % 3 - 1 for i in range(4)}):
        (tmp_path / "h.json").write_text(json.dumps({"level": 1,
                                                     "values": values}))
        assert run(capsys, ["solve", "--diagram", str(tmp_path / "d.json"),
                            "--function", str(tmp_path / "h.json")]) == \
            (3, "", "error: not properly ordered\n")


@pytest.mark.parametrize("diagram", ["fib", "twomin"])
def test_algebra_check_refuses_before_any_trial(capsys, tmp_path, diagram):
    # the suite composes with phi and its inverse, so a second maximal or
    # minimal path is refused with no trial run
    if diagram == "twomin":
        diagram = str(tmp_path / "d.json")
        pathlib.Path(diagram).write_text(json.dumps(TWOMIN))
    assert run(capsys, ["algebra", "check", "--diagram", diagram,
                        "--trials", "0"]) == \
        (3, "", "error: not properly ordered\n")


@pytest.mark.parametrize("diagram, lam, message", [
    ("fib", None, "not properly ordered"),
    ("twomin", None, "not properly ordered"),
    ("period2", 2, "the repeating matrix is not primitive"),
    ("nonstat", 2, "needs a stationary diagram"),
])
def test_algebra_invert_needs_every_fact_of_its_diagram(capsys, tmp_path,
                                                        diagram, lam,
                                                        message):
    # the crossed product is by phi, so invert refuses a diagram without a
    # unique extreme path or Perron data, as algebra check does, whatever
    # the shifts of the element and whether its file gives lam; the
    # diagram is the one the element file names
    specs = {"twomin": TWOMIN, "period2": {"stationary": True, "levels": [{
        "num_sources": 2, "num_ranges": 2,
        "edges": [[1, 0], [1, 0], [0, 1], [0, 1]],
        "in_order": [[0, 1], [2, 3]]}]},
        "nonstat": OrderedDiagram(builtin_diagram("fib").levels * 3)
        .to_json_dict()}
    if diagram in specs:
        (tmp_path / "d.json").write_text(json.dumps(specs[diagram]))
        diagram = str(tmp_path / "d.json")
    element = {"diagram": diagram, "alpha": 1, "coeffs": {
        "0": {"level": 0, "values": {"0": "1", "1": "1"}}}}
    if lam is not None:
        element["lam"] = lam
    (tmp_path / "e.json").write_text(json.dumps(element))
    assert run(capsys, ["algebra", "invert", "--element",
                        str(tmp_path / "e.json")]) == \
        (3, "", "error: %s\n" % message)


# A value for each flag that a row of `cli.COMMANDS` may take past
# --diagram; "F" is a function file and "E" an element file.
FLAG_VALUES = {"--level": "1", "-N": "8", "--max-level": "2",
               "--trials": "0", "--function": "F", "--element": "E"}


def test_refusals_agree_with_validate(capsys, tmp_path, golden2):
    # every command exits 3 with a decider's message exactly when
    # `validate` reports a fact it needs as false, and then with the
    # message of the first such fact: on the builtins, golden2, twomin, the
    # one-edge loop, a periodic matrix, a diagram that does not repeat, and
    # unfiltered draws, primitive or not, properly ordered or not, behind 0
    # to 2 prefix levels
    fib = builtin_diagram("fib")
    ds = [builtin_diagram(name) for name in ("odo2", "odo3", "pisot31")] + [
        fib, golden2, diagram_from_json_dict(TWOMIN),
        OrderedDiagram((make_level(1, 1, [(0, 0)], [[0]]),), True),
        OrderedDiagram((make_level(2, 2, [(1, 0), (1, 0), (0, 1), (0, 1)],
                                   [[0, 1], [2, 3]]),), True),
        OrderedDiagram(fib.levels * 3)]
    r = random.Random(50)
    ds += [_random_prefix(r, _ordered(r, _random_matrix(r, r.randint(1, 3),
                                                        6)), r.randint(0, 2))
           for _ in range(80)]
    files = {w: str(tmp_path / name) for w, name in (
        ("D", "d.json"), ("F", "h.json"), ("E", "e.json"))}
    commands = [(row, row.name.split() + ["--diagram", files["D"]] + [
        w for flag, _ in row.flags if flag in FLAG_VALUES
        for w in (flag, files.get(FLAG_VALUES[flag], FLAG_VALUES[flag]))])
        for row in cli.COMMANDS]
    deciders = dict(cli.FACTS)
    failed, refusals, passed = set(), set(), []
    for d in ds:
        pathlib.Path(files["D"]).write_text(json.dumps(d.to_json_dict()))
        pathlib.Path(files["F"]).write_text(json.dumps({"level": 1, "values": {
            str(i): i % 3 - 1 for i in range(path_table(d, 1).offsets[-1])}}))
        pathlib.Path(files["E"]).write_text(json.dumps(
            {"alpha": 3, "coeffs": {"0": {"level": 0, "values": {
                str(v): 1 for v in range(d.num_vertices(0))}}}}))
        _, out, _ = run(capsys, ["validate", "--diagram", files["D"]])
        facts = json.loads(out)["admissible"]
        for row, argv in commands:
            got = run(capsys, argv)
            fails = [fact for fact in deciders
                     if fact in row.needs and facts[fact] is False]
            if not fails:
                passed.append((argv, facts, got))
                continue
            with pytest.raises(PreconditionError) as refusal:
                deciders[fails[0]](d)
            assert got == (3, "", "error: %s\n" % refusal.value), \
                (d, argv, facts)
            failed.add(fails[0])
            refusals.add(got[2])
    for argv, facts, (rc, _, err) in passed:
        assert rc != 3 or err not in refusals, (argv, facts, err)
    assert failed == set(deciders)


def test_readme_facts_table_matches_the_command_table():
    # one README row per set of facts, its commands in backticks; every
    # row of `cli.COMMANDS` is named once, with the check marks of its
    # needs under the column of each fact
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    lines = readme.read_text().splitlines()
    top = lines.index("| command | stationary | perron | unique min path "
                      "| unique max path |")
    columns = [c.strip().replace(" ", "_")
               for c in lines[top].split("|")[2:-1]]
    assert columns == [name for name, _ in cli.FACTS]
    marked = {}
    for line in lines[top + 2:]:
        if not line.startswith("|"):
            break
        cells = line.split("|")[1:-1]
        facts = tuple(f for f, c in zip(columns, cells[1:]) if c.strip())
        assert {c.strip() for c in cells[1:]} <= {"", "✓"}, line
        for name in re.findall(r"`([a-z][a-z ]*)`", cells[0]):
            assert name not in marked, name
            marked[name] = facts
    assert marked == {row.name: row.needs for row in cli.COMMANDS}


def test_complex_refuses_negative_edge_lengths(capsys, tmp_path):
    # the level-0 tower heights of `_dump_diagrams()[20]` are unique and
    # have a negative entry, so its level-0 complex is refused; level 1, the
    # last that does not repeat, and the levels above it build
    d = _dump_diagrams()[20]
    (tmp_path / "d.json").write_text(json.dumps(d.to_json_dict()))
    rc, out, err = run(capsys, ["complex", "--diagram",
                                str(tmp_path / "d.json"), "--level", "0"])
    assert (rc, out) == (3, "")
    assert err == ("error: the level-0 complex has an edge of negative "
                   "length\n")
    rd = renorm_data(d)
    assert len(rd.heights) == 2 and min(rd.roof) < 0
    assert min(build_complex(d, rd, 1).lengths) > 0


@pytest.mark.parametrize("command, rc", [
    ("measure --diagram {d}", 3), ("lyapunov --diagram {d}", 3),
    ("complex --diagram {d} --level 0", 3),
    ("decompose --diagram {d} --function {h}", 3),
    ("solve --diagram {d} --function {h} --alpha 3", 3),
    ("complex --diagram {d} --level 1", 0), ("cohomology --diagram {d}", 0),
    ("distributions --diagram {d} --function {h}", 0),
    ("solve --diagram {d} --function {h}", 0),
    ("birkhoff --diagram {d} --function {h} -N 9", 0),
    ("algebra check --diagram {d} --trials 1", 0),
])
def test_heights_below_the_repeating_levels_refuse_when_read(
        capsys, tmp_path, command, rc):
    # the first level of `_dump_diagrams()[18]` has rank 2, so its level-0
    # tower heights are not fixed by those of level 1: the commands that
    # read the roof exit 3 and name both levels, and the rest read no
    # heights, so they solve h = 0 or print what they print elsewhere
    d, h = tmp_path / "d.json", tmp_path / "h.json"
    d.write_text(json.dumps(_dump_diagrams()[18].to_json_dict()))
    h.write_text(json.dumps({"level": 1, "values": {}}))
    got, out, err = run(capsys, [a.format(d=d, h=h)
                                 for a in command.split()])
    assert got == rc, err
    if rc:
        assert out == ""
        assert err == ("error: the level-0 tower heights are not fixed by "
                       "those of level 1, the last level that does not "
                       "repeat\n")


# two `_prefixed` 3-vertex diagrams whose first level has rank 2, so their
# level-0 tower heights are not fixed and reading them refuses; the Gram
# weights are the level-1 path counts, so they read no tower height
_PREFIX_LEVEL = {"num_sources": 3, "num_ranges": 3,
                 "edges": [[0, 0], [1, 0], [2, 0], [0, 1], [0, 2]],
                 "in_order": [[0, 1, 2], [3], [4]]}


@pytest.mark.parametrize("level", [
    {"edges": [[0, 0], [1, 0], [2, 1], [0, 2], [2, 2], [2, 2]],
     "in_order": [[0, 1], [2], [3, 5, 4]]},
    {"edges": [[0, 0], [2, 0], [0, 1], [1, 1], [1, 1], [0, 2], [1, 2]],
     "in_order": [[1, 0], [3, 4, 2], [6, 5]]},
])
def test_distributions_need_no_positive_tower_lengths(capsys, tmp_path,
                                                      level):
    # h = 1 on vertex 0 has a positive mean, so it is no coboundary and
    # its measure component D_1 is not 0
    spec = {"stationary": True, "levels": [
        _PREFIX_LEVEL, dict(level, num_sources=3, num_ranges=3)]}
    (tmp_path / "d.json").write_text(json.dumps(spec))
    (tmp_path / "h.json").write_text(json.dumps(
        {"level": 0, "values": {"0": "1"}}))
    rc, out, err = run(capsys, ["distributions", "--diagram",
                                str(tmp_path / "d.json"), "--function",
                                str(tmp_path / "h.json")])
    assert (rc, err) == (0, "")
    report = json.loads(out)
    assert report["coboundary"] is False
    assert report["D"][0] != 0 and report["exact_zero"][0] is False


@pytest.mark.parametrize("command, code", [
    ("decompose", 0), ("distributions", 0),
    ("solve", 3),  # this h is no coboundary
])
def test_float_values_on_quadratic_diagram(capsys, tmp_path, command, code):
    # float values are read as the dyadic rationals they are, so fib's
    # weights in Q(sqrt 5) meet exact values
    f = tmp_path / "hf.json"
    f.write_text(json.dumps({"level": 2, "values": {
        "0": 0.5, "1": -0.25, "2": 1.5, "3": 0.75, "4": -1.0}}))
    rc, out, err = run(capsys, [command, "--diagram", "fib",
                                "--function", str(f)])
    assert rc == code
    if code:
        assert out == "" and err.startswith("error: obstructed: D = [")
    else:
        assert out and err == ""


@pytest.mark.parametrize("command", ["distributions", "solve", "birkhoff"])
@pytest.mark.parametrize("level", [1.5, 1.0, True, "2", -1, None, [1]])
def test_function_level_must_be_a_json_integer(capsys, tmp_path, command,
                                               level):
    # a level is read as it is written, never rounded or converted
    f = tmp_path / "h.json"
    f.write_text(json.dumps({"level": level, "values": {"0": "1"}}))
    argv = [command, "--diagram", "odo2", "--function", str(f)]
    rc, out, err = run(capsys, argv + ["-N", "4"] if command == "birkhoff"
                       else argv)
    assert (rc, out) == (2, "")
    assert err == "error: function level must be an integer >= 0, got %r\n" \
        % (level,)


def test_float_values_solve_exactly(capsys, tmp_path):
    # 0.5 and -0.5 are read exactly, so this true coboundary is solved with
    # a zero residual, as it is from "1/2" and "-1/2"
    f = tmp_path / "hf.json"
    f.write_text(json.dumps({"level": 1, "values": {"0": 0.5, "1": -0.5}}))
    rc, out, err = run(capsys, ["solve", "--diagram", "odo2",
                                "--function", str(f)])
    assert (rc, err) == (0, "")
    assert json.loads(out)["residual"] == 0
    for bad in (float("nan"), float("inf")):
        f.write_text(json.dumps({"level": 1, "values": {"0": bad}}))
        rc, out, err = run(capsys, ["solve", "--diagram", "odo2",
                                    "--function", str(f)])
        assert (rc, out) == (2, "")
        assert err.startswith("error: unsupported function value")


def test_birkhoff_csv(capsys, work):
    rc, out, _ = run(capsys, ["birkhoff", "--diagram", "odo2",
                              "--function", str(work / "h.json"),
                              "-N", "8", "--emit", "csv"])
    assert rc == 0
    assert out == "n,S_n\n1,1/2\n2,0\n4,0\n8,0\n"


def test_missing_file_exit_code(capsys, work):
    rc, _, err = run(capsys, ["validate", "--diagram",
                              str(work / "nope.json")])
    assert rc == 2
    assert "No such file" in err


def test_malformed_json_exit_code(capsys, work):
    rc, _, err = run(capsys, ["solve", "--diagram", "odo2",
                              "--function", str(work / "broken.json")])
    assert rc == 2
    assert "malformed" in err


def test_algebra_check_golden(capsys):
    rc, out, _ = run(capsys, ["algebra", "check", "--diagram", "odo2",
                              "--seed", "7", "--trials", "2"])
    assert rc == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert data["failures"] == []
    assert data["triangle"] == 1
    assert data["seed"] == 7 and data["trials"] == 2
    assert set(data["checks"]) == {
        "associativity", "involution_antihom", "involution_norm",
        "involution_squared", "jolissaint_n1", "jolissaint_n2",
        "l1_product", "product_norm", "tail_le_norm",
        "trace_commutator", "trace_positive"}
    assert all(v == 2 for v in data["checks"].values())


def test_a_failed_algebra_check_exits_4(capsys, monkeypatch):
    # the suite runs to the end and names each check that failed, once per
    # trial, and a failed suite exits 4
    original = adic.algebra.check_trial

    def broken(*args):
        for name, ok in original(*args):
            yield name, ok and name != "associativity"

    monkeypatch.setattr(adic.algebra, "check_trial", broken)
    rc, out, _ = run(capsys, ["algebra", "check", "--diagram", "odo2",
                              "--seed", "7", "--trials", "2"])
    assert rc == 4
    data = json.loads(out)
    assert data["ok"] is False
    assert data["failures"] == ["associativity", "associativity"]
    assert data["checks"]["associativity"] == 2


def test_algebra_check_exponential_regime(capsys):
    rc, out, _ = run(capsys, ["algebra", "check", "--diagram", "pisot31",
                              "--seed", "3", "--trials", "8"])
    assert rc == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert data["triangle"] == 4
    assert "norm_le_tail" in data["checks"]


def test_algebra_check_sweeps_past_the_prefix(capsys, tmp_path):
    # two prefix levels before the repeating one: the sweep at L = 3 read
    # 1.7549, and 18 norm inequalities failed at that estimate
    levels = [
        {"num_sources": 1, "num_ranges": 3,
         "edges": [[0, 1], [0, 1], [0, 2], [0, 0]],
         "in_order": [[3], [0, 1], [2]]},
        {"num_sources": 3, "num_ranges": 3,
         "edges": [[0, 2], [2, 0], [2, 2], [0, 2], [1, 2], [1, 1], [0, 0],
                   [0, 1]],
         "in_order": [[6, 1], [5, 7], [0, 4, 2, 3]]},
        {"num_sources": 3, "num_ranges": 3,
         "edges": [[0, 0], [1, 0], [1, 1], [2, 1], [0, 2]],
         "in_order": [[1, 0], [2, 3], [4]]}]
    (tmp_path / "b.json").write_text(json.dumps({"stationary": True,
                                                 "levels": levels}))
    rc, out, _ = run(capsys, ["algebra", "check", "--diagram",
                              str(tmp_path / "b.json"), "--trials", "25"])
    data = json.loads(out)
    assert (rc, data["failures"]) == (0, [])
    assert data["triangle"] == pytest.approx(5.4043, abs=1e-4)


def test_algebra_invert_golden(capsys, work):
    rc, out, _ = run(capsys, ["algebra", "invert",
                              "--element", str(work / "e.json"),
                              "--tol", "0.01"])
    assert rc == 0
    assert out == """\
{
  "coeffs": {
    "0": {
      "level": 1,
      "values": {
        "0": "781/625",
        "1": "1"
      }
    }
  },
  "mu": {
    "1": 0,
    "2": 0,
    "4": 0
  },
  "residual": 0.00064000000000000005,
  "support": [
    0
  ],
  "terms": 4
}
"""


def test_algebra_invert_pisot31_golden(capsys, tmp_path):
    # shifts -1 and 1 on pisot31, where levels rise with the shift;
    # `invert_pisot31_golden.json` holds 1 + f + f^2, which the Fraction
    # products and Hoelder norms of `bench/oracles.py` reproduce, residual
    # included
    one = {str(i): "1" for i in range(8)}
    one.update({"2": "99999/100000", "5": "100001/100000"})
    (tmp_path / "h.json").write_text(json.dumps(
        {"diagram": "pisot31", "alpha": 2, "coeffs": {
            "-1": {"level": 2, "values": {"0": "1/400000", "3": "-1/700000",
                                          "5": "1/300000"}},
            "0": {"level": 1, "values": one},
            "1": {"level": 1, "values": {"0": "-1/300000", "1": "1/200000",
                                         "2": "-1/500000"}}}}))
    rc, out, _ = run(capsys, ["algebra", "invert", "--element",
                              str(tmp_path / "h.json"), "--tol", "1e-4"])
    assert rc == 0
    golden = pathlib.Path(__file__).with_name("invert_pisot31_golden.json")
    assert out == golden.read_text()


def test_algebra_invert_readme_inline_coefficient(capsys, tmp_path):
    # the README's element, its f0.json the unit: one coefficient a file,
    # one inline; it reads as the same element with both in files
    inline = {"level": 0, "values": {"0": "1/50"}}
    (tmp_path / "f0.json").write_text(json.dumps(
        {"level": 1, "values": {"0": "1", "1": "1"}}))
    (tmp_path / "c1.json").write_text(json.dumps(inline))
    (tmp_path / "readme.json").write_text(json.dumps(
        {"diagram": "odo2", "alpha": 3,
         "coeffs": {"0": "f0.json", "1": inline}}))
    (tmp_path / "filed.json").write_text(json.dumps(
        {"diagram": "odo2", "alpha": 3,
         "coeffs": {"0": "f0.json", "1": "c1.json"}}))
    outs = []
    for name in ("readme.json", "filed.json"):
        rc, out, _ = run(capsys, ["algebra", "invert", "--element",
                                  str(tmp_path / name), "--tol", "0.01"])
        assert rc == 0
        outs.append(out)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["coeffs"]["1"] == {"level": 0,
                                                   "values": {"0": "-1/50"}}


def test_algebra_invert_bad_coefficient_ref_exit_code(capsys, work):
    (work / "bad.json").write_text(json.dumps(
        {"diagram": "odo2", "alpha": 3,
         "coeffs": {"0": "f0.json", "1": 5}}))
    rc, out, err = run(capsys, ["algebra", "invert", "--element",
                                str(work / "bad.json"), "--tol", "0.01"])
    assert rc == 2
    assert out == ""
    assert "neither a function file nor a function object" in err


def test_algebra_invert_tight_tolerance(capsys, work):
    rc, out, _ = run(capsys, ["algebra", "invert",
                              "--element", str(work / "e.json"),
                              "--tol", "1e-10"])
    assert rc == 0
    data = json.loads(out)
    assert data["terms"] == 15
    assert data["residual"] <= 1e-10
    assert data["support"] == [0]


def test_algebra_invert_rejects_large_norm(capsys, work):
    rc, _, err = run(capsys, ["algebra", "invert",
                              "--element", str(work / "e2.json"),
                              "--tol", "1e-10"])
    assert rc == 3
    assert "norm too large" in err


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf", "1e-400"])
def test_algebra_invert_rejects_bad_tolerance(capsys, work, tol):
    rc, out, err = run(capsys, ["algebra", "invert",
                                "--element", str(work / "e.json"),
                                "--tol", tol])
    assert (rc, out) == (2, "")
    assert "tol must be finite and > 0" in err


@pytest.mark.parametrize("flags", [["--alpha", "nan"], ["--alpha", "-1"],
                                   ["--alpha", "inf"], ["--trials", "-2"]])
def test_algebra_check_rejects_bad_numbers(capsys, flags):
    rc, out, err = run(capsys, ["algebra", "check", "--diagram", "odo2"]
                       + flags)
    assert (rc, out) == (2, "")
    assert flags[0][2:] in err


@pytest.mark.parametrize("argv, name", [
    (["solve", "--alpha", "3", "--eps", "nan"], "eps"),
    (["solve", "--alpha", "3", "--eps", "inf"], "eps"),
    (["solve", "--alpha", "3", "--eps", "0"], "eps"),
    (["solve", "--alpha", "3", "--eps", "-1"], "eps"),
    # rounds to 0 at the denominator bound of 10**6
    (["solve", "--alpha", "3", "--eps", "1e-9"], "eps"),
    (["solve", "--eps", "nan"], "eps"),
    (["solve", "--alpha", "1"], "alpha"),
    (["solve", "--alpha", "nan"], "alpha"),
    (["solve", "--alpha", "-3"], "alpha"),
    (["solve", "--alpha", "3", "--eps", "5"], "alpha"),
    (["birkhoff", "-N", "0"], "N"),
    (["orbit", "-N", "-1"], "N"),
    (["complex", "--level", "-1"], "level"),
    (["measure", "--level", "-1"], "level"),
    (["paths", "--level", "-1"], "level"),
])
def test_numeric_flags_are_checked(capsys, work, argv, name):
    flags = ["--diagram", "odo2"]
    if argv[0] in ("solve", "birkhoff"):
        flags += ["--function", str(work / "h.json")]
    rc, out, err = run(capsys, argv[:1] + flags + argv[1:])
    assert (rc, out) == (2, "")
    assert err.startswith("error: %s must be " % name)


@pytest.mark.parametrize("change, message", [
    ({"coeffs": {"a": "f0.json"}}, "shift 'a' is not an integer"),
    ({"lam": "x"}, "unsupported lam 'x'"),
    ({"alpha": -3}, "alpha must be finite and > 0"),
    ({"lam": 0}, "lam must be finite and > 0"),
])
def test_element_file_rejects_bad_entries(capsys, work, change, message):
    spec = {"diagram": "odo2", "alpha": 3, "coeffs": {"0": "f0.json"}}
    spec.update(change)
    (work / "bad_e.json").write_text(json.dumps(spec))
    rc, out, err = run(capsys, ["algebra", "invert",
                                "--element", str(work / "bad_e.json")])
    assert (rc, out) == (2, "")
    assert message in err


@pytest.mark.parametrize("first, second", [("1", "01"), ("01", "1"),
                                           ("1", "+1"), ("-2", "-02")])
def test_element_file_rejects_two_keys_of_one_shift(capsys, work, first,
                                                    second):
    # the later coefficient would replace the earlier one without a word:
    # with 1/10 at the second key the element is refused as too large for
    # the Neumann series, with 1/50 alone it inverts
    spec = {"diagram": "odo2", "alpha": 3, "coeffs": {
        "0": {"level": 0, "values": {"0": "1"}},
        first: {"level": 0, "values": {"0": "1/50"}},
        second: {"level": 0, "values": {"0": "1/10"}}}}
    (work / "twice.json").write_text(json.dumps(spec))
    rc, out, err = run(capsys, ["algebra", "invert", "--element",
                                str(work / "twice.json"), "--tol", "0.01"])
    assert (rc, out) == (2, "")
    assert err == "error: shifts %r and %r are both shift %d\n" % (
        first, second, int(first))


@pytest.mark.parametrize("first, second", [("1", "01"), ("01", "1"),
                                           ("1", "+1"), ("0", "-0")])
def test_function_file_rejects_two_keys_of_one_index(capsys, work, first,
                                                     second):
    # the later value would replace the earlier one without a word, so the
    # order of the keys would decide D
    spec = {"level": 1, "values": {first: "1/2", second: "3"}}
    (work / "twice_f.json").write_text(json.dumps(spec))
    rc, out, err = run(capsys, ["distributions", "--diagram", "odo2",
                                "--function", str(work / "twice_f.json")])
    assert (rc, out) == (2, "")
    assert err == "error: indices %r and %r are both index %d\n" % (
        first, second, int(first))


@pytest.mark.parametrize("values, kind", [
    ([["0", "-1"], ["1", "1"]], "list"), ("ab", "str"), (None, "NoneType")])
def test_function_values_must_be_an_object(capsys, work, values, kind):
    # dict() would read a list of pairs as the mapping it spells
    (work / "list_f.json").write_text(json.dumps({"level": 1,
                                                  "values": values}))
    rc, out, err = run(capsys, ["distributions", "--diagram", "odo2",
                                "--function", str(work / "list_f.json")])
    assert (rc, out) == (2, "")
    assert err == "error: function values must be an object, not %s\n" % kind


def test_element_with_lam_below_one_is_refused(capsys, work):
    # the Hoelder norms of the coefficients read the path space as
    # ultrametric, cylinders shrinking like lam^-j: that needs lam >= 1
    spec = {"diagram": "odo2", "alpha": 3, "lam": "1/2",
            "coeffs": {"0": "f0.json"}}
    (work / "half.json").write_text(json.dumps(spec))
    rc, out, err = run(capsys, ["algebra", "invert",
                                "--element", str(work / "half.json")])
    assert (rc, out) == (3, "")
    assert err.startswith("error: the Hoelder norm needs alpha >= 0 and "
                          "lam >= 1")


@pytest.mark.parametrize("spec, message", [
    ([], "an element file is an object"),
    ({"diagram": "odo2", "alpha": 3, "coeffs": [1, 2]},
     "an element file is an object with an object of coeffs"),
    ({"diagram": ["odo2"], "alpha": 3, "coeffs": {}},
     "element diagram ['odo2'] is not a name or a path"),
    # a file descriptor: open(0) would read the diagram from stdin
    ({"diagram": 0, "alpha": 3, "coeffs": {}},
     "element diagram 0 is not a name or a path"),
], ids=["list", "coeffs-list", "diagram-list", "diagram-int"])
def test_element_file_must_be_well_formed(capsys, work, spec, message):
    (work / "bad_e.json").write_text(json.dumps(spec))
    rc, out, err = run(capsys, ["algebra", "invert",
                                "--element", str(work / "bad_e.json")])
    assert (rc, out) == (2, "")
    assert message in err


# The address space of the child below: room for the interpreter and the
# package, none for the 2^40 paths that a level of 40 asks for on odo2.
CHILD_ADDRESS_SPACE = 256 << 20


@pytest.mark.parametrize("argv", [
    ["distributions", "--diagram", "odo2", "--function", "deep.json"],
    ["paths", "--diagram", "odo2", "--level", "40"],
], ids=["function-file", "level-flag"])
def test_path_budget_refuses_deep_levels(tmp_path, argv):
    (tmp_path / "deep.json").write_text(
        json.dumps({"level": 40, "values": {"0": "1"}}))
    child = ("import resource, sys\n"
             "resource.setrlimit(resource.RLIMIT_AS, (%d, %d))\n"
             "from adic.cli import main\n"
             "sys.exit(main(sys.argv[1:]))\n"
             % (CHILD_ADDRESS_SPACE, CHILD_ADDRESS_SPACE))
    src = str(pathlib.Path(adic.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", child] + argv,
                          cwd=tmp_path, capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert done.returncode == 3, done.stderr
    assert done.stderr.startswith("error: level 19 has 524288 paths")


def test_edge_budget_refuses_a_long_listing_at_once(capsys, tmp_path):
    # the one-edge loop has one path at every level: its count is fixed at
    # level 1, and a listing of 10^8 edges is refused before it is built
    (tmp_path / "loop.json").write_text(json.dumps({
        "stationary": True, "levels": [{
            "num_sources": 1, "num_ranges": 1, "edges": [[0, 0]],
            "in_order": [[0]]}]}))
    t0 = time.perf_counter()
    rc, out, err = run(capsys, ["paths", "--diagram", str(tmp_path /
                                "loop.json"), "--level", "100000000"])
    assert time.perf_counter() - t0 < 1.0
    assert (rc, out) == (3, "")
    assert err == ("error: level 100000000 lists 100000000 edges, more than "
                   "8388608\n")


@pytest.mark.parametrize("diagram, argv, level", [
    ("loop.json", ["distributions", "--function", "deep.json"], 300),
    ("odo2", ["solve", "--function", "huge.json"], 2 ** 64),
], ids=["loop-function-file", "huge-function-level"])
def test_level_budget_refuses_deeper_levels(capsys, tmp_path, monkeypatch,
                                            diagram, argv, level):
    # the one-edge loop has one path at every level, so no path count
    # refuses a deep level of it: the level budget does, before the path
    # tables below it, each built on the one below, recurse past the
    # interpreter's stack
    monkeypatch.chdir(tmp_path)
    (tmp_path / "loop.json").write_text(json.dumps({
        "stationary": True, "levels": [{
            "num_sources": 1, "num_ranges": 1, "edges": [[0, 0]],
            "in_order": [[0]]}]}))
    for name, deep in (("deep.json", 300), ("huge.json", 2 ** 64)):
        (tmp_path / name).write_text(json.dumps({"level": deep,
                                                 "values": {"0": "1"}}))
    rc, out, err = run(capsys, argv[:1] + ["--diagram", diagram] + argv[1:])
    assert (rc, out) == (3, "")
    assert err == "error: level %d is deeper than 256\n" % level


@pytest.fixture()
def non_stationary(tmp_path):
    """60 levels alternating two 2-vertex levels, not repeating, and a
    level-1 function on it."""
    a = {"num_sources": 2, "num_ranges": 2,
         "edges": [[0, 0], [1, 0], [0, 1]], "in_order": [[0, 1], [2]]}
    b = {"num_sources": 2, "num_ranges": 2,
         "edges": [[0, 0], [1, 0], [0, 1], [1, 1]],
         "in_order": [[1, 0], [2, 3]]}
    (tmp_path / "ns.json").write_text(json.dumps(
        {"levels": [a, b] * 30, "stationary": False}))
    (tmp_path / "h.json").write_text(json.dumps(
        {"level": 1, "values": {"0": "1", "1": "-1"}}))
    return tmp_path


@pytest.mark.parametrize("command", [
    ["measure"], ["lyapunov"], ["decompose", "--function", "h.json"],
    ["cohomology"], ["solve", "--function", "h.json"],
    ["complex", "--level", "1"],
])
def test_compute_commands_refuse_non_stationary(capsys, non_stationary,
                                                command):
    argv = [str(non_stationary / a) if a.endswith(".json") else a
            for a in command]
    rc, out, err = run(capsys, argv + ["--diagram",
                                       str(non_stationary / "ns.json")])
    assert (rc, out, err) == (3, "", "error: needs a stationary diagram\n")


def test_validate_and_paths_take_non_stationary(capsys, non_stationary):
    ns = str(non_stationary / "ns.json")
    rc, out, _ = run(capsys, ["validate", "--diagram", ns])
    assert (rc, out) == (0, '{\n  "admissible": {\n    "perron": null,\n'
                            '    "stationary": false,\n'
                            '    "unique_max_path": null,\n'
                            '    "unique_min_path": null\n  },\n'
                            '  "diagnostics": [],\n  "ok": true\n}\n')
    rc, out, _ = run(capsys, ["paths", "--diagram", ns, "--level", "2",
                              "--emit", "csv"])
    assert rc == 0
    assert out == ("index,edges\n0,2 1\n1,0 0\n2,1 0\n3,0 2\n"
                   "4,1 2\n5,2 3\n")


@st.composite
def _fuzz_diagrams(draw):
    """One draw of `_prefix_draws`: a `_random_diagram` on 1 to 3 vertices
    behind one or two `_random_prefix` levels."""
    r = random.Random(draw(st.integers(0, 2 ** 16)))
    return _random_prefix(r, _random_diagram(r, r.randint(1, 3), 6),
                          r.randint(1, 2))


# A value put in place of one node of an input file: wrong types, huge and
# negative integers, non-finite floats, strings and short lists.
JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3),
    st.sampled_from([2 ** 64, -2 ** 64, 10 ** 30]), st.floats(),
    st.text(max_size=3), st.lists(st.integers(-1, 3), max_size=3))


def _mutated(obj, pick, value):
    """obj with one node, the pick-th of a walk, deleted (value None) or
    replaced by value[0]."""
    obj = json.loads(json.dumps(obj))
    nodes = []

    def walk(x):
        for key in (x if isinstance(x, dict) else
                    range(len(x)) if isinstance(x, list) else ()):
            nodes.append((x, key))
            walk(x[key])
    walk(obj)
    node, key = nodes[pick % len(nodes)]
    if value is None:
        del node[key]
    else:
        node[key] = value[0]
    return obj


# Every subcommand, with its flags past --diagram; "F" stands for the
# function file and "E" for the element file.
FUZZ_COMMANDS = (
    ["validate"], ["paths", "--level", "2"], ["orbit", "-N", "5"],
    ["measure", "--level", "2"], ["lyapunov"], ["complex", "--level", "1"],
    ["decompose", "--function", "F"], ["cohomology", "--max-level", "4"],
    ["distributions", "--function", "F"],
    ["solve", "--alpha", "3", "--function", "F"],
    ["birkhoff", "-N", "40", "--function", "F"],
    ["algebra", "check", "--trials", "2"],
    ["algebra", "invert", "--element", "E"],
)


def _fuzz_run(capsys, tmp_path, files, diagram, commands):
    """The return code and stderr of each command on the files."""
    out = []
    for command in commands:
        words = 2 if command[0] == "algebra" else 1
        argv = command[:words] + ["--diagram", str(tmp_path / diagram)] + [
            str(tmp_path / files[w]) if w in files else w
            for w in command[words:]]
        rc, _, err = run(capsys, argv)
        out.append((argv, rc, err))
    return out


@example(OrderedDiagram((make_level(1, 1, [(0, 0)], [[0]]),), True), 0, 1,
         3, 0, None).via("the one-edge loop, whose Perron root is 1")
@example(OrderedDiagram((make_level(1, 2, [(0, 0), (0, 1), (0, 1)],
                                    [[0], [2, 1]]),)
                        + builtin_diagram("fib").levels, True), 1, 2,
         5, 7, (2 ** 64,)).via("a prefix level from one vertex to two")
@settings(max_examples=25,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_fuzz_diagrams(), st.integers(0, 2), st.integers(0, 2 ** 16),
       st.integers(0, 400), st.integers(0, 400),
       st.none() | st.tuples(JSON_VALUES))
def test_no_exception_escapes_a_drawn_command(capsys, tmp_path, d, level,
                                              seed, cut, pick, value):
    # every subcommand on a drawn diagram and function exits 0 or with a
    # documented code, and so do the commands that read a file with one
    # node deleted or replaced; a truncated (so malformed) JSON file exits 2
    r = random.Random(seed)
    spec = d.to_json_dict()
    function = {"level": level, "values": {
        str(i): str(Fraction(r.randint(-8, 8), 4))
        for i in range(path_table(d, level).offsets[-1])}}
    element = {"alpha": 3, "coeffs": {"0": "f.json", "-1": "f.json"}}
    texts = {"d.json": spec, "f.json": function, "e.json": element,
             "bad-d.json": _mutated(spec, pick, value),
             "bad-f.json": _mutated(function, pick, value),
             "bad-e.json": _mutated(element, pick, value)}
    for name, obj in texts.items():
        (tmp_path / name).write_text(json.dumps(obj))
    text = json.dumps(spec)
    (tmp_path / "cut.json").write_text(text[:cut % len(text)])
    good, bad = {"F": "f.json", "E": "e.json"}, \
        {"F": "bad-f.json", "E": "bad-e.json"}
    reading = [c for c in FUZZ_COMMANDS if {"F", "E"} & set(c)]
    runs = _fuzz_run(capsys, tmp_path, good, "d.json", FUZZ_COMMANDS) + \
        _fuzz_run(capsys, tmp_path, good, "bad-d.json", FUZZ_COMMANDS) + \
        _fuzz_run(capsys, tmp_path, bad, "d.json", reading)
    for argv, rc, err in runs:
        assert rc in (0, 2, 3, 4), (argv, rc, err)
    truncated = _fuzz_run(capsys, tmp_path, {}, "cut.json",
                          [["validate"]]) + \
        _fuzz_run(capsys, tmp_path, {"F": "cut.json"}, "d.json",
                  [["solve", "--function", "F"]])
    for argv, rc, err in truncated:
        assert (rc, "malformed" in err) == (2, True), (argv, err)
