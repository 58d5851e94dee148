"""End-to-end command-line checks against pinned outputs.

Every golden below is asserted byte for byte: the JSON renderer sorts keys
and prints floats with repr-faithful precision, so any drift in numerics or
formatting shows up as a diff, not as a tolerance miss."""

import json

import pytest

from adic.cli import main


@pytest.fixture()
def work(tmp_path):
    files = {
        "h.json": {"level": 2, "values": {"0": "1/2", "1": "-1/2",
                                          "2": "1/2", "3": "-1/2"}},
        "obst.json": {"level": 0, "values": {"0": 1}},
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
    assert out == '{\n  "diagnostics": [],\n  "ok": true\n}\n'


def test_validate_reports_broken_order(capsys, work):
    rc, out, _ = run(capsys,
                     ["validate", "--diagram", str(work / "bad.json")])
    assert rc == 0
    assert out == ('{\n  "diagnostics": [\n'
                   '    "level 1 vertex 0: order not a permutation"\n'
                   '  ],\n  "ok": false\n}\n')


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
    1.170820393249937,
    0.72360679774997894
  ],
  "xi": {
    "0": [
      0.6180339887498949,
      0.3819660112501051
    ],
    "1": [
      0.3819660112501051,
      0.23606797749978981
    ],
    "2": [
      0.23606797749978981,
      0.14589803375031529
    ],
    "3": [
      0.14589803375031529,
      0.090169943749474513
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


def test_distributions_coboundary(capsys, work):
    rc, out, _ = run(capsys, ["distributions", "--diagram", "odo2",
                              "--function", str(work / "h.json")])
    assert rc == 0
    assert out == ('{\n  "D": [\n    0\n  ],\n  "coboundary": true,\n'
                   '  "exact_zero": [\n    true\n  ]\n}\n')


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


def test_algebra_check_exponential_regime(capsys):
    rc, out, _ = run(capsys, ["algebra", "check", "--diagram", "pisot31",
                              "--seed", "3", "--trials", "8"])
    assert rc == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert data["triangle"] == 4
    assert "norm_le_tail" in data["checks"]


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
        "0": "488281/390625",
        "1": "1"
      }
    }
  },
  "mu": {
    "1": 0,
    "2": 0,
    "4": 0
  },
  "residual": 1.0240000000000001e-06,
  "support": [
    0
  ],
  "terms": 8
}
"""


def test_algebra_invert_tight_tolerance(capsys, work):
    rc, out, _ = run(capsys, ["algebra", "invert",
                              "--element", str(work / "e.json"),
                              "--tol", "1e-10"])
    assert rc == 0
    data = json.loads(out)
    assert data["terms"] == 35
    assert data["residual"] <= 1e-10
    assert data["support"] == [0]


def test_algebra_invert_rejects_large_norm(capsys, work):
    rc, _, err = run(capsys, ["algebra", "invert",
                              "--element", str(work / "e2.json"),
                              "--tol", "1e-10"])
    assert rc == 3
    assert "norm too large" in err
