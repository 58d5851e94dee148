"""Single-binary command line for the adic toolkit.

Subcommands cover every module: validate, paths, orbit (Vershik
iteration), measure, lyapunov, complex, decompose, cohomology,
distributions, solve, birkhoff, and algebra (check | invert).

Outputs are deterministic: JSON objects are emitted with sorted keys,
floats at 17 significant digits, exact rationals as "p/q" strings, and
all randomness sits behind an explicit seed.  Exit codes classify
failures: 2 malformed input, 3 violated precondition, 4 numeric
non-convergence or a failed property suite.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import random
import sys
from fractions import Fraction

from . import algebra as alg
from .catalog import BUILTIN_NAMES, builtin_diagram, resolve_diagram
from .cohomology import distributions, limit_rank
from .diagrams import (check_path, diagram_from_json_dict, enumerate_paths,
                       extreme, lazy_from_json_dict, lazy_to_json_dict,
                       materialize, path_table, successor, validate)
from .errors import AdicError, ParseError, PreconditionError
from .martingale import decompose, from_vector
from .measures import renorm_data, xi_vector
from .solenoid import (build_complex, class_graph, diameter,
                       euler_characteristic, first_betti_number)
from .solver import birkhoff, chained_constant, solve


# ---------------------------------------------------------------------------
# canonical serialization

def _render(obj, out, indent):
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            out.write("{}")
            return
        out.write("{\n")
        items = sorted(((str(k), v) for k, v in obj.items()),
                       key=lambda kv: kv[0])
        for i, (k, v) in enumerate(items):
            out.write(pad + "  " + json.dumps(k) + ": ")
            _render(v, out, indent + 1)
            out.write(",\n" if i + 1 < len(items) else "\n")
        out.write(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.write("[]")
            return
        out.write("[\n")
        for i, v in enumerate(obj):
            out.write(pad + "  ")
            _render(v, out, indent + 1)
            out.write(",\n" if i + 1 < len(obj) else "\n")
        out.write(pad + "]")
    elif isinstance(obj, bool) or obj is None:
        out.write(json.dumps(obj))
    elif isinstance(obj, int):
        out.write(str(obj))
    elif isinstance(obj, float):
        out.write("%.17g" % obj)
    elif isinstance(obj, Fraction):
        out.write(json.dumps(str(obj)))
    elif isinstance(obj, str):
        out.write(json.dumps(obj))
    else:
        out.write("%.17g" % float(obj))


def dumps_canonical(obj):
    buf = io.StringIO()
    _render(obj, buf, 0)
    return buf.getvalue()


def _emit_json(obj):
    sys.stdout.write(dumps_canonical(obj) + "\n")


def _emit_csv(header, rows):
    w = csv.writer(sys.stdout, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow([_csv_cell(x) for x in row])


def _csv_cell(x):
    if isinstance(x, float):
        return "%.17g" % x
    if isinstance(x, Fraction):
        return str(x)
    return x


def _scalar_out(x):
    if isinstance(x, (bool, int, float, Fraction)) or x is None:
        return x
    return float(x)


# ---------------------------------------------------------------------------
# file formats

def _parse_value(v, what="function value"):
    """A rational string, an integer, or a float read exactly as the dyadic
    rational it is."""
    if isinstance(v, bool):
        raise ParseError("boolean is not a %s" % what)
    try:
        return Fraction(v)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):
        raise ParseError("unsupported %s %r" % (what, v)) from None


def _positive(name, v):
    """v when it is a finite number > 0; NaN fails both comparisons."""
    if not 0 < v < math.inf:
        raise ParseError("%s must be finite and > 0, got %s" % (name, v))
    return v


def _at_least(name, v, low):
    """v when it is >= low."""
    if v < low:
        raise ParseError("%s must be >= %d, got %d" % (name, low, v))
    return v


def load_function(diagram, path):
    """A function file: {"level": m, "values": {"path-index": value}}, as
    read by `function_from_dict`."""
    with open(path) as fh:
        data = json.load(fh)
    return function_from_dict(diagram, data)


def function_from_dict(diagram, data):
    """{"level": m, "values": {"path-index": value}}, indices in the
    lexicographic order of enumerate_paths, one key per index."""
    try:
        level = data["level"]
        raw = dict(data.get("values", {}))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError("malformed function: %s" % exc) from None
    if type(level) is not int or level < 0:
        raise ParseError("function level must be an integer >= 0, got %r"
                         % (level,))
    n = path_table(diagram, level).offsets[-1]
    vec, keys = [Fraction(0)] * n, {}
    for key, v in raw.items():
        try:
            i = int(key)
        except ValueError:
            raise ParseError("function index %r is not an integer"
                             % (key,)) from None
        if not 0 <= i < n:
            raise ParseError("function index %d out of range [0, %d)"
                             % (i, n))
        if i in keys:
            raise ParseError("indices %r and %r are both index %d"
                             % (keys[i], key, i))
        keys[i] = key
        vec[i] = _parse_value(v)
    return from_vector(diagram, level, vec)


def function_out(diagram, h):
    values = {str(i): _scalar_out(v) for i, v in enumerate(h.values)
              if not (v == 0)}
    return {"level": h.level, "values": values}


def load_element(path, diagram=None, alpha=None):
    """{"alpha": a, "coeffs": {"k": function}}, each function a path to a
    function file, relative to the element file, or an inline function
    object; an optional "diagram" key supplies what the flags leave out,
    and an optional "lam" key the multiplier."""
    import os
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or \
            not isinstance(data.get("coeffs", {}), dict):
        raise ParseError("an element file is an object with an object of "
                         "coeffs")
    if diagram is None:
        ref = data.get("diagram")
        if ref is None:
            raise ParseError("element file names no diagram and no "
                             "--diagram was given")
        if not isinstance(ref, str):
            raise ParseError("element diagram %r is not a name or a path"
                             % (ref,))
        diagram = resolve_diagram(ref)
    a = alpha if alpha is not None else data.get("alpha")
    if a is None:
        raise ParseError("element file has no alpha")
    lam_val = data.get("lam")
    if lam_val is None:
        lam_val = renorm_data(diagram).lambda_mu
    else:
        lam_val = _positive("lam", _parse_value(lam_val, "lam"))
    base = os.path.dirname(os.path.abspath(path))
    coeffs, keys = {}, {}
    for k, ref in data.get("coeffs", {}).items():
        try:
            shift = int(k)
        except ValueError:
            raise ParseError("shift %r is not an integer" % (k,)) from None
        if shift in keys:
            raise ParseError("shifts %r and %r are both shift %d"
                             % (keys[shift], k, shift))
        keys[shift] = k
        if isinstance(ref, dict):
            coeffs[shift] = function_from_dict(diagram, ref)
        elif isinstance(ref, str):
            coeffs[shift] = load_function(diagram, os.path.join(base, ref))
        else:
            raise ParseError("coefficient %r is neither a function file "
                             "nor a function object" % (ref,))
    return alg.element(diagram, lam_val,
                       _positive("alpha", _parse_value(a, "alpha")), coeffs)


def _load_start(diagram, ref):
    if ref is None:
        return extreme(diagram, 1)[2]
    if ref.strip().startswith("{"):
        data = json.loads(ref)
    else:
        with open(ref) as fh:
            data = json.load(fh)
    p = lazy_from_json_dict(data)
    check_path(diagram, p.prefix)
    if p.tail.kind == "PERIODIC":
        # the word repeats from level len(prefix)+1; past the materialized
        # levels one period covers every (word index, level) pairing, and
        # one edge more the junction of the word with its repeat
        word, pl = p.tail.word, len(p.prefix.edges)
        top = max(pl, len(diagram.levels)) + len(word) + 1
        if not diagram.stationary:
            top = min(top, len(diagram.levels))
        for k in range(pl + 1, top + 1):
            e = word[(k - pl - 1) % len(word)]
            if not 0 <= e < len(diagram.level(k).edges):
                raise ParseError("periodic tail edge index out of range")
        materialize(diagram, p, top)  # raises when the word does not chain
    return p


def _lenient_diagram(ref):
    if ref in BUILTIN_NAMES:
        return builtin_diagram(ref)
    with open(ref) as fh:
        data = json.load(fh)
    return diagram_from_json_dict(data)


# ---------------------------------------------------------------------------
# subcommands

def cmd_validate(args):
    d = _lenient_diagram(args.diagram)
    problems = validate(d)
    # each fact a command may need, read as its decider reads it: None on
    # broken structure and, past "stationary", on a diagram not repeating
    facts = {"stationary": None if problems else d.stationary}
    for name, decide in (("perron", lambda: renorm_data(d)),
                         ("unique_min_path", lambda: extreme(d, 1)),
                         ("unique_max_path", lambda: extreme(d, -1))):
        facts[name] = facts["stationary"] or None
        if facts[name]:
            try:
                decide()
            except PreconditionError:
                facts[name] = False
    _emit_json({"ok": not problems, "diagnostics": list(problems),
                "admissible": facts})
    return 0


def cmd_paths(args):
    d = resolve_diagram(args.diagram)
    ps = enumerate_paths(d, _at_least("level", args.level, 0))
    if args.emit == "csv":
        _emit_csv(["index", "edges"],
                  [(i, " ".join(map(str, p.edges))) for i, p in enumerate(ps)])
    else:
        _emit_json({"level": args.level, "count": len(ps),
                    "paths": [list(p.edges) for p in ps]})
    return 0


def cmd_orbit(args):
    d = resolve_diagram(args.diagram)
    p = _load_start(d, args.start)
    steps = [p]
    for _ in range(_at_least("N", args.n, 0)):
        p = successor(d, p, 1)
        steps.append(p)
    if args.emit == "csv":
        depth = max(len(q.prefix.edges) for q in steps)
        rows = [(i, " ".join(map(str, materialize(d, q, depth).edges)))
                for i, q in enumerate(steps)]
        _emit_csv(["n", "edges"], rows)
    else:
        _emit_json({"steps": [lazy_to_json_dict(q) for q in steps]})
    return 0


def _renorm_out(d, rd, xi_levels):
    # every roof printed is exact, or reading it has already refused, so
    # the certificates are constants, kept for the readers of this object
    return {
        "lambda_mu": float(rd.lambda_mu),
        "exponent": rd.exponent,
        "exact": True,
        "roof": [_scalar_out(x) for x in rd.roof],
        "xi": {str(k): [_scalar_out(x) for x in xi_vector(d, k)]
               for k in range(xi_levels + 1)},
        "certificates": {"roof_residual": 0, "stationary_exact": True},
    }


def cmd_measure(args):
    d = resolve_diagram(args.diagram)
    rd = renorm_data(d)
    _emit_json(_renorm_out(d, rd, _at_least("level", args.level, 0)))
    return 0


def cmd_complex(args):
    d = resolve_diagram(args.diagram)
    rd = renorm_data(d)
    cx = build_complex(d, rd, _at_least("level", args.level, 0))
    if args.emit == "dot":
        lines = ["digraph approx {", "  graph [rankdir=LR];"]
        for c in range(len(cx.classes)):
            lines.append("  c%d [label=\"class %d\"];" % (c, c))
        for e in range(cx.num_edges):
            lines.append("  c%d -> c%d [label=\"e%d len=%.6g\"];"
                         % (cx.start_class[e], cx.end_class[e], e,
                            float(cx.lengths[e])))
        lines.append("}")
        sys.stdout.write("\n".join(lines) + "\n")
    else:
        _emit_json({
            "level": cx.level,
            "num_edges": cx.num_edges,
            "lengths": [float(x) for x in cx.lengths],
            "start_class": list(cx.start_class),
            "end_class": list(cx.end_class),
            "classes": [[[s, e] for s, e in members]
                        for members in cx.classes],
            "glued_pairs": [list(p) for p in cx.glued_pairs],
            "euler_characteristic": euler_characteristic(cx),
            "total_length": float(cx.total_length()),
            "diameter": float(diameter(cx)),
        })
    return 0


def cmd_decompose(args):
    d = resolve_diagram(args.diagram)
    h = load_function(d, args.function)
    rd = renorm_data(d)
    comps = decompose(d, h, rd)
    lam = rd.lam_float
    rows = [(c.level, c.peak, c.cr_norm(0, lam), c.cr_norm(1, lam))
            for c in comps]
    if args.emit == "json":
        _emit_json({"components": [
            {"level": lv, "peak": pk, "c0_norm": c0, "c1_norm": c1}
            for lv, pk, c0, c1 in rows]})
    else:
        _emit_csv(["level", "peak", "c0_norm", "c1_norm"], rows)
    return 0


def cmd_cohomology(args):
    # renorm_data refuses a diagram without Perron data; the dimensions
    # read the gluing alone, so no level's tower heights are read
    d = resolve_diagram(args.diagram)
    tower = limit_rank(d, renorm_data(d))
    _at_least("max level", args.max_level, 0)
    _emit_json({
        "d": tower.d,
        "k_prime": tower.k_prime,
        "per_level_dims": [first_betti_number(class_graph(d, k))
                           for k in range(args.max_level + 1)],
        "ranks": list(tower.ranks),
        "stabilized": tower.ranks[-1] == tower.ranks[-2],
    })
    return 0


def cmd_distributions(args):
    d = resolve_diagram(args.diagram)
    h = load_function(d, args.function)
    tower = limit_rank(d, renorm_data(d))
    dvs = distributions(h, tower)
    _emit_json({
        "D": [dv.value for dv in dvs],
        "exact_zero": [dv.exact_zero for dv in dvs],
        "coboundary": all(dv.exact_zero for dv in dvs),
    })
    return 0


def cmd_solve(args):
    _positive("eps", args.eps)
    # read as a rational of denominator at most 10**6, which must stay > 0
    eps = _positive("eps", Fraction(args.eps).limit_denominator(10 ** 6))
    if args.alpha is not None and \
            not _positive("alpha", args.alpha) - 2 - float(eps) > 0:
        raise ParseError("alpha must be > 2 + eps, got alpha %s and eps %s"
                         % (args.alpha, args.eps))
    d = resolve_diagram(args.diagram)
    h = load_function(d, args.function)
    rd = renorm_data(d)
    tower = limit_rank(d, rd)
    sol = solve(h, tower, alpha=args.alpha, epsilon=eps)
    out = {
        "level": sol.level,
        "gauge": _scalar_out(sol.gauge),
        "residual": _scalar_out(sol.residual),
        "g": function_out(d, sol.g),
        "norms": sol.norms,
    }
    if args.alpha is not None:
        out["chained_constant"] = chained_constant(d, rd, args.alpha, eps)
    _emit_json(out)
    return 0


def cmd_birkhoff(args):
    d = resolve_diagram(args.diagram)
    h = load_function(d, args.function)
    start = _load_start(d, args.start)
    rep = birkhoff(d, h, start, _at_least("N", args.n, 1))
    if args.emit == "csv":
        _emit_csv(["n", "S_n"], rep.checkpoints)
    else:
        _emit_json({
            "n_total": rep.n_total,
            "sup_abs": _scalar_out(rep.sup_abs),
            "mean_rate": rep.mean_rate,
            "exponent": rep.exponent,
            "r_squared": rep.r_squared,
            "claimed": rep.claimed,
            "checkpoints": [[n, _scalar_out(s)] for n, s in rep.checkpoints],
        })
    return 0


def cmd_algebra_check(args):
    alpha = 3 if args.alpha is None else _positive("alpha", args.alpha)
    _at_least("trials", args.trials, 0)
    d = resolve_diagram(args.diagram)
    rd = renorm_data(d)
    extreme(d, 1), extreme(d, -1)  # phi and its inverse, whatever the trials
    lam = rd.lambda_mu
    tri = alg.default_triangle(d, lam)
    rng = random.Random(args.seed)
    tower = limit_rank(d, rd)
    failures, counts = [], {}
    for _ in range(args.trials):
        for name, ok in alg.check_trial(rng, d, lam, alpha, tri, tower):
            counts[name] = counts.get(name, 0) + 1
            if not ok:
                failures.append(name)
    out = {"trials": args.trials, "seed": args.seed,
           "triangle": tri,
           "checks": counts, "failures": failures, "ok": not failures}
    _emit_json(out)
    return 0 if not failures else 4


def cmd_algebra_invert(args):
    diagram = resolve_diagram(args.diagram) if args.diagram else None
    tol = _positive("tol", args.tol)
    a = load_element(args.element, diagram=diagram, alpha=args.alpha)
    res = alg.neumann_invert(a, tol=tol)
    inv = res.element
    _emit_json({
        "terms": res.terms,
        "residual": res.residual,
        "support": list(inv.support()),
        "mu": {str(q): alg.norms(inv, 0, q)["mu_q"] for q in (1, 2, 4)},
        "coeffs": {str(k): function_out(inv.diagram, f)
                   for k, f in inv.coeffs.items()},
    })
    return 0


# ---------------------------------------------------------------------------
# parser

def _build_parser():
    ap = argparse.ArgumentParser(
        prog="adic",
        description="Bratteli-Vershik dynamics, solenoid approximants, "
                    "invariant distributions, coboundary solving, and the "
                    "crossed-product trace algebra.")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        p = sub.add_parser(name, **kw)
        p.set_defaults(fn=fn)
        return p

    p = add("validate", cmd_validate, help="diagnostics for a diagram file")
    p.add_argument("--diagram", required=True)

    p = add("paths", cmd_paths, help="enumerate E_{0,k} in order")
    p.add_argument("--diagram", required=True)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--emit", choices=("json", "csv"), default="json")

    p = add("orbit", cmd_orbit, help="iterate the Vershik map")
    p.add_argument("--diagram", required=True)
    p.add_argument("--start", default=None,
                   help="path JSON (inline or file); default all-min")
    p.add_argument("-N", dest="n", type=int, default=10)
    p.add_argument("--emit", choices=("json", "csv"), default="json")

    p = add("measure", cmd_measure, help="invariant measure data")
    p.add_argument("--diagram", required=True)
    p.add_argument("--level", type=int, default=5,
                   help="deepest xi vector to include")

    p = add("lyapunov", cmd_measure, help="Perron multiplier and exponent")
    p.add_argument("--diagram", required=True)
    p.set_defaults(level=3)

    p = add("complex", cmd_complex, help="level-k solenoid approximant")
    p.add_argument("--diagram", required=True)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--emit", choices=("json", "dot"), default="json")

    p = add("decompose", cmd_decompose, help="martingale level components")
    p.add_argument("--diagram", required=True)
    p.add_argument("--function", required=True)
    p.add_argument("--emit", choices=("csv", "json"), default="csv")

    p = add("cohomology", cmd_cohomology, aliases=["coho"],
            help="limit rank of the class tower")
    p.add_argument("--diagram", required=True)
    p.add_argument("--max-level", type=int, default=8)

    p = add("distributions", cmd_distributions,
            help="invariant distribution values of a function")
    p.add_argument("--diagram", required=True)
    p.add_argument("--function", required=True)

    p = add("solve", cmd_solve, help="constructive coboundary solver")
    p.add_argument("--diagram", required=True)
    p.add_argument("--function", required=True)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--eps", type=float, default=0.25)

    p = add("birkhoff", cmd_birkhoff, help="orbit sums along the Vershik map")
    p.add_argument("--diagram", required=True)
    p.add_argument("--function", required=True)
    p.add_argument("--start", default=None)
    p.add_argument("-N", dest="n", type=int, required=True)
    p.add_argument("--emit", choices=("json", "csv"), default="json")

    pa = sub.add_parser("algebra", help="crossed-product operations")
    asub = pa.add_subparsers(dest="subcommand", required=True)

    p = asub.add_parser("check", help="randomized property suite")
    p.set_defaults(fn=cmd_algebra_check)
    p.add_argument("--diagram", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=25)
    p.add_argument("--alpha", type=float, default=None)

    p = asub.add_parser("invert", help="Neumann series inverse")
    p.set_defaults(fn=cmd_algebra_invert)
    p.add_argument("--element", required=True)
    p.add_argument("--diagram", default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--tol", type=float, default=1e-10)

    return ap


def main(argv=None):
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except AdicError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return getattr(type(exc), "exit_code", 1)
    except OSError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    except json.JSONDecodeError as exc:
        sys.stderr.write("error: malformed JSON: %s\n" % exc)
        return 2
    except OverflowError:
        sys.stderr.write("error: a value overflows a float\n")
        return 4


if __name__ == "__main__":
    sys.exit(main())
