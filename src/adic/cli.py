"""Single-binary command line for the adic toolkit.

Subcommands cover every module: validate, paths, orbit (Vershik
iteration), measure, lyapunov, complex, decompose, cohomology,
distributions, solve, birkhoff, and algebra (check | invert).  Each is
one row of `COMMANDS`: its flags, the admissibility facts of `FACTS` it
needs, and a function returning its output.  `main` parses, reads the
inputs, refuses on the first needed fact that fails, and renders.

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
from collections import namedtuple
from fractions import Fraction

from . import algebra as alg
from .catalog import BUILTIN_NAMES, builtin_diagram, resolve_diagram
from .cohomology import distributions, limit_rank
from .diagrams import (check_path, diagram_from_json_dict, enumerate_paths,
                       extreme, lazy_from_json_dict, lazy_to_json_dict,
                       materialize, path_table, successor, validate)
from .errors import (AdicError, NotStationaryError, ParseError,
                     PreconditionError)
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
        out.write(_finite(obj))
    elif isinstance(obj, Fraction):
        out.write(json.dumps(str(obj)))
    elif isinstance(obj, str):
        out.write(json.dumps(obj))
    else:
        out.write(_finite(float(obj)))


def _finite(x):
    """A float at 17 significant digits; OverflowError for inf and nan,
    which are no JSON and no number a reader can use."""
    if not math.isfinite(x):
        raise OverflowError("a value overflows a float")
    return "%.17g" % x


def _write(out):
    """A command's output: a str (DOT) as it is, a (header, rows) pair as
    CSV, anything else as canonical JSON, rendered whole before writing, so
    that a refused value leaves stdout empty."""
    buf = io.StringIO()
    if isinstance(out, str):
        buf.write(out)
    elif isinstance(out, tuple):
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(out[0])
        for row in out[1]:
            w.writerow([_csv_cell(x) for x in row])
    else:
        _render(out, buf, 0)
        buf.write("\n")
    sys.stdout.write(buf.getvalue())


def _csv_cell(x):
    if isinstance(x, float):
        return _finite(x)
    if isinstance(x, Fraction):
        return str(x)
    return x


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
        level, raw = data["level"], data.get("values", {})
    except (KeyError, TypeError) as exc:
        raise ParseError("malformed function: %s" % exc) from None
    if not isinstance(raw, dict):
        raise ParseError("function values must be an object, not %s"
                         % type(raw).__name__)
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


def function_out(h):
    values = {str(i): v for i, v in enumerate(h.values) if not (v == 0)}
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
    return check_path(diagram, lazy_from_json_dict(data))


def _lenient_diagram(args):
    """The --diagram flag's diagram, its structure not yet validated."""
    if args.diagram in BUILTIN_NAMES:
        return builtin_diagram(args.diagram)
    with open(args.diagram) as fh:
        data = json.load(fh)
    return diagram_from_json_dict(data)


def _read_element(args):
    """The diagram of the --element file's element, kept as args.element:
    the --diagram flag's, or else the one the file names."""
    d = resolve_diagram(args.diagram) if args.diagram else None
    _positive("tol", args.tol)
    args.element = load_element(args.element, diagram=d, alpha=args.alpha)
    return args.element.diagram


# ---------------------------------------------------------------------------
# subcommands: each takes the parsed flags and the diagram, and returns
# its output

def cmd_validate(args, d):
    problems = validate(d)
    # each fact as its decider reads it: None on broken structure and, past
    # "stationary", on a diagram not repeating
    facts, known = {}, not problems
    for name, decide in FACTS:
        facts[name] = known or None
        if known:
            try:
                decide(d)
            except PreconditionError:
                facts[name] = False
        known = facts["stationary"]
    return {"ok": not problems, "diagnostics": list(problems),
            "admissible": facts}


def cmd_paths(args, d):
    ps = enumerate_paths(d, _at_least("level", args.level, 0))
    if args.emit == "csv":
        return ["index", "edges"], [(i, " ".join(map(str, p.edges)))
                                    for i, p in enumerate(ps)]
    return {"level": args.level, "count": len(ps),
            "paths": [list(p.edges) for p in ps]}


def cmd_orbit(args, d):
    p = _load_start(d, args.start)
    steps = [p]
    for _ in range(_at_least("N", args.N, 0)):
        p = successor(d, p, 1)
        steps.append(p)
    if args.emit == "csv":
        depth = max(len(q.prefix.edges) for q in steps)
        return ["n", "edges"], [
            (i, " ".join(map(str, materialize(d, q, depth).edges)))
            for i, q in enumerate(steps)]
    return {"steps": [lazy_to_json_dict(q) for q in steps]}


def _renorm_out(d, xi_levels):
    # every roof printed is exact, or reading it has already refused, so
    # the certificates are constants, kept for the readers of this object
    _at_least("level", xi_levels, 0)
    rd = renorm_data(d)
    return {
        "lambda_mu": float(rd.lambda_mu),
        "exponent": rd.exponent,
        "exact": True,
        "roof": rd.roof,
        "xi": {str(k): xi_vector(d, k) for k in range(xi_levels + 1)},
        "certificates": {"roof_residual": 0, "stationary_exact": True},
    }


def cmd_complex(args, d):
    cx = build_complex(d, renorm_data(d), _at_least("level", args.level, 0))
    if args.emit == "dot":
        lines = ["digraph approx {", "  graph [rankdir=LR];"]
        for c in range(len(cx.classes)):
            lines.append("  c%d [label=\"class %d\"];" % (c, c))
        for e in range(cx.num_edges):
            lines.append("  c%d -> c%d [label=\"e%d len=%.6g\"];"
                         % (cx.start_class[e], cx.end_class[e], e,
                            float(cx.lengths[e])))
        lines.append("}")
        return "\n".join(lines) + "\n"
    return {
        "level": cx.level,
        "num_edges": cx.num_edges,
        "lengths": [float(x) for x in cx.lengths],
        "start_class": list(cx.start_class),
        "end_class": list(cx.end_class),
        "classes": [[[s, e] for s, e in members] for members in cx.classes],
        "glued_pairs": [list(p) for p in cx.glued_pairs],
        "euler_characteristic": euler_characteristic(cx),
        "total_length": float(cx.total_length()),
        "diameter": float(diameter(cx)),
    }


def cmd_decompose(args, d):
    rd = renorm_data(d)
    lam = rd.lam_float
    rows = [(c.level, c.peak, c.cr_norm(0, lam), c.cr_norm(1, lam))
            for c in decompose(d, args.h, rd)]
    if args.emit == "csv":
        return ["level", "peak", "c0_norm", "c1_norm"], rows
    return {"components": [{"level": lv, "peak": pk, "c0_norm": c0,
                            "c1_norm": c1} for lv, pk, c0, c1 in rows]}


def cmd_cohomology(args, d):
    tower = limit_rank(d, renorm_data(d))
    _at_least("max level", args.max_level, 0)
    return {
        "d": tower.d,
        "k_prime": tower.k_prime,
        "per_level_dims": [first_betti_number(class_graph(d, k))
                           for k in range(args.max_level + 1)],
        "ranks": list(tower.ranks),
        "stabilized": tower.ranks[-1] == tower.ranks[-2],
    }


def cmd_distributions(args, d):
    dvs = distributions(args.h, limit_rank(d, renorm_data(d)))
    return {
        "D": [dv.value for dv in dvs],
        "exact_zero": [dv.exact_zero for dv in dvs],
        "coboundary": all(dv.exact_zero for dv in dvs),
    }


def _solve_flags(args):
    # eps is read as a rational of denominator at most 10**6, which must
    # stay > 0
    eps = _positive("eps", Fraction(_positive("eps", args.eps))
                    .limit_denominator(10 ** 6))
    if args.alpha is not None and \
            not _positive("alpha", args.alpha) - 2 - float(eps) > 0:
        raise ParseError("alpha must be > 2 + eps, got alpha %s and eps %s"
                         % (args.alpha, args.eps))
    args.eps = eps


def cmd_solve(args, d):
    rd = renorm_data(d)
    sol = solve(args.h, limit_rank(d, rd), alpha=args.alpha,
                epsilon=args.eps)
    out = {"level": sol.level, "gauge": sol.gauge, "residual": sol.residual,
           "g": function_out(sol.g), "norms": sol.norms}
    if args.alpha is not None:
        out["chained_constant"] = chained_constant(d, rd, args.alpha,
                                                   args.eps)
    return out


def cmd_birkhoff(args, d):
    rep = birkhoff(d, args.h, _load_start(d, args.start),
                   _at_least("N", args.N, 1))
    if args.emit == "csv":
        return ["n", "S_n"], rep.checkpoints
    return {
        "n_total": rep.n_total,
        "sup_abs": rep.sup_abs,
        "mean_rate": rep.mean_rate,
        "exponent": rep.exponent,
        "r_squared": rep.r_squared,
        "claimed": rep.claimed,
        "checkpoints": rep.checkpoints,
    }


def _check_flags(args):
    args.alpha = 3 if args.alpha is None else _positive("alpha", args.alpha)
    _at_least("trials", args.trials, 0)


def cmd_algebra_check(args, d):
    rd = renorm_data(d)
    lam = rd.lambda_mu
    tri = alg.default_triangle(d, lam)
    rng = random.Random(args.seed)
    tower = limit_rank(d, rd)
    failures, counts = [], {}
    for _ in range(args.trials):
        for name, ok in alg.check_trial(rng, d, lam, args.alpha, tri, tower):
            counts[name] = counts.get(name, 0) + 1
            if not ok:
                failures.append(name)
    return {"trials": args.trials, "seed": args.seed, "triangle": tri,
            "checks": counts, "failures": failures, "ok": not failures}


def cmd_algebra_invert(args, d):
    res = alg.neumann_invert(args.element, tol=args.tol)
    inv = res.element
    return {
        "terms": res.terms,
        "residual": res.residual,
        "support": list(inv.support()),
        "mu": {str(q): alg.norms(inv, 0, q)["mu_q"] for q in (1, 2, 4)},
        "coeffs": {str(k): function_out(f) for k, f in inv.coeffs.items()},
    }


# ---------------------------------------------------------------------------
# the command table

def _stationary(d):
    if not d.stationary:
        raise NotStationaryError()


# The facts of `validate`'s "admissible" record, in the README table's
# column order, each with the decider that refuses a diagram without it.
FACTS = (("stationary", _stationary),
         ("perron", renorm_data),
         ("unique_min_path", lambda d: extreme(d, 1)),
         ("unique_max_path", lambda d: extreme(d, -1)))
ALL_FACTS = tuple(name for name, _ in FACTS)
PERRON = ("stationary", "perron")
MIN_PATH = ("stationary", "unique_min_path")


class Command(namedtuple("Command", "name help flags run needs read check "
                          "failed aliases", defaults=(
                              (), lambda args: resolve_diagram(args.diagram),
                              None, None, ()))):
    """A subcommand ("algebra check" in the algebra group): its flags as
    argparse (flag, keywords) pairs, the checks of its flags made before
    any file is read, the facts it needs of the diagram `read` returns,
    `run` from the flags and that diagram to its output, and `failed`,
    true of an output that exits 4."""
    __slots__ = ()


DIAGRAM = ("--diagram", dict(required=True))
FUNCTION = ("--function", dict(required=True))
LEVEL = ("--level", dict(type=int, required=True))
ALPHA = ("--alpha", dict(type=float, default=None))


def _emit(*choices):
    """--emit, its first choice the default."""
    return "--emit", dict(choices=choices, default=choices[0])


COMMANDS = (
    Command("validate", "diagnostics for a diagram file", (DIAGRAM,),
            cmd_validate, read=_lenient_diagram),
    Command("paths", "enumerate E_{0,k} in order",
            (DIAGRAM, LEVEL, _emit("json", "csv")), cmd_paths),
    Command("orbit", "iterate the Vershik map",
            (DIAGRAM, ("--start", dict(help="path JSON (inline or file); "
                                            "default all-min")),
             ("-N", dict(type=int, default=10)), _emit("json", "csv")),
            cmd_orbit, MIN_PATH),
    Command("measure", "invariant measure data",
            (DIAGRAM, ("--level", dict(type=int, default=5,
                                       help="deepest xi vector to include"))),
            lambda args, d: _renorm_out(d, args.level), PERRON),
    Command("lyapunov", "Perron multiplier and exponent", (DIAGRAM,),
            lambda args, d: _renorm_out(d, 3), PERRON),
    Command("complex", "level-k solenoid approximant",
            (DIAGRAM, LEVEL, _emit("json", "dot")), cmd_complex, PERRON),
    Command("decompose", "martingale level components",
            (DIAGRAM, FUNCTION, _emit("csv", "json")), cmd_decompose,
            PERRON),
    Command("cohomology", "limit rank of the class tower",
            (DIAGRAM, ("--max-level", dict(type=int, default=8))),
            cmd_cohomology, PERRON, aliases=("coho",)),
    Command("distributions", "invariant distribution values of a function",
            (DIAGRAM, FUNCTION), cmd_distributions, PERRON),
    Command("solve", "constructive coboundary solver",
            (DIAGRAM, FUNCTION, ALPHA,
             ("--eps", dict(type=float, default=0.25))),
            cmd_solve, PERRON + ("unique_min_path",), check=_solve_flags),
    Command("birkhoff", "orbit sums along the Vershik map",
            (DIAGRAM, FUNCTION, ("--start", {}),
             ("-N", dict(type=int, required=True)), _emit("json", "csv")),
            cmd_birkhoff, MIN_PATH),
    Command("algebra check", "randomized property suite",
            (DIAGRAM, ("--seed", dict(type=int, default=0)),
             ("--trials", dict(type=int, default=25)), ALPHA),
            cmd_algebra_check, ALL_FACTS, check=_check_flags,
            failed=lambda out: out["failures"]),
    Command("algebra invert", "Neumann series inverse",
            (("--element", dict(required=True)), ("--diagram", {}), ALPHA,
             ("--tol", dict(type=float, default=1e-10))),
            cmd_algebra_invert, ALL_FACTS, read=_read_element),
)


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="adic",
        description="Bratteli-Vershik dynamics, solenoid approximants, "
                    "invariant distributions, coboundary solving, and the "
                    "crossed-product trace algebra.")
    subs = {"": ap.add_subparsers(dest="command", required=True)}
    for row in COMMANDS:
        group, _, name = row.name.rpartition(" ")
        if group not in subs:  # "algebra", the one group
            subs[group] = subs[""].add_parser(
                group, help="crossed-product operations").add_subparsers(
                dest="subcommand", required=True)
        p = subs[group].add_parser(name, aliases=row.aliases, help=row.help)
        p.set_defaults(row=row)
        for flag, kw in row.flags:
            p.add_argument(flag, **kw)
    return ap


def main(argv=None):
    """Parse and check the flags, read the diagram and the --function file
    (as args.h), refuse on the first fact the command needs that fails
    (with a --start, orbit and birkhoff need none), and write the output
    of the command's run."""
    args = _build_parser().parse_args(argv)
    row = args.row
    try:
        if row.check:
            row.check(args)
        d = row.read(args)
        if "function" in args:
            args.h = load_function(d, args.function)
        if getattr(args, "start", None) is None:
            for name, decide in FACTS:
                if name in row.needs:
                    decide(d)
        out = row.run(args, d)
        _write(out)
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
    return 4 if row.failed and row.failed(out) else 0


if __name__ == "__main__":
    sys.exit(main())
