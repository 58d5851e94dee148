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
import random
import sys
from fractions import Fraction

from . import algebra as alg
from .catalog import BUILTIN_NAMES, builtin_diagram, resolve_diagram
from .cohomology import distributions, is_coboundary_class, limit_rank
from .diagrams import (check_path, diagram_from_json_dict, enumerate_paths,
                       extreme_min_lazy, lazy_from_json_dict,
                       lazy_to_json_dict, materialize, successor, validate)
from .errors import AdicError, ObstructedError, ParseError
from .martingale import (CylinderFunction, as_vector, bump_from_roof,
                         compose_phi, constant_function, decompose,
                         from_vector, holder_norm, lift, nu_mean,
                         weighted_norms)
from .measures import renorm_data, xi_vector
from .scalars import as_float
from .solenoid import build_complex, diameter, euler_characteristic
from .solver import birkhoff, chained_constant, solve
from .cohomology import ClassTower


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
        out.write("%.17g" % as_float(obj))


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
    return as_float(x)


# ---------------------------------------------------------------------------
# file formats

def _parse_value(v):
    if isinstance(v, str):
        return Fraction(v)
    if isinstance(v, bool):
        raise ParseError("boolean is not a function value")
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, float):
        return v
    raise ParseError("unsupported function value %r" % (v,))


def load_function(diagram, path):
    """{"level": m, "values": {"path-index": value}}, indices in the
    lexicographic order of enumerate_paths."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError("malformed function file: %s" % exc) from None
    try:
        level = int(data["level"])
        raw = dict(data.get("values", {}))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError("malformed function file: %s" % exc) from None
    if level == 0:
        n = diagram.level(1).num_sources
    else:
        n = len(enumerate_paths(diagram, 0, level))
    vec = [Fraction(0)] * n
    for key, v in raw.items():
        try:
            i = int(key)
        except ValueError:
            raise ParseError("function index %r is not an integer"
                             % (key,)) from None
        if not 0 <= i < n:
            raise ParseError("function index %d out of range [0, %d)"
                             % (i, n))
        vec[i] = _parse_value(v)
    return from_vector(diagram, level, vec)


def function_out(diagram, h):
    vec = as_vector(diagram, h)
    values = {str(i): _scalar_out(v) for i, v in enumerate(vec)
              if not (v == 0)}
    return {"level": h.level, "values": values}


def load_element(path, diagram=None, lam=None, alpha=None):
    """{"alpha": a, "coeffs": {"k": function-file-ref}} with refs relative
    to the element file; optional "diagram" and "lam" keys supply what the
    flags leave out."""
    import os
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError("malformed element file: %s" % exc) from None
    if diagram is None:
        ref = data.get("diagram")
        if ref is None:
            raise ParseError("element file names no diagram and no "
                             "--diagram was given")
        diagram = resolve_diagram(ref)
    a = alpha if alpha is not None else data.get("alpha")
    if a is None:
        raise ParseError("element file has no alpha")
    lam_val = lam if lam is not None else data.get("lam")
    if lam_val is None:
        lam_val = renorm_data(diagram).lambda_mu
    base = os.path.dirname(os.path.abspath(path))
    coeffs = {}
    for k, ref in dict(data.get("coeffs", {})).items():
        fp = ref if os.path.isabs(ref) else os.path.join(base, ref)
        coeffs[int(k)] = load_function(diagram, fp)
    return alg.element(diagram, lam_val, _parse_value(a), coeffs)


def _load_start(diagram, ref):
    if ref is None:
        return extreme_min_lazy(diagram)
    if ref.strip().startswith("{"):
        data = json.loads(ref)
    else:
        with open(ref) as fh:
            data = json.load(fh)
    p = lazy_from_json_dict(data)
    check_path(diagram, p.prefix)
    if p.tail.kind == "PERIODIC":
        # the word repeats from level len(prefix)+1; past the materialized
        # levels one period covers every (word index, level) pairing
        word, pl = p.tail.word, len(p.prefix.edges)
        top = max(pl, diagram.materialized) + len(word)
        if not diagram.stationary:
            top = min(top, diagram.materialized)
        for k in range(pl + 1, top + 1):
            e = word[(k - pl - 1) % len(word)]
            if not 0 <= e < len(diagram.level(k).edges):
                raise ParseError("periodic tail edge index out of range")
    return p


def _lenient_diagram(ref):
    if ref in BUILTIN_NAMES:
        return builtin_diagram(ref)
    with open(ref) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError("malformed diagram file: %s" % exc) from None
    return diagram_from_json_dict(data)


# ---------------------------------------------------------------------------
# subcommands

def cmd_validate(args):
    d = _lenient_diagram(args.diagram)
    problems = validate(d)
    _emit_json({"ok": not problems, "diagnostics": list(problems)})
    return 0


def cmd_paths(args):
    d = resolve_diagram(args.diagram)
    ps = enumerate_paths(d, 0, args.level)
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
    for _ in range(args.n):
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
    return {
        "lambda_mu": as_float(rd.lambda_mu),
        "exponent": rd.exponent,
        "exact": rd.exact,
        "roof": [_scalar_out(x) for x in rd.roof],
        "xi": {str(k): [_scalar_out(x) for x in xi_vector(d, k)]
               for k in range(xi_levels + 1)},
        "certificates": rd.certificates,
    }


def cmd_measure(args):
    d = resolve_diagram(args.diagram)
    rd = renorm_data(d, horizon=args.horizon)
    _emit_json(_renorm_out(d, rd, args.level if args.level is not None else 5))
    return 0


def cmd_lyapunov(args):
    d = resolve_diagram(args.diagram)
    rd = renorm_data(d)
    _emit_json(_renorm_out(d, rd, 3))
    return 0


def cmd_complex(args):
    d = resolve_diagram(args.diagram)
    rd = renorm_data(d)
    cx = build_complex(d, rd, args.level)
    if args.emit == "dot":
        lines = ["digraph approx {", "  graph [rankdir=LR];"]
        for c in range(len(cx.classes)):
            lines.append("  c%d [label=\"class %d\"];" % (c, c))
        for e in range(cx.num_edges):
            lines.append("  c%d -> c%d [label=\"e%d len=%.6g\"];"
                         % (cx.start_class[e], cx.end_class[e], e,
                            as_float(cx.lengths[e])))
        lines.append("}")
        sys.stdout.write("\n".join(lines) + "\n")
    else:
        _emit_json({
            "level": cx.level,
            "num_edges": cx.num_edges,
            "lengths": [as_float(x) for x in cx.lengths],
            "start_class": list(cx.start_class),
            "end_class": list(cx.end_class),
            "classes": [[[s, e] for s, e in members]
                        for members in cx.classes],
            "glued_pairs": [list(p) for p in cx.glued_pairs],
            "euler_characteristic": euler_characteristic(cx),
            "total_length": as_float(cx.total_length()),
            "diameter": as_float(diameter(cx)),
        })
    return 0


def cmd_decompose(args):
    d = resolve_diagram(args.diagram)
    rd = renorm_data(d)
    h = load_function(d, args.function)
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
    d = resolve_diagram(args.diagram)
    rd = renorm_data(d)
    tower = limit_rank(d, rd, max_level=args.max_level)
    _emit_json({
        "d": tower.d,
        "k_prime": tower.k_prime,
        "per_level_dims": [sp.dim_h1 for sp in tower.spaces],
        "ranks": list(tower.ranks),
        "stabilized": tower.stabilized,
    })
    return 0


def cmd_distributions(args):
    d = resolve_diagram(args.diagram)
    rd = renorm_data(d)
    tower = limit_rank(d, rd, max_level=args.max_level)
    h = load_function(d, args.function)
    dvs = distributions(h, tower, at_level=args.level)
    _emit_json({
        "D": [dv.value for dv in dvs],
        "exact_zero": [dv.exact_zero for dv in dvs],
        "coboundary": all(dv.exact_zero for dv in dvs),
    })
    return 0


def cmd_solve(args):
    d = resolve_diagram(args.diagram)
    rd = renorm_data(d)
    tower = limit_rank(d, rd, max_level=args.max_level)
    h = load_function(d, args.function)
    sol = solve(h, tower, alpha=args.alpha,
                epsilon=Fraction(args.eps).limit_denominator(10 ** 6))
    out = {
        "level": sol.level,
        "gauge": _scalar_out(sol.gauge),
        "residual": _scalar_out(sol.residual),
        "g": function_out(d, sol.g),
        "norms": sol.norms,
    }
    if args.alpha is not None:
        out["chained_constant"] = chained_constant(
            d, rd, args.alpha, Fraction(args.eps).limit_denominator(10 ** 6))
    _emit_json(out)
    return 0


def cmd_birkhoff(args):
    d = resolve_diagram(args.diagram)
    h = load_function(d, args.function)
    start = _load_start(d, args.start)
    rep = birkhoff(d, h, start, args.n)
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


# ---------------------------------------------------------------------------
# algebra property suite

def _rand_function(rng, diagram, level):
    if level == 0:
        return constant_function(diagram, Fraction(rng.randint(-8, 8), 4), 0)
    vals = {p.edges: Fraction(rng.randint(-8, 8), 4)
            for p in enumerate_paths(diagram, 0, level)}
    return CylinderFunction(level=level, values=vals)


def _rand_element(rng, diagram, lam, alpha, max_level=2, window=2,
                  max_support=3):
    ks = rng.sample(range(-window, window + 1),
                    k=rng.randint(1, max_support))
    return alg.element(diagram, lam, alpha,
                       {k: _rand_function(rng, diagram,
                                          rng.randint(0, max_level))
                        for k in ks})


def _check_once(rng, d, lam, alpha, tri, tower, failures, counts):
    def note(name, ok):
        counts[name] = counts.get(name, 0) + 1
        if not ok:
            failures.append(name)

    slack = 1e-9

    def le(x, y):
        return x <= y + slack * max(1.0, abs(y))

    a = _rand_element(rng, d, lam, alpha)
    b = _rand_element(rng, d, lam, alpha)
    c = _rand_element(rng, d, lam, alpha, max_level=1, window=1,
                      max_support=2)
    ab = alg.convolve(a, b)
    note("associativity", alg.equal_elements(
        alg.convolve(ab, c), alg.convolve(a, alg.convolve(b, c))))
    note("involution_antihom", alg.equal_elements(
        alg.involution(ab),
        alg.convolve(alg.involution(b), alg.involution(a))))
    note("involution_squared", alg.equal_elements(
        alg.involution(alg.involution(a)), a))
    s = rng.choice((0, 1, 2))
    q = rng.choice((1, 2))
    af = as_float(alpha)
    na_shift = alg.norms(a, s + af, q, triangle=tri)["s_alpha"]
    nb = alg.norms(b, s, q, triangle=tri)
    nab = alg.norms(ab, s, q, triangle=tri)
    note("product_norm", le(nab["s_alpha"], na_shift * nb["s_alpha"]))
    nast = alg.norms(alg.involution(a), s, q, triangle=tri)["s_alpha"]
    note("involution_norm", le(nast, na_shift))
    note("l1_product", le(
        nab["l1_alpha"],
        alg.norms(a, 0, q, triangle=tri)["s_alpha"] * nb["l1_alpha"]))
    nq = alg.norms(a, q, q, triangle=tri)
    note("tail_le_norm", le(nq["mu_q"], nq["s_alpha"]))
    if tri > 1.0:
        n2q = alg.norms(a, q, 2 * q + af, triangle=tri)
        cc = alg.lemma_constant(tri, af, q)
        note("norm_le_tail", le(nq["s_alpha"], cc * n2q["mu_q"]))
    f = _rand_element(rng, d, lam, alpha, max_level=1, window=1,
                      max_support=3)
    for n in (1, 2):
        for nn in (1,):
            p = alg.project_support(f, nn * nn)
            qq = alg.complement_support(f, nn * nn)
            total = alg.power(p, n)
            for k in range(n):
                total = alg.add(total, alg.convolve(
                    alg.power(p, k), alg.convolve(qq, alg.power(f, n - 1 - k))))
            note("jolissaint_n%d" % n,
                 alg.equal_elements(total, alg.power(f, n)))
    if tower is not None:
        ba = alg.convolve(b, a)
        lev = max([f2.level for e in (ab, ba) if 0 in e.coeffs
                   for f2 in (e.coeffs[0],)] + [1])
        ta = alg.trace(ab, tower, at_level=lev)
        tb = alg.trace(ba, tower, at_level=lev)
        note("trace_commutator", all(
            x.numerator == y.numerator for x, y in zip(ta, tb)))
        aa = alg.convolve(alg.involution(a), a)
        note("trace_positive",
             alg.trace(aa, tower, at_level=None)[0].value >= -1e-15)


def cmd_algebra_check(args):
    d = resolve_diagram(args.diagram)
    rd = renorm_data(d)
    lam = rd.lambda_mu
    alpha = args.alpha if args.alpha is not None else 3
    tri = alg.triangle_phi(d, 3, as_float(lam)).value
    rng = random.Random(args.seed)
    try:
        tower = limit_rank(d, rd, max_level=8)
    except AdicError:
        tower = None
    failures, counts = [], {}
    for _ in range(args.trials):
        _check_once(rng, d, lam, alpha, tri, tower, failures, counts)
    out = {"trials": args.trials, "seed": args.seed,
           "triangle": tri,
           "checks": counts, "failures": failures, "ok": not failures}
    _emit_json(out)
    return 0 if not failures else 4


def cmd_algebra_invert(args):
    diagram = resolve_diagram(args.diagram) if args.diagram else None
    a = load_element(args.element, diagram=diagram, alpha=args.alpha)
    res = alg.neumann_invert(a, tol=args.tol)
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
    p.add_argument("--horizon", type=int, default=40)
    p.add_argument("--level", type=int, default=None,
                   help="deepest xi vector to include")

    p = add("lyapunov", cmd_lyapunov, help="Perron multiplier and exponent")
    p.add_argument("--diagram", required=True)

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
    p.add_argument("--max-level", type=int, default=8)
    p.add_argument("--level", type=int, default=None,
                   help="evaluation level override")

    p = add("solve", cmd_solve, help="constructive coboundary solver")
    p.add_argument("--diagram", required=True)
    p.add_argument("--function", required=True)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--eps", type=float, default=0.25)
    p.add_argument("--max-level", type=int, default=8)

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
    except ObstructedError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 3
    except AdicError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return getattr(type(exc), "exit_code", 1)
    except OSError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    except json.JSONDecodeError as exc:
        sys.stderr.write("error: malformed JSON: %s\n" % exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
