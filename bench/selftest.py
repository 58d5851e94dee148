"""Self-test of the benchmark: `python3 bench/run.py --selftest`.

It checks that
- the oracles agree with the package on tiny inputs (successor and
  predecessor, composition with the map, products and involutions, Hoelder
  norms, orbit sums, solenoid distances);
- a tampered output fails its workload's check: a solution g bent by a
  non-constant, a product with one coefficient changed, a perturbed metric
  value;
- every span's self time plus its children's lengths equals its length;
- a wrapped function that no longer exists reads 0 and is reported.

Exit code 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import math
import random
import types
from fractions import Fraction

import oracles


class Tally:
    def __init__(self):
        self.failures = []
        self.passed = 0

    def expect(self, ok, what):
        if ok:
            self.passed += 1
        else:
            self.failures.append(what)
            print("selftest FAILED: %s" % what)


def _tiny_diagrams(pkg):
    import coboundary
    rng = random.Random(5)
    specs = [pkg["catalog"].builtin_diagram(b).to_json_dict()
             for b in ("odo2", "odo3", "fib", "pisot31")]
    specs += [coboundary.random_spec(rng, *slot) for slot in coboundary.ROUND]
    return [(pkg["diagrams"].diagram_from_json_dict(s), oracles.RawDiagram(s))
            for s in specs]


def _pkg_fn(pkg, d, raw, f):
    return oracles.to_package(pkg["martingale"], d, raw, f)


def _oracle_fn(pkg, d, raw, f):
    return oracles.from_package(pkg["martingale"], d, raw, f)


def check_oracles(pkg, tally):
    dg, mg, alg, sv = (pkg["diagrams"], pkg["martingale"], pkg["algebra"],
                       pkg["solver"])
    rng = random.Random(11)
    for d, raw in _tiny_diagrams(pkg):
        name = "diagram %s" % (raw.edges,)
        # successor and predecessor inside towers
        for k in (1, 2, 3):
            for p in raw.paths(k):
                lazy = dg.LazyPath(dg.FinitePath(p), dg.TAIL_MIN)
                for step, want in ((1, raw.succ(p)), (-1, raw.pred(p))):
                    if want is None:
                        continue
                    got = dg.materialize(d, dg.successor(d, lazy, step), k)
                    tally.expect(got.edges == want, "%s: step %d of %s"
                                 % (name, step, p))
        # composition with the map and its inverse
        f = oracles.Fn(2, {p: Fraction(rng.randint(-8, 8), 4)
                           for p in raw.paths(2)})
        sides = (1, -1)
        try:
            raw.transient(-1)
        except ValueError:
            sides = (1,)   # fib: the maximal path is not unique
        for power in sides:
            got = _oracle_fn(pkg, d, raw, mg.compose_phi(
                d, _pkg_fn(pkg, d, raw, f), power))
            tally.expect(oracles.same_function(
                raw, got, oracles.compose(raw, f, power)),
                "%s: compose_phi power %d" % (name, power))
        # Hoelder norm
        got = mg.holder_norm(d, _pkg_fn(pkg, d, raw, f), 3.0, 2.0)["norm"]
        want = oracles.holder_norm(raw, f, 3.0, 2.0)
        tally.expect(math.isclose(got, want, rel_tol=1e-12),
                     "%s: holder_norm %r, oracle %r" % (name, got, want))
        # orbit sums telescope along the minimal path
        h = oracles.compose(raw, f, 1)
        h = oracles.Fn(h.level, {p: v - f.at(raw, p)
                                 for p, v in h.values.items()})
        e = raw.in_order[raw.min_vertex()][0]
        start = dg.lazy_from_json_dict({"prefix": [e],
                                        "tail": {"periodic": [e]}})
        rep = sv.birkhoff(d, _pkg_fn(pkg, d, raw, h), start, 300)
        x0 = oracles.orbit_value(raw, f, 0)
        tally.expect(all(s == oracles.orbit_value(raw, f, n) - x0
                         for n, s in rep.checkpoints),
                     "%s: birkhoff against telescoping" % name)
    # products and involutions on the algebra's two diagrams
    for bname, lam in (("odo2", 2), ("pisot31", 4)):
        d = pkg["catalog"].builtin_diagram(bname)
        raw = oracles.RawDiagram(d.to_json_dict())

        def rand_el():
            return {k: oracles.Fn(lv, {p: Fraction(rng.randint(-8, 8), 4)
                                       for p in raw.paths(lv)})
                    for k, lv in ((rng.choice((-1, 0, 1)), rng.randint(1, 2)),
                                  (rng.choice((-2, 2)), 1))}

        def pkg_el(el):
            return alg.element(d, lam, 3, {k: _pkg_fn(pkg, d, raw, f)
                                           for k, f in el.items()})

        def oracle_el(a):
            return {k: _oracle_fn(pkg, d, raw, f) for k, f in a.coeffs.items()}

        for _ in range(3):
            a, b = rand_el(), rand_el()
            tally.expect(oracles.same_element(
                raw, oracle_el(alg.convolve(pkg_el(a), pkg_el(b))),
                oracles.convolve(raw, a, b)), "%s: convolve" % bname)
            tally.expect(oracles.same_element(
                raw, oracle_el(alg.involution(pkg_el(a))),
                oracles.involution(raw, a)), "%s: involution" % bname)
    # solenoid distances in floats
    import solenoid_metric
    w = solenoid_metric.Workload(3, 0.1)
    w.ops = w.ops[:2]
    w.setup()
    outputs = [op() for op in w.operations()]
    tally.expect(not w.check(outputs), "solenoid distances against floats")
    return w, outputs


def check_tampering(pkg, tally, solenoid_run):
    import coboundary
    import crossed_product
    # coboundary: bend a solution g by a non-constant
    w = coboundary.Workload(2, 0.1)
    w.setup()
    outputs = [op() for op in w.operations()]
    tally.expect(not w.check(outputs), "coboundary outputs pass untouched")
    i = next(i for i, o in enumerate(outputs) if not o["obstructed"])
    prob, out = w.problems[i], outputs[i]
    d = w.diagrams[prob.diagram]
    vec = list(pkg["martingale"].as_vector(d, out["solution"].g))
    vec[0] += 1
    bent = dataclasses.replace(out["solution"], g=pkg["martingale"]
                               .from_vector(d, out["solution"].g.level, vec))
    tally.expect(w.check_one(prob, dict(out, solution=bent)),
                 "coboundary check catches a bent solution")
    # crossed product: change one coefficient of a product
    w = crossed_product.Workload(2, 0.1)
    w.setup()
    outputs = [op() for op in w.operations()]
    tally.expect(not w.check(outputs), "crossed_product outputs pass")
    i = next(i for i, (kind, _, _) in enumerate(w.ops) if kind == "convolve")
    name = w.ops[i][1]
    d, out = w.diagrams[name], outputs[i]
    k = min(out.coeffs)
    vec = list(pkg["martingale"].as_vector(d, out.coeffs[k]))
    vec[-1] += Fraction(1, 4)
    coeffs = dict(out.coeffs)
    coeffs[k] = pkg["martingale"].from_vector(d, out.coeffs[k].level, vec)
    tampered = list(outputs)
    tampered[i] = pkg["algebra"].element(d, out.lam, out.alpha, coeffs)
    tally.expect(w.check(tampered),
                 "crossed_product check catches a changed coefficient")
    # solenoid metric: perturb one reported value
    w, outputs = solenoid_run
    tampered = list(outputs)
    tampered[0] = dict(outputs[0], lower_constant=outputs[0][
        "lower_constant"] * (1 + 1e-6))
    tally.expect(w.check(tampered),
                 "solenoid_metric check catches a perturbed metric value")


def check_spans(pkg, tally):
    import coboundary
    import spans
    w = coboundary.Workload(4, 0.1)
    rec = spans.Recorder(pkg)
    rec.install()
    try:
        w.setup()
        for op in w.operations():
            op()
    finally:
        rec.uninstall()
    tally.expect(len(rec.name_of) > 0 and max(rec.parent) >= 0,
                 "traced run records nested spans")
    tally.expect(not rec.check_self_times(),
                 "self time plus children's time equals span length")
    tally.expect(pkg["martingale"].compose_phi.__name__ == "compose_phi"
                 and not hasattr(pkg["martingale"].compose_phi,
                                 "__wrapped__"),
                 "uninstall restores the package's functions")
    metrics = rec.metrics(0.0)
    names = [n for n, _ in spans.metric_names()]
    tally.expect(sorted(metrics) == sorted(names),
                 "traced run reports every per-layer metric")
    # a function that no longer exists reads 0 and is reported
    gone = dict(pkg)
    gone["martingale"] = types.SimpleNamespace(**{
        k: v for k, v in vars(pkg["martingale"]).items()
        if k != "holder_norm"})
    rec = spans.Recorder(gone)
    tally.expect(rec.missing == ["martingale.holder_norm"],
                 "a missing function is reported")
    rec.install()
    rec.uninstall()
    tally.expect(rec.metrics(0.0)["martingale.holder_norm.self_s"]["value"]
                 == 0, "a missing function reads 0")


def main(pkg):
    tally = Tally()
    solenoid_run = check_oracles(pkg, tally)
    check_tampering(pkg, tally, solenoid_run)
    check_spans(pkg, tally)
    print("selftest: %d checks passed, %d failed"
          % (tally.passed, len(tally.failures)))
    return 0 if not tally.failures else 1
