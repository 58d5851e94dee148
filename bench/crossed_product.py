"""Workload `crossed_product`: the crossed-product algebra on odo2 and
pisot31.

A round holds, on each of the two diagrams, `convolve` products,
involutions, `norms`, traces of ab and ba against the class tower, and
powers f^n for n = 1..4 (the products of the Jolissaint identity), plus one
Neumann inverse on odo2.  Elements have the shapes of the algebra suite in
the acceptance tests: on odo2 coefficients of level <= 3 at shifts |k| <= 2,
at most five of them; on pisot31 level <= 2, |k| <= 1, at most three.

The shapes (shifts and levels) of every operation come from one fixed
generator, so that every seed runs the same mix of cheap and expensive
products; the seed draws the coefficient values, the norm exponents and the
order of the operations.  Nearly all the time goes to composing
coefficients with powers of the adic map at deep cylinder levels.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

# Calls go through module attributes so that the traced run sees them.
from adic import algebra, catalog, cohomology, martingale, measures

import oracles

ALPHA = 3
# (name, max level, window, max support) as in the acceptance suite.
SHAPES = (("odo2", 3, 2, 5), ("pisot31", 2, 1, 3))
# Operations per diagram in one round.
ROUND = (("convolve", 4), ("involution", 2), ("norms", 2), ("trace", 2),
         ("power", 4))
NEUMANN_TOL = Fraction(1, 10 ** 4)
SHAPE_SEED = 20241010
# Products per diagram whose associativity and involution identities are
# checked.
PROPERTY_CHECKS = 4
# Rounds per second of run length, sized on a 2-core x86 machine.
ROUNDS_PER_SECOND = 4.0


def _nonzero(rng):
    return Fraction(rng.choice([x for x in range(-8, 9) if x]), 4)


class Workload:
    def __init__(self, seed, seconds):
        rounds = max(1, round(seconds * ROUNDS_PER_SECOND))
        shape_rng = random.Random(SHAPE_SEED)
        rng = random.Random(seed)
        self.diagrams, self.raws = {}, {}
        for name, _, _, _ in SHAPES:
            d = catalog.builtin_diagram(name)
            self.diagrams[name] = d
            self.raws[name] = oracles.RawDiagram(d.to_json_dict())
        self.lam = {"odo2": 2, "pisot31": 4}
        self.ops = []  # (kind, diagram name, args)
        for _ in range(rounds):
            for name, max_level, window, max_support in SHAPES:
                def shape():
                    ks = shape_rng.sample(range(-window, window + 1),
                                          shape_rng.randint(1, max_support))
                    return {k: shape_rng.randint(0, max_level) for k in ks}
                for kind, count in ROUND:
                    for i in range(count):
                        if kind in ("convolve", "trace"):
                            args = (shape(), shape())
                        elif kind == "power":
                            args = (shape(), i + 1)
                        else:
                            args = (shape(),)
                        self.ops.append((kind, name, args))
            neumann = {k: shape_rng.randint(0, 2) for k in (-1, 1)}
            self.ops.append(("neumann", "odo2", (neumann,)))
        rng.shuffle(self.ops)
        self.inputs = [self._inputs(rng, kind, name, args)
                       for kind, name, args in self.ops]
        self.pkg_inputs = [[self.pkg_element(name, x) if isinstance(x, dict)
                            else x for x in inp]
                           for (_, name, _), inp in zip(self.ops,
                                                        self.inputs)]
        self.towers = self.triangles = None

    def _fn(self, rng, name, level):
        raw = self.raws[name]
        if level == 0:
            c = _nonzero(rng)
            return oracles.Fn(0, {v: c for v in range(raw.n)})
        return oracles.Fn(level, {p: _nonzero(rng) for p in raw.paths(level)})

    def _element(self, rng, name, shape):
        return {k: self._fn(rng, name, level)
                for k, level in sorted(shape.items())}

    def pkg_element(self, name, el):
        """The package's element for an oracle element dict."""
        d, raw = self.diagrams[name], self.raws[name]
        return algebra.element(d, self.lam[name], ALPHA, {
            k: oracles.to_package(martingale, d, raw, f)
            for k, f in el.items()})

    def oracle_element(self, name, a):
        """The oracle's element dict for a package element."""
        d, raw = self.diagrams[name], self.raws[name]
        return {k: oracles.from_package(martingale, d, raw, f)
                for k, f in a.coeffs.items()}

    def _inputs(self, rng, kind, name, args):
        if kind in ("convolve", "trace"):
            return [self._element(rng, name, s) for s in args]
        if kind == "power":
            return [self._element(rng, name, args[0]), args[1]]
        if kind == "norms":
            return [self._element(rng, name, args[0]),
                    rng.choice((0, 1, 2)), rng.choice((1, 2))]
        # neumann: 1 - p with p scaled to weighted norm 2/5, inside the
        # Neumann regime ||1 - h|| < 1/2 (the odometer's map is an
        # isometry, so the distortion estimate is 1)
        raw = self.raws[name]
        p = self._element(rng, name, args[0])
        n0 = oracles.norms(raw, p, ALPHA, 2.0, ALPHA, 1, 1.0)["s_alpha"]
        c = Fraction(2, 5) / Fraction(n0).limit_denominator(10 ** 9)
        return [oracles.one_minus(raw, {
            k: oracles.Fn(f.level, {x: c * v for x, v in f.values.items()})
            for k, f in p.items()})]

    def setup(self):
        self.towers, self.triangles = {}, {}
        for name, d in self.diagrams.items():
            rd = measures.renorm_data(d)
            self.towers[name] = cohomology.limit_rank(d, rd)
            self.triangles[name] = algebra.triangle_phi(
                d, 3, float(self.lam[name])).value

    def operations(self):
        return [self._op(kind, name, inp)
                for (kind, name, _), inp in zip(self.ops, self.pkg_inputs)]

    def _op(self, kind, name, inp):
        a = inp[0]
        if kind == "neumann":
            return lambda: algebra.neumann_invert(a, tol=float(NEUMANN_TOL))
        if kind == "convolve":
            return lambda: algebra.convolve(a, inp[1])
        if kind == "involution":
            return lambda: algebra.involution(a)
        if kind == "power":
            return lambda: algebra.power(a, inp[1])
        if kind == "norms":
            tri = self.triangles[name]
            return lambda: algebra.norms(a, inp[1], inp[2], triangle=tri)
        b = inp[1]
        tower = self.towers[name]

        def trace_pair():
            ab, ba = algebra.convolve(a, b), algebra.convolve(b, a)
            level = max([e.coeffs[0].level for e in (ab, ba)
                         if 0 in e.coeffs] + [1])
            return (ab, algebra.trace(ab, tower, at_level=level),
                    algebra.trace(ba, tower, at_level=level))
        return trace_pair

    # -----------------------------------------------------------------------
    # checks

    def check(self, outputs):
        """Failure messages for outputs that disagree with the oracles or
        with properties the algebra must have."""
        rng = random.Random(len(self.ops))
        bad = []
        props = {name: 0 for name in self.diagrams}
        for (kind, name, args), inp, out in zip(self.ops, self.inputs,
                                                outputs):
            if out is None:
                continue
            raw = self.raws[name]
            where = "%s on %s" % (kind, name)
            if kind == "convolve":
                a, b = inp
                if not oracles.same_element(raw, self.oracle_element(
                        name, out), oracles.convolve(raw, a, b)):
                    bad.append(where + ": product differs from the oracle")
                if props[name] < PROPERTY_CHECKS:
                    props[name] += 1
                    bad += self._properties(rng, name, inp, out)
            elif kind == "involution":
                if not oracles.same_element(raw, self.oracle_element(
                        name, out), oracles.involution(raw, inp[0])):
                    bad.append(where + ": differs from the oracle")
            elif kind == "power":
                if not oracles.same_element(raw, self.oracle_element(
                        name, out), oracles.power(raw, inp[0], inp[1])):
                    bad.append(where + ": differs from the oracle")
            elif kind == "norms":
                a, s, q = inp
                want = oracles.norms(raw, a, ALPHA, float(self.lam[name]), s,
                                     q, self.triangles[name])
                for key, value in want.items():
                    if not math.isclose(out[key], value, rel_tol=1e-9,
                                        abs_tol=1e-12):
                        bad.append("%s: %s = %r, oracle %r"
                                   % (where, key, out[key], value))
            elif kind == "trace":
                ab, ta, tb = out
                if not oracles.same_element(raw, self.oracle_element(
                        name, ab), oracles.convolve(raw, *inp)):
                    bad.append(where + ": ab differs from the oracle")
                if [x.numerator for x in ta] != [x.numerator for x in tb]:
                    bad.append(where + ": tau(ab) != tau(ba)")
            else:
                h = inp[0]
                inv = self.oracle_element(name, out.element)
                res = oracles.one_minus(raw, oracles.convolve(raw, h, inv))
                got = sum(oracles.holder_norm(raw, f, ALPHA, 2.0)
                          for f in res.values())
                if not got <= float(NEUMANN_TOL):
                    bad.append("%s: residual %r over %s"
                               % (where, got, NEUMANN_TOL))
                if not math.isclose(got, out.residual, rel_tol=1e-6,
                                    abs_tol=1e-15):
                    bad.append("%s: residual %r, oracle %r"
                               % (where, out.residual, got))
        return bad

    def _properties(self, rng, name, inp, ab):
        """(ab)c == a(bc) and (ab)* == b* a*, with the package's own
        operations, for a small element c."""
        raw = self.raws[name]
        a, b = (self.pkg_element(name, e) for e in inp)
        c = self.pkg_element(name, self._element(rng, name, {
            k: rng.randint(0, 1) for k in rng.sample((-1, 0, 1),
                                                     rng.randint(1, 2))}))
        bad = []
        left = algebra.convolve(ab, c)
        right = algebra.convolve(a, algebra.convolve(b, c))
        if not oracles.same_element(raw, self.oracle_element(name, left),
                                    self.oracle_element(name, right)):
            bad.append("convolve on %s: not associative" % name)
        star = algebra.involution(ab)
        swapped = algebra.convolve(algebra.involution(b),
                                   algebra.involution(a))
        if not oracles.same_element(raw, self.oracle_element(name, star),
                                    self.oracle_element(name, swapped)):
            bad.append("involution on %s: (ab)* != b* a*" % name)
        return bad
