"""Workload `coboundary`: the equation h = g o phi - g on many diagrams.

Each operation is one problem on one diagram.  The input is
h = g0 o phi - g0 for a seeded cylinder function g0 of level 1 to 3, built
with the benchmark's own composition; every fourth problem has a nonzero
constant added, which makes it obstructed.  The operation calls
`distributions`; an unobstructed problem then goes on to `solve` (with the
Hoelder norms) and to `birkhoff` along the orbit of the minimal path.

The diagrams are the four builtins and seeded random properly ordered
primitive stationary diagrams with one to three vertices.  Two kinds are
left out, because the package reports true coboundaries on them as
obstructed: singular repeating matrices, and three-vertex matrices whose
Perron root is not an integer.  Each diagram serves a few problems; its
tower is built once in set-up.
"""

from __future__ import annotations

import random
from fractions import Fraction

# Calls go through module attributes so that the traced run sees them.
from adic import catalog, cohomology, diagrams, martingale, measures, solver

import oracles

BUILTINS = ("odo2", "odo3", "fib", "pisot31")
# The random diagrams of one round, as (vertices, edges, transient of the
# min in-edge source map).  With at most three in-edges per vertex these fix
# the Perron root (2 or 3 for one and three vertices, 1+sqrt 2, (3+sqrt 5)/2
# or 1+sqrt 3 for two vertices and five edges, 3 for two vertices and six
# edges) and the level that h o phi needs, which between them set the cost
# of a problem, so that every seed gets the same mix of cheap and expensive
# problems.
ROUND = ((1, 2, 0), (1, 3, 0), (2, 5, 1), (2, 6, 1), (3, 6, 2), (3, 9, 1))
PROBLEMS_PER_DIAGRAM = 4
OBSTRUCTED_EVERY = 4
BIRKHOFF_STEPS = 3000
ALPHA = 3
# Rounds per second of run length, sized on a 2-core x86 machine.
ROUNDS_PER_SECOND = 4.0


def random_spec(rng, n, num_edges, transient):
    """JSON spec of a random properly ordered primitive stationary diagram
    with n vertices, the given edge count and min-side transient, a
    nonsingular matrix and, for n == 3, an integer Perron root."""
    while True:
        matrix = [[0] * n for _ in range(n)]
        for _ in range(num_edges):
            matrix[rng.randrange(n)][rng.randrange(n)] += 1
        # at most three in-edges per vertex pins the Perron root of a slot
        if max(sum(row) for row in matrix) > 3:
            continue
        if not oracles.is_primitive(matrix):
            continue
        if oracles.determinant(matrix) == 0:
            continue
        if n == 3 and oracles.integer_perron_root(matrix) is None:
            continue
        edges = [(w, v) for v in range(n) for w in range(n)
                 for _ in range(matrix[v][w])]
        rng.shuffle(edges)
        in_order = []
        for v in range(n):
            into = [e for e, (_, r) in enumerate(edges) if r == v]
            rng.shuffle(into)
            in_order.append(into)
        spec = {"stationary": True,
                "levels": [{"num_sources": n, "num_ranges": n,
                            "edges": [list(e) for e in edges],
                            "in_order": in_order}]}
        raw = oracles.RawDiagram(spec)
        try:
            if raw.transient(1)[0] != transient:
                continue
            raw.transient(-1)
        except ValueError:
            continue
        return spec


class Problem:
    def __init__(self, diagram, g0, constant, h):
        self.diagram = diagram     # index into Workload.diagrams
        self.g0 = g0               # oracles.Fn
        self.constant = constant   # added to g0 o phi - g0
        self.h = h                 # the package's function g0 o phi - g0 + c


class Workload:
    def __init__(self, seed, seconds):
        rng = random.Random(seed)
        rounds = max(1, round(seconds * ROUNDS_PER_SECOND))
        specs = [catalog.builtin_diagram(b).to_json_dict() for b in BUILTINS]
        for _ in range(rounds):
            specs += [random_spec(rng, *slot) for slot in ROUND]
        self.raws = [oracles.RawDiagram(s) for s in specs]
        self.diagrams = [diagrams.diagram_from_json_dict(s) for s in specs]
        self.problems = []
        for i, raw in enumerate(self.raws):
            for _ in range(PROBLEMS_PER_DIAGRAM):
                level = 1 + len(self.problems) % 3
                g0 = oracles.Fn(level, {
                    p: Fraction(rng.randint(-8, 8), 4)
                    for p in raw.paths(level)})
                obstructed = len(self.problems) % OBSTRUCTED_EVERY == \
                    OBSTRUCTED_EVERY - 1
                c = Fraction(rng.choice((-1, 1)) * rng.randint(1, 8), 4) \
                    if obstructed else Fraction(0)
                gphi = oracles.compose(raw, g0, 1)
                h = oracles.Fn(gphi.level, {
                    p: v - g0.at(raw, p) + c for p, v in gphi.values.items()})
                prob = Problem(i, g0, c, oracles.to_package(
                    martingale, self.diagrams[i], raw, h))
                self.problems.append(prob)
        self.starts = []
        for raw in self.raws:
            e = raw.in_order[raw.min_vertex()][0]
            self.starts.append(diagrams.lazy_from_json_dict(
                {"prefix": [e], "tail": {"periodic": [e]}}))
        self.towers = None

    def setup(self):
        self.towers = [cohomology.limit_rank(d, measures.renorm_data(d))
                       for d in self.diagrams]

    def operations(self):
        return [self._op(p) for p in self.problems]

    def _op(self, prob):
        d = self.diagrams[prob.diagram]
        tower = self.towers[prob.diagram]
        start = self.starts[prob.diagram]
        h = prob.h

        def run():
            dv = cohomology.distributions(h, tower)
            if not all(x.exact_zero for x in dv):
                return {"obstructed": True, "distributions": dv}
            sol = solver.solve(h, tower, alpha=ALPHA)
            rep = solver.birkhoff(d, h, start, BIRKHOFF_STEPS)
            return {"obstructed": False, "distributions": dv,
                    "solution": sol, "birkhoff": rep}
        return run

    def check(self, outputs):
        """Failure messages for outputs that disagree with the oracles or
        with properties the method must have."""
        bad = []
        for prob, out in zip(self.problems, outputs):
            bad += self.check_one(prob, out)
        return bad

    def check_one(self, prob, out):
        raw = self.raws[prob.diagram]
        d = self.diagrams[prob.diagram]
        where = "diagram %d" % prob.diagram
        if prob.constant != 0:
            # the mean of h is the constant, so the class cannot vanish
            if not out["obstructed"]:
                return ["%s: nonzero mean not reported obstructed" % where]
            return []
        if out["obstructed"]:
            return ["%s: true coboundary reported obstructed" % where]
        bad = []
        sol = out["solution"]
        if sol.residual != 0:
            bad.append("%s: residual %s" % (where, sol.residual))
        g = oracles.from_package(martingale, d, raw, sol.g)
        top = max(g.level, prob.g0.level, 1)
        diffs = {g.at(raw, p) - prob.g0.at(raw, p) for p in raw.paths(top)}
        if len(diffs) != 1:
            bad.append("%s: g - g0 is not constant" % where)
        rep = out["birkhoff"]
        x0 = oracles.orbit_value(raw, prob.g0, 0)
        for n, s in rep.checkpoints:
            want = oracles.orbit_value(raw, prob.g0, n) - x0 + \
                n * prob.constant
            if s != want:
                bad.append("%s: S_%d = %s, telescoping gives %s"
                           % (where, n, s, want))
                break
        return bad
