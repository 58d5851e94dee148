"""Workload `solenoid_metric`: the metric comparison of acceptance
criterion 08.

Each operation runs `solenoid.bilip_check` on a seeded batch of pairs of
level-8 cylinders, on odo2 (rational lengths) or fib (lengths in
Q(sqrt 5)).  The complexes up to level 12, which the conjugacy points of
level-8 paths with four extra levels use, and their exact diameters are
built in set-up.  Almost all of the time is exact `point_distance`
arithmetic.

Batch sizes follow a fixed schedule chosen so that the costs of odo2 and
fib operations interleave: the median and the 90th percentile then fall
inside a spread of costs, not on a gap between two clusters.
"""

from __future__ import annotations

import math
import random
from itertools import combinations

# Calls go through module attributes so that the traced run sees them.
from adic import catalog, diagrams, measures, solenoid

import oracles

LEVEL = 8
DEPTH_MARGIN = 4
EPSILON = 0.25
# Paths per operation in one round, per diagram; an operation checks all
# pairs among its paths.
BATCHES = {"odo2": (6, 7, 8, 9, 10, 11, 12), "fib": (3, 4, 4, 5, 5, 6)}
# Operations whose metric is also checked for symmetry.
SYMMETRY_CHECKS = 4
# Rounds per second of run length, sized on a 2-core x86 machine.
ROUNDS_PER_SECOND = 2.5


class Workload:
    def __init__(self, seed, seconds):
        rounds = max(1, round(seconds * ROUNDS_PER_SECOND))
        rng = random.Random(seed)
        self.diagrams, self.raws, self.paths = {}, {}, {}
        for name in BATCHES:
            d = catalog.builtin_diagram(name)
            self.diagrams[name] = d
            self.raws[name] = oracles.RawDiagram(d.to_json_dict())
            self.paths[name] = [diagrams.FinitePath(p)
                                for p in self.raws[name].paths(LEVEL)]
        self.ops = []  # (diagram name, [(i, j) path index pairs])
        for _ in range(rounds):
            for name, sizes in BATCHES.items():
                n = len(self.paths[name])
                for size in sizes:
                    chosen = sorted(rng.sample(range(n), size))
                    self.ops.append((name, list(combinations(chosen, 2))))
        rng.shuffle(self.ops)
        self.renorm = self.complexes = None

    def setup(self):
        self.renorm, self.complexes = {}, {}
        for name, d in self.diagrams.items():
            rd = measures.renorm_data(d)
            cxs = solenoid.cached_complexes(d, rd, LEVEL + DEPTH_MARGIN)
            for cx in cxs:
                solenoid.diameter(cx)
            self.renorm[name], self.complexes[name] = rd, cxs

    def operations(self):
        return [self._op(name, batch) for name, batch in self.ops]

    def _op(self, name, batch, swap=False):
        d, paths = self.diagrams[name], self.paths[name]
        pairs = [(paths[j], paths[i]) if swap else (paths[i], paths[j])
                 for i, j in batch]
        return lambda: solenoid.bilip_check(d, self.renorm[name], pairs,
                                            EPSILON, DEPTH_MARGIN)

    # -----------------------------------------------------------------------
    # checks

    def check(self, outputs):
        """Failure messages for reports that disagree with distances
        recomputed in floats, or with the metric's properties."""
        bad, symmetric = [], 0
        cache = {}
        for (name, batch), out in zip(self.ops, outputs):
            if out is None:
                continue
            want = self.oracle_report(name, batch, cache)
            where = "bilip_check on %s" % name
            if out["pairs_checked"] != want["pairs_checked"]:
                bad.append("%s: %d pairs checked, oracle %d"
                           % (where, out["pairs_checked"],
                              want["pairs_checked"]))
            for key in ("lower_constant", "worst_upper_slack"):
                if not math.isclose(out[key], want[key], rel_tol=1e-9,
                                    abs_tol=1e-9):
                    bad.append("%s: %s = %r, oracle %r"
                               % (where, key, out[key], want[key]))
            if not out["upper_bound_holds"] or want["worst_upper_slack"] > 0:
                bad.append("%s: dbar exceeds d / (lam - 1)" % where)
            if symmetric < SYMMETRY_CHECKS:
                symmetric += 1
                back = self._op(name, batch, swap=True)()
                if back["lower_constant"] != out["lower_constant"]:
                    bad.append("%s: metric not symmetric" % where)
        return bad

    def oracle_report(self, name, batch, cache):
        """pairs_checked, lower_constant and worst_upper_slack recomputed
        with float lengths and Dijkstra distances."""
        raw, rd = self.raws[name], self.renorm[name]
        lam = rd.lam_float
        depth = LEVEL + DEPTH_MARGIN
        if name not in cache:
            levels = []
            for k, cx in enumerate(self.complexes[name]):
                levels.append((oracles.level_lengths(raw, rd.roof, lam, k),
                               cx.start_class, cx.end_class,
                               float(solenoid.diameter(cx))))
            coords = {p: oracles.floor_heights(
                raw, rd.roof, lam, raw.extend_min_tail(p, depth), depth)
                for p in raw.paths(LEVEL)}
            cache[name] = (levels, coords)
        levels, coords = cache[name]
        paths = raw.paths(LEVEL)
        kbest, slack, checked = None, 0.0, 0
        for i, j in batch:
            p, q = paths[i], paths[j]
            dbar = sum(lam ** (-k) * oracles.graph_distance(
                lengths, start, end, coords[p][k], coords[q][k]) / diam
                for k, (lengths, start, end, diam) in enumerate(levels))
            first = next((t for t in range(LEVEL) if p[t] != q[t]), None)
            if first is None:
                continue
            checked += 1
            d = lam ** (-first)
            slack = max(slack, dbar - d / (lam - 1.0))
            ratio = dbar / d ** (1.0 + EPSILON)
            kbest = ratio if kbest is None else min(kbest, ratio)
        return {"pairs_checked": checked,
                "lower_constant": 0.0 if kbest is None else kbest,
                "worst_upper_slack": slack}
