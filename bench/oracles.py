"""Reference computations made apart from the adic package.

Everything here works from raw level data: the package's JSON diagram
format with one repeating level.  Nothing in this module imports adic, so a
fault in the package cannot hide itself by also being in its oracle.

Paths are tuples of edge indices, level 1 first.  Tower order is the order
of the diagram's spec: paths into one vertex, compared with the last level
most significant.  Successor and predecessor are the next and previous path
in that order, found by brute-force enumeration.  A function is an `Fn`: a
level and a dict from level-m paths (from vertices when m == 0) to exact
values.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction

import numpy


class RawDiagram:
    """A stationary ordered diagram given by one repeating level."""

    def __init__(self, spec):
        levels = spec["levels"]
        if len(levels) != 1 or not spec.get("stationary"):
            raise ValueError("oracles take one repeating level")
        lv = levels[0]
        self.n = lv["num_ranges"]
        self.edges = [tuple(e) for e in lv["edges"]]
        self.in_order = [list(o) for o in lv["in_order"]]
        self.matrix = [[0] * self.n for _ in range(self.n)]
        for s, r in self.edges:
            self.matrix[r][s] += 1
        self._towers = {}
        self._out_ranked = [
            sorted((e for e, (s, _) in enumerate(self.edges) if s == v),
                   key=lambda e: (self.in_order[self.rng(e)].index(e),
                                  self.rng(e)))
            for v in range(self.n)]

    def src(self, e):
        return self.edges[e][0]

    def rng(self, e):
        return self.edges[e][1]

    def towers(self, k):
        """(per-vertex lists of level-k paths in tower order, index map
        path -> (vertex, position))."""
        got = self._towers.get(k)
        if got is None:
            if k == 0:
                lists = [[()] for _ in range(self.n)]
            else:
                below, _ = self.towers(k - 1)
                lists = [[p + (e,) for e in self.in_order[v]
                          for p in below[self.src(e)]]
                         for v in range(self.n)]
            index = {p: (v, i) for v, lst in enumerate(lists)
                     for i, p in enumerate(lst)}
            got = self._towers[k] = (lists, index)
        return got

    def paths(self, k):
        """All level-k paths, grouped by range vertex, each group in tower
        order (the enumeration order of the package's vectors)."""
        lists, _ = self.towers(k)
        return [p for lst in lists for p in lst]

    def succ(self, p):
        """Next path in tower order at the same level; None at the top."""
        lists, index = self.towers(len(p))
        v, i = index[p]
        return lists[v][i + 1] if i + 1 < len(lists[v]) else None

    def pred(self, p):
        """Previous path in tower order at the same level; None at the
        floor."""
        lists, index = self.towers(len(p))
        v, i = index[p]
        return lists[v][i - 1] if i > 0 else None

    def shift(self, p, i):
        """A prefix of phi^i applied to a point of the cylinder of p, at
        least as long as p.  The move is taken in tower order at the first
        level where it stays inside one tower.  The point continues p by the
        shortest extension that makes room for the move, the earliest one
        when each further edge is ranked by (in-order position, range), so
        that no move wraps around an extreme path."""
        p = tuple(p)
        front = [p]
        for _ in range(2 * self.n + 2 + abs(i).bit_length()):
            for q in front:
                lists, index = self.towers(len(q))
                v, pos = index[q]
                if 0 <= pos + i < len(lists[v]):
                    return lists[v][pos + i]
            front = [q + (e,) for q in front
                     for e in self._out_ranked[self.rng(q[-1])]]
        raise ValueError("no room for the move near this cylinder")

    def extend_min_tail(self, p, k):
        """p continued to level k by its minimal tail: from each vertex the
        out-edge that comes earliest in its range's order, ties broken by
        range."""
        p = tuple(p)
        while len(p) < k:
            p = p + (self._out_ranked[self.rng(p[-1])][0],)
        return p

    def transient(self, side):
        """(T, v*): T is the least t for which the t-th power of the min
        (side=1) or max (side=-1) in-edge source map has a single image."""
        pick = 0 if side == 1 else -1
        fmap = [self.src(self.in_order[v][pick]) for v in range(self.n)]
        cur, t = set(range(self.n)), 0
        while len(cur) > 1:
            cur = {fmap[v] for v in cur}
            t += 1
            if t > self.n:
                raise ValueError("extreme path is not unique")
        return t, cur.pop()

    def min_vertex(self):
        """The vertex that the minimal infinite path passes at every
        level: the fixed point of the min in-edge source map."""
        return self.transient(1)[1]


def is_primitive(matrix):
    """Some power of the matrix is positive (Wielandt's bound)."""
    n = len(matrix)
    pos = [[x > 0 for x in row] for row in matrix]
    cur = pos
    for _ in range((n - 1) ** 2 + 1):
        if all(all(row) for row in cur):
            return True
        cur = [[any(cur[i][k] and pos[k][j] for k in range(n))
                for j in range(n)] for i in range(n)]
    return all(all(row) for row in cur)


def determinant(matrix):
    """Exact determinant by fraction elimination."""
    m = [[Fraction(x) for x in row] for row in matrix]
    n, det = len(m), Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return det


def integer_perron_root(matrix):
    """The Perron root when it is an integer, else None: the spectral
    radius, located in floats and confirmed exactly as a root."""
    rho = max(abs(x) for x in numpy.linalg.eigvals(
        numpy.array(matrix, dtype=float)))
    r = round(rho)
    if abs(rho - r) > 1e-6:
        return None
    n = len(matrix)
    shifted = [[matrix[i][j] - (r if i == j else 0) for j in range(n)]
               for i in range(n)]
    return r if determinant(shifted) == 0 else None


# ---------------------------------------------------------------------------
# cylinder functions

class Fn:
    """A cylinder function: level m and values on level-m paths (on source
    vertices when m == 0)."""

    def __init__(self, level, values):
        self.level = level
        self.values = values

    def at(self, raw, p):
        if self.level == 0:
            return self.values[raw.src(p[0])]
        return self.values[p[:self.level]]


def to_package(martingale, diagram, raw, f):
    """The package's cylinder function with the values of f; the package's
    vectors list level-m values in `RawDiagram.paths` order, level-0 values
    by vertex.  `martingale` is the package module, passed in so that this
    module never imports the package."""
    keys = range(raw.n) if f.level == 0 else raw.paths(f.level)
    return martingale.from_vector(diagram, f.level,
                                  [f.values[p] for p in keys])


def from_package(martingale, diagram, raw, f):
    """The Fn with the values of the package's cylinder function f."""
    keys = range(raw.n) if f.level == 0 else raw.paths(f.level)
    return Fn(f.level, dict(zip(keys, martingale.as_vector(diagram, f))))


def compose(raw, f, power):
    """f o phi^power, as a function of level max(m + |power| T, 1), each
    value taken at one point of its cylinder (see RawDiagram.shift)."""
    if power == 0:
        return f
    t, _ = raw.transient(1 if power > 0 else -1)
    level = max(f.level + abs(power) * t, 1)
    return Fn(level, {p: f.at(raw, raw.shift(p, power))
                      for p in raw.paths(level)})


def convolve(raw, a, b):
    """(ab)(k) = sum_i a(i) (b(k - i) o phi^{-i}) for elements given as
    dicts k -> Fn, evaluated pointwise on the finest cylinders any term
    needs.  Zero coefficients are dropped."""
    terms = {}
    for i, ai in a.items():
        for j, bj in b.items():
            terms.setdefault(i + j, []).append((ai, compose(raw, bj, -i)))
    out = {}
    for k, pairs in terms.items():
        level = max(max(x.level, y.level, 1) for x, y in pairs)
        vals = {p: sum((x.at(raw, p) * y.at(raw, p) for x, y in pairs),
                       Fraction(0))
                for p in raw.paths(level)}
        if any(v != 0 for v in vals.values()):
            out[k] = Fn(level, vals)
    return out


def involution(raw, a):
    """a*(k) = a(-k) o phi^{-k}."""
    return {-k: compose(raw, f, k) for k, f in a.items()}


def power(raw, a, n):
    out = {0: Fn(0, {v: Fraction(1) for v in range(raw.n)})}
    for _ in range(n):
        out = convolve(raw, out, a)
    return out


def holder_norm(raw, f, alpha, lam):
    """sup |f| plus sup over cylinder pairs of |f(x) - f(y)| / d(x, y)^alpha
    with d = lam^-(j-1) at the first disagreeing level j, by brute force
    over all pairs of cylinders."""
    g = f if f.level >= 1 else Fn(1, {p: f.at(raw, p) for p in raw.paths(1)})
    items = [(p, float(v)) for p, v in g.values.items()]
    sup = max((abs(v) for _, v in items), default=0.0)
    semi = 0.0
    for x in range(len(items)):
        p, u = items[x]
        for y in range(x + 1, len(items)):
            q, w = items[y]
            if u == w:
                continue
            j = next(i for i in range(g.level) if p[i] != q[i])
            semi = max(semi, abs(u - w) * lam ** (j * alpha))
    return sup + semi


def norms(raw, a, alpha, lam, s, q, tri):
    """l1, weighted and tail norms of an element, by the definitions: the
    weights are tri^((alpha+s)|k|) when the distortion estimate tri exceeds
    1, and (1+|k|)^s otherwise; mu_q is the largest weighted tail sum over
    N = -1 .. max |k|."""
    by_k = {k: holder_norm(raw, f, alpha, lam) for k, f in a.items()}
    expo = tri > 1.0
    l1 = sum(by_k.values())
    s_alpha = sum(v * (tri ** ((alpha + s) * abs(k)) if expo
                       else (1.0 + abs(k)) ** s) for k, v in by_k.items())
    mu = 0.0
    for n in range(-1, max((abs(k) for k in a), default=0) + 1):
        tail = sum(v for k, v in by_k.items() if abs(k) > n)
        w = tri ** ((alpha + q) * (n + 1)) if expo else (n + 1.0) ** q
        mu = max(mu, w * tail)
    return {"l1_alpha": l1, "s_alpha": s_alpha, "mu_q": mu}


def one_minus(raw, a):
    """1 - a."""
    out = {k: Fn(f.level, {x: -v for x, v in f.values.items()})
           for k, f in a.items()}
    c0 = out.get(0, Fn(0, {v: Fraction(0) for v in range(raw.n)}))
    out[0] = Fn(c0.level, {x: v + 1 for x, v in c0.values.items()})
    return out


def same_function(raw, f, g):
    """f == g on every cylinder of the finer of their levels."""
    top = max(f.level, g.level, 1)
    return all(f.at(raw, p) == g.at(raw, p) for p in raw.paths(top))


def same_element(raw, a, b):
    """Equal elements; a shift missing from one side must be zero on the
    other."""
    for k in set(a) | set(b):
        fa, fb = a.get(k), b.get(k)
        if fa is None or fb is None:
            if any(v != 0 for v in (fa or fb).values.values()):
                return False
        elif not same_function(raw, fa, fb):
            return False
    return True


# ---------------------------------------------------------------------------
# orbit sums

def tower_height(raw, v, k):
    counts = [1] * raw.n
    for _ in range(k):
        counts = [sum(counts[raw.src(e)] for e in raw.in_order[u])
                  for u in range(raw.n)]
    return counts[v]


def orbit_value(raw, f, n):
    """f at phi^n of the minimal infinite path.  That path runs through the
    minimal vertex at every level, so phi^n of it is the n-th path of the
    minimal vertex's tower at any level where that tower is taller than n;
    the path is read off digit by digit from tower heights."""
    v = raw.min_vertex()
    k = max(f.level, 1)
    while tower_height(raw, v, k) <= n:
        k += 1
    edges = []
    for level in range(k, 0, -1):
        for e in raw.in_order[v]:
            h = tower_height(raw, raw.src(e), level - 1)
            if n < h:
                edges.append(e)
                v = raw.src(e)
                break
            n -= h
    edges.reverse()
    return f.at(raw, tuple(edges))


# ---------------------------------------------------------------------------
# solenoid distances in floats

def level_lengths(raw, roof, lam, k):
    """Float edge lengths of the level-k approximant: lam^-k (A^k roof)."""
    h = [float(x) for x in roof]
    for _ in range(k):
        h = [sum(raw.matrix[v][w] * h[w] for w in range(raw.n))
             for v in range(raw.n)]
    return [lam ** (-k) * x for x in h]


def floor_heights(raw, roof, lam, p, k):
    """Float coordinates of the conjugacy point of path p at level k: the
    range vertex of p's first k edges and the height of their floor in that
    tower, in level-k units."""
    below = [float(x) for x in roof]
    height = 0.0
    coords = [(raw.src(p[0]), 0.0)]
    for i in range(1, k + 1):
        e = p[i - 1]
        v = raw.rng(e)
        for f in raw.in_order[v]:
            if f == e:
                break
            height += below[raw.src(f)]
        coords.append((v, lam ** (-i) * height))
        below = [sum(raw.matrix[u][w] * below[w] for w in range(raw.n))
                 for u in range(raw.n)]
    return coords


def graph_distance(lengths, start_class, end_class, a, b):
    """Shortest-path length between points a = (edge, offset) and
    b = (edge, offset) of a metric graph, by Dijkstra over the end classes
    with both points inserted as nodes."""
    (u, t), (v, s) = a, b
    best = abs(t - s) if u == v else math.inf
    adj = {}
    for e, ln in enumerate(lengths):
        x, y = ("c", start_class[e]), ("c", end_class[e])
        adj.setdefault(x, []).append((y, ln))
        adj.setdefault(y, []).append((x, ln))
    src = ("p",)
    adj[src] = [(("c", start_class[u]), t),
                (("c", end_class[u]), lengths[u] - t)]
    goal = {}
    for node, rest in ((("c", start_class[v]), s),
                       (("c", end_class[v]), lengths[v] - s)):
        goal[node] = min(rest, goal.get(node, math.inf))
    dist = {src: 0.0}
    heap = [(0.0, 0, src)]
    tick = 1
    while heap:
        d, _, node = heapq.heappop(heap)
        if d > dist.get(node, math.inf):
            continue
        if node in goal:
            best = min(best, d + goal[node])
        for nb, w in adj.get(node, ()):
            nd = d + w
            if nd < dist.get(nb, math.inf):
                dist[nb] = nd
                heapq.heappush(heap, (nd, tick, nb))
                tick += 1
    return best
