"""Graph approximants of the solenoid, their wrapping maps, and the
finite-level conjugacy between path space and the inverse limit.

The level-k approximant has one oriented edge per level-k vertex, of exact
length lam^(-k) h_k(v), h_k the level-k tower heights of
`measures.RenormData.tower_heights`.  Endpoint gluing combines successor
adjacency (consecutive in-edges at any higher level, pushed down through
max/min source maps) with the wrap rule joining every eventually-maximal
tower end to every eventually-minimal tower start.  Gluing needs the level
data to repeat from some level on, so complexes are built for stationary
diagrams only.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property
from math import inf

from .diagrams import (LazyPath, TAIL_MIN, eventual_image, materialize,
                       owned, path_source)
from .errors import NotStationaryError, NumericError, PreconditionError


class ApproxComplex(namedtuple("ApproxComplex", "level lengths start_class "
                               "end_class classes glued_pairs")):
    """The level complex: lengths, an exact scalar per edge (one edge per
    vertex); start_class and end_class, the vertex class of the negative
    and of the positive end of each edge; classes, the members of each
    class as (sign, edge) with sign in -+; glued_pairs, (a, b) where the
    end of e_a meets the start of e_b."""

    @property
    def num_edges(self):
        return len(self.lengths)

    def total_length(self):
        total = self.lengths[0]
        for x in self.lengths[1:]:
            total = total + x
        return total

    # Metric tables, computed once per instance and kept outside the
    # tuple, so equality and hashing see only the exact data.

    @cached_property
    def distances(self):
        """All-pairs shortest path between vertex classes, exact
        scalars."""
        n = len(self.classes)
        dist = [[None] * n for _ in range(n)]
        for i in range(n):
            dist[i][i] = 0
        for v in range(self.num_edges):
            a, b = self.start_class[v], self.end_class[v]
            if a == b:
                continue
            if dist[a][b] is None or self.lengths[v] < dist[a][b]:
                dist[a][b] = self.lengths[v]
                dist[b][a] = self.lengths[v]
        for m in range(n):
            for i in range(n):
                if dist[i][m] is None:
                    continue
                for j in range(n):
                    if dist[m][j] is None:
                        continue
                    via = dist[i][m] + dist[m][j]
                    if dist[i][j] is None or via < dist[i][j]:
                        dist[i][j] = via
                        dist[j][i] = via
        return tuple(tuple(row) for row in dist)

    @cached_property
    def diameter(self):
        """Exact diameter over all point pairs of the metric graph."""
        n = self.num_edges
        return max(_pair_diameter(self, u, v)
                   for u in range(n) for v in range(u, n))

    @cached_property
    def float_distances(self):
        return tuple(tuple(inf if x is None else float(x) for x in row)
                     for row in self.distances)

    @cached_property
    def float_diameter(self):
        return float(self.diameter)


class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, a):
        while self.parent[a] != a:
            self.parent[a] = self.parent[self.parent[a]]
            a = self.parent[a]
        return a

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def gluing_pairs(diagram, k):
    """Pairs (a, b) of level-k vertices with the positive end of tower a
    meeting the negative end of tower b.

    Successor adjacency at level j > k contributes consecutive in-edge
    sources pushed down through the max (left slot) and min (right slot)
    source maps of levels j-1 to k+1: from the repeating level on, the
    closure of its pairs under its push, with the wrap rule's (eventual max
    image) x (eventual min image); each prefix level below pushes them
    down one level and adds its own pairs."""
    if not diagram.stationary:
        raise NotStationaryError()
    top, pairs = max(k, len(diagram.levels) - 1), set()
    for j in range(top + 1, k, -1):
        ld = diagram.level(j)
        mmap, bigm = ld.source_map
        pairs = {(bigm[a], mmap[b]) for a, b in pairs} | {
            (ld.source(f), ld.source(g)) for order in ld.in_order
            for f, g in zip(order, order[1:])}
        if j > top:
            pairs |= {(a, b) for a in eventual_image(bigm)
                      for b in eventual_image(mmap)}
            frontier = set(pairs)
            while frontier:
                frontier = {(bigm[a], mmap[b]) for a, b in frontier} - pairs
                pairs |= frontier
    return tuple(sorted(pairs))


ClassGraph = namedtuple("ClassGraph",
                        "start_class end_class classes glued_pairs")


def class_graph(diagram, k):
    """The ends of the level-k approximant, one edge per vertex of V_k,
    glued by `gluing_pairs` into classes, the fields of `ApproxComplex`
    after its lengths.  It reads no lengths, so it needs no roof."""
    n, pairs = diagram.num_vertices(k), gluing_pairs(diagram, k)
    uf = _UnionFind(2 * n)  # boundary ids: 2v start, 2v+1 end
    for a, b in pairs:
        uf.union(2 * a + 1, 2 * b)
    roots = sorted({uf.find(i) for i in range(2 * n)})
    renum = {r: i for i, r in enumerate(roots)}
    members = [[] for _ in roots]
    for i in range(2 * n):
        members[renum[uf.find(i)]].append(("-" if i % 2 == 0 else "+", i // 2))
    return ClassGraph(tuple(renum[uf.find(2 * v)] for v in range(n)),
                      tuple(renum[uf.find(2 * v + 1)] for v in range(n)),
                      tuple(tuple(m) for m in members), pairs)


def build_complex(diagram, renorm, k):
    """The level-k approximant: one edge per vertex v of V_k, of exact
    length lam^(-k) h_k(v), h_k the level-k tower heights, with its ends
    glued into `class_graph`.  From the last level j that does not repeat
    on, these lengths are those of level j; below j the heights are unique
    but may be negative, which refuses the complex."""
    scale = renorm.lam_inverse ** k if k else 1
    lengths = tuple(scale * h for h in renorm.tower_heights(k))
    if any(x < 0 for x in lengths):
        raise PreconditionError("the level-%d complex has an edge of "
                                "negative length" % k)
    return ApproxComplex(k, lengths, *class_graph(diagram, k))


def euler_characteristic(cx):
    return len(cx.classes) - cx.num_edges


def first_betti_number(graph):
    """dim H1 of a `class_graph` or complex: edges - classes + components."""
    uf = _UnionFind(len(graph.classes))
    for a, b in zip(graph.start_class, graph.end_class):
        uf.union(a, b)
    components = len({uf.find(i) for i in range(len(graph.classes))})
    return len(graph.start_class) - len(graph.classes) + components


# ---------------------------------------------------------------------------
# wrapping maps

class WrappingMap(namedtuple("WrappingMap",
                             "level words fine_lengths coarse_lengths")):
    """The map of the level complex onto the coarser one: words holds per
    edge its ordered coarse-edge itinerary."""
    __slots__ = ()

    def word_total(self, v):
        return sum(self.coarse_lengths[w] for w in self.words[v])


def wrapping(diagram, renorm, k):
    """The stretch-and-wrap map from the level-k complex onto level k-1."""
    if k < 1:
        raise ValueError("wrapping is defined for k >= 1")
    hi = build_complex(diagram, renorm, k)
    lo = build_complex(diagram, renorm, k - 1)
    ld = diagram.level(k)
    words = tuple(tuple(ld.source(f) for f in ld.in_order[v])
                  for v in range(ld.num_ranges))
    wm = WrappingMap(level=k, words=words, fine_lengths=hi.lengths,
                     coarse_lengths=lo.lengths)
    for v in range(hi.num_edges):
        if wm.word_total(v) != renorm.lambda_mu * hi.lengths[v]:
            raise NumericError("stretch identity violated")
    return wm


# ---------------------------------------------------------------------------
# conjugacy with path space

class SolenoidPoint(namedtuple("SolenoidPoint",
                               "level coords complexes lam")):
    """A point of the inverse limit truncated at `level`, with its table:
    coords holds (edge, exact offset) per level 0..level, and lam is the
    lam_float of the Perron data, for the level weights."""

    @cached_property
    def table(self):
        """Per level k, a near row (u, t, reach, lam^(-k), diameter), read
        when the point is the first argument of `solenoid_metric`, and a far
        row (u, t, tr, start, end), read when it is the second: the point's
        edge u and the classes of its ends; the roundings of its exact
        offset and of the rest of u, so route sums do not cancel; its reach
        row, min(t + D[start][c], tr + D[end][c]) to each class c; the level
        weight; the diameter.  Both rows come from the same roundings."""
        near, far = [], []
        for k, ((u, t), cx) in enumerate(zip(self.coords, self.complexes)):
            tf, tr = float(t), float(cx.lengths[u] - t)
            start, end = cx.start_class[u], cx.end_class[u]
            dist = cx.float_distances
            reach = tuple(min(tf + a, tr + b)
                          for a, b in zip(dist[start], dist[end]))
            near.append((u, tf, reach, self.lam ** (-k), cx.float_diameter))
            far.append((u, tf, tr, start, end))
        return tuple(near), tuple(far)


@owned
def cached_complexes(diagram, renorm, n):
    return tuple(build_complex(diagram, renorm, k) for k in range(n + 1))


@owned
def cached_point(diagram, renorm, p, depth_margin):
    """The conjugacy point of the minimal continuation of the finite path
    p, depth_margin levels below it."""
    return conjugacy_point(diagram, renorm, materialize(
        diagram, LazyPath(p, TAIL_MIN), p.level + depth_margin))


def conjugacy_point(diagram, renorm, p):
    """Point of the truncated inverse limit whose level-i coordinate lies on
    the tower edge of p's level-i range, at the exact height of p's floor.

    Offsets follow the wrapping recurrence
    offset_i = lam^-1 (offset_(i-1) + sum of len_(i-1)[s(f)] over the
    in-edges f before e_i), which equals lam^-i times the floor height."""
    n = p.level
    complexes = cached_complexes(diagram, renorm, n)
    inv = renorm.lam_inverse
    offset = 0
    coords = [(path_source(diagram, p), 0)]
    for i in range(1, n + 1):
        ld = diagram.level(i)
        e = p.edges[i - 1]
        v = ld.range(e)
        below = complexes[i - 1].lengths
        for f in ld.in_order[v]:
            if f == e:
                break
            offset = offset + below[ld.source(f)]
        offset = inv * offset
        coords.append((v, offset))
    return SolenoidPoint(level=n, coords=tuple(coords), complexes=complexes,
                         lam=renorm.lam_float)


# ---------------------------------------------------------------------------
# metric

def point_distance(cx, p, q):
    """Exact geodesic distance between (edge, offset) points."""
    u, t = p
    v, s = q
    dist = cx.distances
    lu, lv = cx.lengths[u], cx.lengths[v]
    routes = []
    if u == v:
        routes.append(t - s if t >= s else s - t)
    for du, tu in ((dist[cx.start_class[u]], t),
                   (dist[cx.end_class[u]], lu - t)):
        for end_v, sv in ((cx.start_class[v], s), (cx.end_class[v], lv - s)):
            if du[end_v] is not None:
                routes.append(tu + du[end_v] + sv)
    if not routes:
        raise NumericError("complex is disconnected")
    return min(routes)


def _pair_diameter(cx, u, v):
    """The largest distance from a point of edge u to a point of edge v.

    Let A, B, C and D be the class distances from the start of u to the
    start and end of v and from the end of u to the start and end of v.
    Each edge joins its end classes, so |A - B| and |C - D| are at most lv
    and |A - C| and |B - D| at most lu.

    Points at t <= s on one edge of length l are min(s - t, l + B - (s - t))
    apart, every other route being longer; with B <= l the largest distance
    is (l + B)/2.

    For u != v the point at t on u is a(t) = min(t + A, lu - t + C) from
    the start of v and b(t) = min(t + B, lu - t + D) from its end, and
    |a - b| <= lv.  The point at s on v is min(a + s, b + lv - s) from it,
    largest at s = (b + lv - a)/2, where it is f(t) = (a + b + lv)/2.
    Expanding the minima in a and b splits f into lines of slope +1, 0 and
    -1 in t: f(t) = min(t + up, flat, down - t) with up = (A + B + lv)/2,
    flat = (min(A + D, B + C) + lu + lv)/2 and down = lu + (C + D + lv)/2.
    The tent min(t + up, down - t) peaks at t* = (down - up)/2, which lies
    in [0, lu], at (up + down)/2 >= flat.  So the largest f is flat.

    The division takes an exact length in its numerator: a class distance
    may be the int 0."""
    dist = cx.distances
    lu, lv = cx.lengths[u], cx.lengths[v]
    A = dist[cx.start_class[u]][cx.start_class[v]]
    B = dist[cx.start_class[u]][cx.end_class[v]]
    C = dist[cx.end_class[u]][cx.start_class[v]]
    D = dist[cx.end_class[u]][cx.end_class[v]]
    if None in (A, B, C, D):
        raise NumericError("complex is disconnected")
    if u == v:
        return (lu + B) / 2
    return (lu + lv + min(A + D, B + C)) / 2


def diameter(cx):
    """Exact diameter over all point pairs of the metric graph, kept on
    the complex."""
    return cx.diameter


def solenoid_metric(y, z):
    """Weighted sum over coordinate levels k of the float distance from y
    to z, normalized by the level-k diameter and weighted by lam^(-k), in
    one pass over y's near rows and z's far rows.  Each level distance is
    the shorter way from y's reach row through either end of z's edge, or
    along the edge when both lie on it.  Float addition rounds
    monotonically, so it is the minimum over the routes of point_distance,
    each a sum of three rounded nonnegative terms, within a few ulps of its
    exact value.  The minima are spelled out: min() costs more than the
    rest of a level, and ties keep the first route, as min() does.  A
    disconnected complex has no float diameter, so every reach is finite."""
    if y.level != z.level:
        raise ValueError("points truncated at different levels")
    total = 0.0
    for (u, t, reach, w, diam), (v, s, sr, start, end) in zip(y.table[0],
                                                             z.table[1]):
        a, b = reach[start] + s, reach[end] + sr
        best = a if a <= b else b
        if u == v:
            a = abs(t - s)
            if a <= best:
                best = a
        total += w * best / diam
    return total


# ---------------------------------------------------------------------------
# conjugacy quality

def _ultrametric(p, q, lamf):
    for j, (a, b) in enumerate(zip(p.edges, q.edges)):
        if a != b:
            return lamf ** (-j)
    return 0.0


def bilip_check(diagram, renorm, pairs, epsilon, depth_margin=4):
    """Empirical lower constant for dbar >= K * d^(1+epsilon), plus a hard
    verification of the structural upper bound dbar <= d / (lam - 1).

    Conjugacy points are taken depth_margin levels below the paths (minimal
    continuation): finite truncation glues distinct tower bottoms together,
    and the extra levels separate them again.  The upper bound is
    depth-independent, since the tail terms sum to at most d / (lam - 1).

    Each point is built once and kept, with its near and far rows, in the
    diagram's tables (`cached_point`), so a pair costs one
    `solenoid_metric` pass over p's near rows and q's far rows.  Equal
    paths give the same point, so dbar is exactly 0.0.  No NaN reaches the
    running extremes, so comparisons keep them as max() and min() would."""
    lamf = renorm.lam_float
    kbest = inf
    worst_slack = 0.0
    checked = 0
    for p, q in pairs:
        dbar = solenoid_metric(cached_point(diagram, renorm, p, depth_margin),
                               cached_point(diagram, renorm, q, depth_margin))
        d = _ultrametric(p, q, lamf)
        if d == 0.0:
            if dbar != 0.0:
                raise NumericError("equal paths at positive distance")
            continue
        checked += 1
        slack = dbar - d / (lamf - 1.0)
        if slack > worst_slack:
            worst_slack = slack
        if slack > 1e-9:
            raise NumericError("solenoid metric upper bound violated")
        ratio = dbar / d ** (1.0 + epsilon)
        if ratio < kbest:
            kbest = ratio
    return {
        "pairs_checked": checked,
        "lower_constant": 0.0 if kbest == inf else kbest,
        "upper_bound_holds": True,
        "worst_upper_slack": worst_slack,
        "epsilon": epsilon,
    }
