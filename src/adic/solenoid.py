"""Graph approximants of the solenoid, their wrapping maps, and the
finite-level conjugacy between path space and the inverse limit.

The level-k approximant has one oriented edge per level-k vertex, of exact
length lam^(-k) * (A_(0..k) roof)_v.  Endpoint gluing combines successor
adjacency (consecutive in-edges at any higher level, pushed down through
max/min source maps) with the wrap rule joining every eventually-maximal
tower end to every eventually-minimal tower start.  Gluing needs the level
data beyond k to repeat, so complexes are built for stationary diagrams
only.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations

from .diagrams import (LazyPath, TAIL_MIN, eventual_image, materialize,
                       max_source_map, min_source_map, path_source)
from .errors import GluingUndefinedError, NumericError
from .measures import cocycle_product
from .scalars import as_float, is_exact, mat_vec

STRETCH_TOL = 1e-9


@dataclass(frozen=True)
class ApproxComplex:
    # The level is not part of the geometry: complexes of different levels
    # with equal lengths and gluing compare equal, so the value-keyed caches
    # of class_distances and diameter compute each geometry once.
    level: int = field(compare=False)
    lengths: tuple        # exact scalar per edge (one edge per vertex)
    start_class: tuple    # vertex class of the negative end of each edge
    end_class: tuple      # vertex class of the positive end of each edge
    classes: tuple        # members per class: (sign, edge) with sign in -+
    glued_pairs: tuple    # (a, b) meaning end of e_a meets start of e_b

    @property
    def num_edges(self):
        return len(self.lengths)

    def total_length(self):
        total = self.lengths[0]
        for x in self.lengths[1:]:
            total = total + x
        return total

    # Float tables for the metric, computed once per instance; they are not
    # fields, so equality and hashing see only the exact data.

    @cached_property
    def float_distances(self):
        return tuple(tuple(None if x is None else as_float(x) for x in row)
                     for row in class_distances(self))

    @cached_property
    def float_diameter(self):
        return as_float(diameter(self))


def roof_heights(diagram, renorm, k):
    """Exact level-k tower heights (A_(0..k) roof)_v in level-0 time units."""
    if k == 0:
        return tuple(renorm.roof)
    mat = cocycle_product(diagram, 0, k).matrix
    return tuple(mat_vec(mat, list(renorm.roof)))


def _scale(renorm, k):
    if k == 0:
        return 1
    lam = renorm.lambda_mu if renorm.exact else renorm.lam_float
    return lam ** (-k)


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

    Successor adjacency at level k+1+t contributes consecutive in-edge
    sources pushed down t times through the max (left slot) and min (right
    slot) source maps; with repeating level data this is the closure of the
    level-(k+1) pairs under that push.  The wrap rule adds every pair from
    (eventual max image) x (eventual min image)."""
    if not diagram.stationary:
        raise GluingUndefinedError()
    ld = diagram.level(k + 1)
    mmap, bigm = min_source_map(ld), max_source_map(ld)
    pairs = set()
    for v in range(ld.num_ranges):
        order = ld.in_order[v]
        for f, g in zip(order, order[1:]):
            pairs.add((ld.source(f), ld.source(g)))
    frontier = set(pairs)
    while frontier:
        nxt = {(bigm[a], mmap[b]) for a, b in frontier} - pairs
        pairs |= nxt
        frontier = nxt
    for a in eventual_image(bigm):
        for b in eventual_image(mmap):
            pairs.add((a, b))
    return tuple(sorted(pairs))


def build_complex(diagram, renorm, k):
    heights = roof_heights(diagram, renorm, k)
    scale = _scale(renorm, k)
    lengths = tuple(scale * h for h in heights)
    n = len(lengths)
    pairs = gluing_pairs(diagram, k)
    uf = _UnionFind(2 * n)  # boundary ids: 2v start, 2v+1 end
    for a, b in pairs:
        uf.union(2 * a + 1, 2 * b)
    roots = sorted({uf.find(i) for i in range(2 * n)})
    renum = {r: i for i, r in enumerate(roots)}
    members = [[] for _ in roots]
    for i in range(2 * n):
        members[renum[uf.find(i)]].append(("-" if i % 2 == 0 else "+", i // 2))
    return ApproxComplex(
        level=k,
        lengths=lengths,
        start_class=tuple(renum[uf.find(2 * v)] for v in range(n)),
        end_class=tuple(renum[uf.find(2 * v + 1)] for v in range(n)),
        classes=tuple(tuple(m) for m in members),
        glued_pairs=pairs,
    )


def euler_characteristic(cx):
    return len(cx.classes) - cx.num_edges


# ---------------------------------------------------------------------------
# wrapping maps

@dataclass(frozen=True)
class WrappingMap:
    level: int            # maps the level complex onto the coarser one
    words: tuple          # per edge: ordered coarse-edge itinerary
    fine_lengths: tuple
    coarse_lengths: tuple
    stretch: object       # exact expansion factor applied to offsets

    def apply(self, point):
        """Image of (edge, offset); offsets exactly on an interior seam
        canonicalize to the start of the next segment."""
        v, t = point
        pos = self.stretch * t
        word = self.words[v]
        for i, w in enumerate(word):
            seg = self.coarse_lengths[w]
            if pos < seg or (i == len(word) - 1 and pos == seg):
                return (w, pos)
            pos = pos - seg
        raise NumericError("offset outside stretched edge")

    def word_total(self, v):
        total = 0
        for w in self.words[v]:
            total = total + self.coarse_lengths[w]
        return total


def wrapping(diagram, renorm, k):
    """The stretch-and-wrap map from the level-k complex onto level k-1."""
    if k < 1:
        raise ValueError("wrapping is defined for k >= 1")
    hi = build_complex(diagram, renorm, k)
    lo = build_complex(diagram, renorm, k - 1)
    ld = diagram.level(k)
    words = tuple(tuple(ld.source(f) for f in ld.in_order[v])
                  for v in range(ld.num_ranges))
    lam = renorm.lambda_mu if renorm.exact else renorm.lam_float
    wm = WrappingMap(level=k, words=words, fine_lengths=hi.lengths,
                     coarse_lengths=lo.lengths, stretch=lam)
    for v in range(hi.num_edges):
        lhs = as_float(wm.word_total(v))
        rhs = as_float(lam * hi.lengths[v])
        if abs(lhs - rhs) > STRETCH_TOL:
            raise NumericError("stretch identity violated")
    return wm


# ---------------------------------------------------------------------------
# conjugacy with path space

@dataclass(frozen=True)
class SolenoidPoint:
    level: int
    coords: tuple  # (edge, exact offset) per level 0..level
    complexes: tuple = None

    def coordinate(self, k):
        return self.coords[k]

    @cached_property
    def float_coords(self):
        """(edge, offset, edge length - offset) per level, each float the
        rounding of an exact value, so route sums do not cancel."""
        return tuple((v, as_float(t), as_float(cx.lengths[v] - t))
                     for (v, t), cx in zip(self.coords, self.complexes))


# Complexes per (diagram, level, Perron data), most recently used last.
_COMPLEX_CACHE = OrderedDict()
COMPLEX_CACHE_SIZE = 16


def cached_complexes(diagram, renorm, n):
    key = (diagram, n, renorm.lam_float, tuple(as_float(x)
                                               for x in renorm.roof))
    got = _COMPLEX_CACHE.get(key)
    if got is None:
        got = tuple(build_complex(diagram, renorm, k) for k in range(n + 1))
        _COMPLEX_CACHE[key] = got
        if len(_COMPLEX_CACHE) > COMPLEX_CACHE_SIZE:
            _COMPLEX_CACHE.popitem(last=False)
    else:
        _COMPLEX_CACHE.move_to_end(key)
    return got


def conjugacy_point(diagram, renorm, p):
    """Point of the truncated inverse limit whose level-i coordinate lies on
    the tower edge of p's level-i range, at the exact height of p's floor.

    Offsets follow the wrapping recurrence
    offset_i = lam^-1 (offset_(i-1) + sum of len_(i-1)[s(f)] over the
    in-edges f before e_i), which equals lam^-i times the floor height."""
    n = p.level
    complexes = cached_complexes(diagram, renorm, n)
    inv = _scale(renorm, 1)
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
    return SolenoidPoint(level=n, coords=tuple(coords), complexes=complexes)


# ---------------------------------------------------------------------------
# metric

@lru_cache(maxsize=None)
def class_distances(cx):
    """All-pairs shortest path between vertex classes, exact scalars."""
    n = len(cx.classes)
    dist = [[None] * n for _ in range(n)]
    for i in range(n):
        dist[i][i] = 0
    for v in range(cx.num_edges):
        a, b = cx.start_class[v], cx.end_class[v]
        if a == b:
            continue
        if dist[a][b] is None or cx.lengths[v] < dist[a][b]:
            dist[a][b] = cx.lengths[v]
            dist[b][a] = cx.lengths[v]
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


def point_distance(cx, p, q):
    """Exact geodesic distance between (edge, offset) points."""
    u, t = p
    v, s = q
    dist = class_distances(cx)
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
    best = routes[0]
    for r in routes[1:]:
        if r < best:
            best = r
    return best


def _combine(coefs, xs):
    """Sum of c*x for small integer coefficients c, by additions where c is
    0 or +-1."""
    total = 0
    for c, x in zip(coefs, xs):
        if c == 1:
            total = total + x
        elif c == -1:
            total = total - x
        elif c:
            total = total + c * x
    return total


def _adjugate3(mat):
    """Adjugate and determinant of a 3x3 integer matrix."""
    (a, b, c), (d, e, f), (g, h, i) = mat
    adj = ((e * i - f * h, c * h - b * i, b * f - c * e),
           (f * g - d * i, a * i - c * g, c * d - a * f),
           (d * h - e * g, b * g - a * h, a * e - b * d))
    return adj, a * adj[0][0] + b * adj[1][0] + c * adj[2][0]


def _cramer(adj_row, det, rhs):
    """One coordinate of the solution adj * rhs / det, exact."""
    x = _combine(adj_row, rhs)
    if det == 1:
        return x
    if det == -1:
        return -x
    return x / Fraction(det)


def _lp_max_min(rows, box):
    """Exact max of min of linear forms a*t + b*s + c over a polygon given
    by extra constraints (also linear, >= 0).  Enumerates the vertices of
    the lifted problem max z, z <= forms: the region is pointed and bounded
    above in z, so its maximum sits at a vertex.  All coefficients are
    integers, so each vertex is an integer adjugate applied to the exact
    right-hand sides, and its t and s are only needed when its z improves
    on the best feasible z so far."""
    cons = []  # (at, as_, az, rhs) meaning at*t + as*s + az*z <= rhs
    for a, b, c in rows:
        cons.append((-a, -b, 1, c))
    for a, b, c in box:  # a*t + b*s + c >= 0
        cons.append((-a, -b, 0, c))
    best = None
    for tri in combinations(cons, 3):
        adj, det = _adjugate3([con[:3] for con in tri])
        if det == 0:
            continue
        rhs = [con[3] for con in tri]
        z = _cramer(adj[2], det, rhs)
        if best is not None and z <= best:
            continue
        sol = (_cramer(adj[0], det, rhs), _cramer(adj[1], det, rhs), z)
        ok = True
        for con in cons:
            viol = _combine(con[:3], sol) - con[3]
            if is_exact(viol):
                if viol > 0:
                    ok = False
                    break
            elif viol > 1e-9:
                ok = False
                break
        if ok:
            best = z
    return best


def _pair_diameter(cx, u, v):
    dist = class_distances(cx)
    lu, lv = cx.lengths[u], cx.lengths[v]
    A = dist[cx.start_class[u]][cx.start_class[v]]
    B = dist[cx.start_class[u]][cx.end_class[v]]
    C = dist[cx.end_class[u]][cx.start_class[v]]
    D = dist[cx.end_class[u]][cx.end_class[v]]
    if None in (A, B, C, D):
        raise NumericError("complex is disconnected")
    rows = [(1, 1, A), (1, -1, B + lv), (-1, 1, C + lu),
            (-1, -1, D + lu + lv)]
    box = [(1, 0, 0), (-1, 0, lu), (0, 1, 0), (0, -1, lv)]
    if u != v:
        return _lp_max_min(rows, box)
    r1 = _lp_max_min(rows + [(1, -1, 0)], box + [(1, -1, 0)])
    r2 = _lp_max_min(rows + [(-1, 1, 0)], box + [(-1, 1, 0)])
    return r1 if r2 is None or (r1 is not None and r1 >= r2) else r2


@lru_cache(maxsize=None)
def diameter(cx):
    """Exact diameter over all point pairs of the metric graph."""
    best = None
    for u in range(cx.num_edges):
        for v in range(u, cx.num_edges):
            cand = _pair_diameter(cx, u, v)
            if cand is not None and (best is None or cand > best):
                best = cand
    return best


def solenoid_metric(y, z, lam):
    """Weighted sum over coordinate levels of normalized graph distances."""
    return metric_report(y, z, lam)["value"]


def _float_distance(cx, p, q):
    """point_distance over the same routes in floats, for float coordinates
    (edge, offset, remaining length).  Each route through the vertex
    classes sums three rounded nonnegative terms, so it is within a few ulps
    of its exact value, and a near-tie moves the minimum by no more; the
    same-edge route |t - s| is off by at most an ulp of the offsets."""
    u, t, tr = p
    v, s, sr = q
    dist = cx.float_distances
    routes = [abs(t - s)] if u == v else []
    for du, tu in ((dist[cx.start_class[u]], t), (dist[cx.end_class[u]], tr)):
        for end_v, sv in ((cx.start_class[v], s), (cx.end_class[v], sr)):
            if du[end_v] is not None:
                routes.append(tu + du[end_v] + sv)
    if not routes:
        raise NumericError("complex is disconnected")
    return min(routes)


def metric_report(y, z, lam):
    """Per-level graph distances and the weighted metric, in floats: the
    lengths and coordinates are exact, the distances are evaluated from
    their roundings (point_distance and diameter stay exact)."""
    if y.level != z.level:
        raise ValueError("points truncated at different levels")
    if y.complexes is None or z.complexes is None:
        raise ValueError("points carry no complexes")
    lamf = as_float(lam)
    total = 0.0
    per_level = []
    for k, (cx, p, q) in enumerate(zip(y.complexes, y.float_coords,
                                       z.float_coords)):
        dk = _float_distance(cx, p, q)
        dm = cx.float_diameter
        term = lamf ** (-k) * dk / dm
        per_level.append({"level": k, "distance": dk, "diameter": dm,
                          "term": term})
        total += term
    return {
        "value": total,
        "tail_bound": lamf ** (-y.level) / (lamf - 1.0),
        "per_level": per_level,
    }


# ---------------------------------------------------------------------------
# conjugacy quality

def _ultrametric(p, q, lamf):
    if p.edges == q.edges:
        return 0.0
    j = next(i for i, (a, b) in enumerate(zip(p.edges, q.edges)) if a != b)
    return lamf ** (-j)


def bilip_check(diagram, renorm, pairs, epsilon, depth_margin=4):
    """Empirical lower constant for dbar >= K * d^(1+epsilon), plus a hard
    verification of the structural upper bound dbar <= d / (lam - 1).

    Conjugacy points are taken depth_margin levels below the paths (minimal
    continuation): finite truncation glues distinct tower bottoms together,
    and the extra levels separate them again.  The upper bound is
    depth-independent, since the tail terms sum to at most d / (lam - 1)."""
    lamf = renorm.lam_float
    kbest = None
    worst_slack = 0.0
    checked = 0
    memo = {}

    def point(p):
        got = memo.get(p)
        if got is None:
            deep = materialize(diagram, LazyPath(p, TAIL_MIN),
                               p.level + depth_margin)
            got = conjugacy_point(diagram, renorm, deep)
            memo[p] = got
        return got

    for p, q in pairs:
        y = point(p)
        z = point(q)
        dbar = solenoid_metric(y, z, renorm.lambda_mu)
        d = _ultrametric(p, q, lamf)
        if d == 0.0:
            if dbar > 1e-12:
                raise NumericError("equal paths at positive distance")
            continue
        checked += 1
        upper = d / (lamf - 1.0)
        slack = dbar - upper
        worst_slack = max(worst_slack, slack)
        if slack > 1e-9:
            raise NumericError("solenoid metric upper bound violated")
        ratio = dbar / d ** (1.0 + epsilon)
        if kbest is None or ratio < kbest:
            kbest = ratio
    return {
        "pairs_checked": checked,
        "lower_constant": 0.0 if kbest is None else kbest,
        "upper_bound_holds": True,
        "worst_upper_slack": worst_slack,
        "epsilon": epsilon,
    }


# ---------------------------------------------------------------------------
# discrete flow step

def flow_step(cx, point, dt):
    """Move forward along the oriented edge by dt (exact); returns
    ("interior", edge, offset) or ("class", class_index) when the move ends
    exactly on the positive end."""
    v, t = point
    nt = t + dt
    if nt < cx.lengths[v]:
        return ("interior", v, nt)
    if nt == cx.lengths[v]:
        return ("class", cx.end_class[v])
    raise NumericError("flow step overshoots the edge")
