"""Ordered Bratteli diagrams, finite and lazy paths, the path ultrametric,
and the adic successor map.

Levels are 1-indexed: level k carries the edge set E_k between V_{k-1} and
V_k.  A diagram stores a finite list of LevelData; when `stationary` is set
the last LevelData repeats forever.  Edge orders are per range vertex
(`in_order`), and the induced lexicographic order on path sets E_v reads the
*last* level as most significant.

Infinite paths are LazyPath objects: a finite prefix plus a tail policy.
MIN/MAX tails extend forward deterministically (at each level take the
out-edge of the current vertex that is earliest/latest by (in-order position,
range index)); PERIODIC tails repeat a fixed word of edge indices.  The
canonical extreme paths are produced in exact PERIODIC form by
`extreme_min_lazy` / `extreme_max_lazy` for stationary diagrams.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache

from .errors import (HorizonExceededError, LevelOverflowError,
                     NotProperlyOrderedError, ParseError)


@dataclass(frozen=True)
class LevelData:
    num_sources: int
    num_ranges: int
    edges: tuple  # of (source, range) pairs
    in_order: tuple  # per range vertex, tuple of edge indices

    def source(self, e):
        return self.edges[e][0]

    def range(self, e):
        return self.edges[e][1]


def make_level(num_sources, num_ranges, edges, in_order):
    return LevelData(int(num_sources), int(num_ranges),
                     tuple((int(s), int(r)) for s, r in edges),
                     tuple(tuple(int(e) for e in lst) for lst in in_order))


@dataclass(frozen=True)
class OrderedDiagram:
    levels: tuple
    stationary: bool = False

    def level(self, k):
        if k < 1:
            raise LevelOverflowError()
        if k <= len(self.levels):
            return self.levels[k - 1]
        if self.stationary:
            return self.levels[-1]
        raise LevelOverflowError()

    def num_vertices(self, k):
        if k == 0:
            return self.levels[0].num_sources
        return self.level(k).num_ranges

    def matrix(self, k):
        """A_k with entry (v, w) = number of edges w -> v at level k."""
        ld = self.level(k)
        A = [[0] * ld.num_sources for _ in range(ld.num_ranges)]
        for (s, r) in ld.edges:
            A[r][s] += 1
        return A

    @property
    def materialized(self):
        return len(self.levels)

    def to_json_dict(self):
        return {
            "stationary": self.stationary,
            "levels": [
                {
                    "num_sources": ld.num_sources,
                    "num_ranges": ld.num_ranges,
                    "edges": [list(e) for e in ld.edges],
                    "in_order": [list(o) for o in ld.in_order],
                }
                for ld in self.levels
            ],
        }


def diagram_from_json_dict(data):
    try:
        levels = tuple(
            make_level(ld["num_sources"], ld["num_ranges"], ld["edges"],
                       ld["in_order"])
            for ld in data["levels"]
        )
        return OrderedDiagram(levels, bool(data.get("stationary", False)))
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise ParseError("malformed diagram: %s" % exc) from None


def load_diagram(path):
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError("malformed diagram file: %s" % exc) from None
    d = diagram_from_json_dict(data)
    problems = validate(d)
    if problems:
        raise ParseError("invalid diagram: " + "; ".join(problems))
    return d


def validate(diagram):
    """Diagnostics for violated structural invariants (empty list = valid)."""
    out = []
    if not diagram.levels:
        return ["no levels"]
    prev = None
    for i, ld in enumerate(diagram.levels, start=1):
        if prev is not None and prev.num_ranges != ld.num_sources:
            out.append("level %d: vertex counts disagree with level %d" % (i, i - 1))
        for e, (s, r) in enumerate(ld.edges):
            if not (0 <= s < ld.num_sources):
                out.append("level %d: edge %d source out of range" % (i, e))
            if not (0 <= r < ld.num_ranges):
                out.append("level %d: edge %d range out of range" % (i, e))
        if len(ld.in_order) != ld.num_ranges:
            out.append("level %d: in_order has wrong vertex count" % i)
        else:
            for v in range(ld.num_ranges):
                expect = sorted(e for e, (s, r) in enumerate(ld.edges) if r == v)
                if sorted(ld.in_order[v]) != expect:
                    out.append("level %d vertex %d: order not a permutation" % (i, v))
        prev = ld
    last = diagram.levels[-1]
    if diagram.stationary and last.num_sources != last.num_ranges:
        out.append("stationary diagram must repeat a square level")
    sources_with_out = {s for (s, r) in diagram.levels[-1].edges} if diagram.stationary else None
    if diagram.stationary and len(sources_with_out) < last.num_sources:
        out.append("stationary level has a vertex with no outgoing edge")
    return out


# ---------------------------------------------------------------------------
# per-level caches

@lru_cache(maxsize=None)
def order_pos(ld):
    pos = {}
    for v, lst in enumerate(ld.in_order):
        for i, e in enumerate(lst):
            pos[e] = i
    return pos


@lru_cache(maxsize=None)
def out_edges(ld):
    out = [[] for _ in range(ld.num_sources)]
    for e, (s, r) in enumerate(ld.edges):
        out[s].append(e)
    return tuple(tuple(x) for x in out)


@lru_cache(maxsize=None)
def forward_choice(ld):
    """Per source vertex: (min edge, max edge) by (in-order position, range)."""
    pos = order_pos(ld)
    lo, hi = [None] * ld.num_sources, [None] * ld.num_sources
    for s in range(ld.num_sources):
        cand = out_edges(ld)[s]
        if not cand:
            continue
        key = lambda e: (pos[e], ld.range(e))
        lo[s] = min(cand, key=key)
        hi[s] = max(cand, key=key)
    return tuple(lo), tuple(hi)


def min_in(ld, v):
    return ld.in_order[v][0]


def max_in(ld, v):
    return ld.in_order[v][-1]


@lru_cache(maxsize=None)
def min_source_map(ld):
    return tuple(ld.source(min_in(ld, v)) for v in range(ld.num_ranges))


@lru_cache(maxsize=None)
def max_source_map(ld):
    return tuple(ld.source(max_in(ld, v)) for v in range(ld.num_ranges))


def eventual_image(fmap):
    """Eventual image of a self-map given as a tuple; equals its cycle set."""
    cur = set(range(len(fmap)))
    for _ in range(len(fmap)):
        cur = {fmap[v] for v in cur}
    return sorted(cur)


@lru_cache(maxsize=None)
def step_table(ld, direction=1):
    """The carry columns of one level, in the in-order (direction=1) or its
    reverse (direction=-1): the next in-edge after each edge at its range
    (-1 at the end), the first in-edge of each vertex, the source of each
    edge."""
    orders = ld.in_order if direction == 1 else \
        tuple(o[::-1] for o in ld.in_order)
    nxt = [-1] * len(ld.edges)
    for order in orders:
        for a, b in zip(order, order[1:]):
            nxt[a] = b
    first = tuple(order[0] if order else -1 for order in orders)
    return tuple(nxt), first, tuple(s for s, _ in ld.edges)


def step_tables(diagram, n, direction=1):
    """The step_table columns of levels 1..n, split by kind: (next, first,
    source), each a tuple whose entry k-1 belongs to level k."""
    return tuple(zip(*(step_table(diagram.level(k), direction)
                       for k in range(1, n + 1))))


def step(tables, digits):
    """Move a finite prefix (level-1 edge first) in place to its successor
    within its own length, or its predecessor for tables of direction -1:
    bump the lowest non-extreme edge and refill the levels below it with the
    extreme chain into its source.  Returns False, leaving the prefix as it
    is, when every edge is extreme."""
    nxt, first, src = tables
    i, top = 0, len(digits)
    while i < top and nxt[i][digits[i]] < 0:
        i += 1
    if i == top:
        return False
    e = nxt[i][digits[i]]
    digits[i] = e
    v = src[i][e]
    for j in range(i - 1, -1, -1):
        e = first[j][v]
        digits[j] = e
        v = src[j][e]
    return True


# ---------------------------------------------------------------------------
# paths

@dataclass(frozen=True)
class FinitePath:
    edges: tuple
    start: int = 0
    root: int = None  # only consulted when edges is empty

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple(self.edges))

    @property
    def level(self):
        return self.start + len(self.edges)

    def __len__(self):
        return len(self.edges)


def path_range(diagram, p):
    if p.edges:
        return diagram.level(p.level).range(p.edges[-1])
    return p.root


def path_source(diagram, p):
    if p.edges:
        return diagram.level(p.start + 1).source(p.edges[0])
    return p.root


def check_path(diagram, p):
    v = None
    for i, e in enumerate(p.edges):
        ld = diagram.level(p.start + 1 + i)
        if not (0 <= e < len(ld.edges)):
            raise ParseError("path edge index out of range")
        if v is not None and ld.source(e) != v:
            raise ParseError("path edges do not chain")
        v = ld.range(e)
    return p


@dataclass(frozen=True)
class Tail:
    kind: str  # "MIN" | "MAX" | "PERIODIC"
    word: tuple = ()

    def __post_init__(self):
        if self.kind not in ("MIN", "MAX", "PERIODIC"):
            raise ParseError("unknown tail policy %r" % (self.kind,))
        if self.kind == "PERIODIC" and not self.word:
            raise ParseError("empty periodic word")
        object.__setattr__(self, "word", tuple(self.word))


TAIL_MIN = Tail("MIN")
TAIL_MAX = Tail("MAX")


@dataclass(frozen=True)
class LazyPath:
    prefix: FinitePath
    tail: Tail = TAIL_MIN

    def __post_init__(self):
        if self.prefix.start != 0:
            raise ParseError("lazy paths must be rooted at level 0")


def lazy_from_json_dict(data):
    try:
        prefix = FinitePath(tuple(int(e) for e in data["prefix"]))
        t = data["tail"]
        if t == "MIN":
            tail = TAIL_MIN
        elif t == "MAX":
            tail = TAIL_MAX
        else:
            tail = Tail("PERIODIC", tuple(int(e) for e in t["periodic"]))
        return LazyPath(prefix, tail)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError("malformed path: %s" % exc) from None


def lazy_to_json_dict(p):
    if p.tail.kind == "PERIODIC":
        t = {"periodic": list(p.tail.word)}
    else:
        t = p.tail.kind
    return {"prefix": list(p.prefix.edges), "tail": t}


class PathWalker:
    """Iterates the edges of a LazyPath from level 1, materializing tails."""

    def __init__(self, diagram, lazy):
        self.diagram = diagram
        self.lazy = lazy
        self.k = 0
        self.vertex = None
        if not lazy.prefix.edges and lazy.tail.kind != "PERIODIC":
            self.vertex = lazy.prefix.root
            if self.vertex is None:
                self.vertex = 0

    def advance(self):
        """Returns (level, edge index); raises at the materialization horizon."""
        self.k += 1
        k, lz = self.k, self.lazy
        ld = self.diagram.level(k)
        pl = len(lz.prefix.edges)
        if k <= pl:
            e = lz.prefix.edges[k - 1]
        elif lz.tail.kind == "PERIODIC":
            e = lz.tail.word[(k - pl - 1) % len(lz.tail.word)]
            if self.vertex is not None and ld.source(e) != self.vertex:
                raise ParseError("periodic tail does not chain")
        else:
            lo, hi = forward_choice(ld)
            e = (lo if lz.tail.kind == "MIN" else hi)[self.vertex]
            if e is None:
                raise HorizonExceededError()
        self.vertex = ld.range(e)
        return k, e

    def phase(self):
        lz = self.lazy
        pl = len(lz.prefix.edges)
        if self.k < pl:
            return ("P", self.k)
        if lz.tail.kind == "PERIODIC":
            return ("W", (self.k - pl) % len(lz.tail.word))
        return (lz.tail.kind,)

    def state(self):
        # usable for cycle detection once k exceeds the materialized levels
        lvl = min(self.k, len(self.diagram.levels))
        return (lvl, self.vertex, self.phase())


def materialize(diagram, lazy, k):
    """The level-k FinitePath prefix of a LazyPath."""
    w = PathWalker(diagram, lazy)
    return FinitePath(tuple(w.advance()[1] for _ in range(k)))


def first_disagreement(diagram, p, q, max_scan=100000):
    """Smallest level where p and q differ; 0 if provably equal.

    Provable equality uses cycle detection on the joint walker state, valid
    for stationary diagrams; non-stationary diagrams raise beyond the
    materialized horizon when tails are not syntactically aligned.
    """
    wp, wq = PathWalker(diagram, p), PathWalker(diagram, q)
    seen = set()
    for _ in range(max_scan):
        past = (wp.k >= len(p.prefix.edges) and wq.k >= len(q.prefix.edges)
                and wp.k >= len(diagram.levels))
        if past:
            if not diagram.stationary:
                if wp.lazy.tail == wq.lazy.tail and wp.phase() == wq.phase() \
                        and wp.vertex == wq.vertex:
                    return 0
                raise HorizonExceededError()
            st = (wp.state(), wq.state())
            if st in seen:
                return 0
            seen.add(st)
        try:
            kp, ep = wp.advance()
            _, eq = wq.advance()
        except LevelOverflowError:
            raise HorizonExceededError() from None
        if ep != eq:
            return kp
    raise HorizonExceededError("horizon exceeded")


def metric(diagram, p, q, lam):
    """d(p, q) = lam**(-k+1) with k the first disagreeing level."""
    k = first_disagreement(diagram, p, q)
    if k == 0:
        return 0.0
    return float(lam) ** (-(k - 1))


# ---------------------------------------------------------------------------
# extreme paths and the successor map

def min_chain(diagram, v, k):
    """The unique all-min finite path from V_0 to vertex v at level k."""
    edges = []
    for j in range(k, 0, -1):
        e = min_in(diagram.level(j), v)
        edges.append(e)
        v = diagram.level(j).source(e)
    edges.reverse()
    return FinitePath(tuple(edges), root=v if not edges else None)


def max_chain(diagram, v, k):
    edges = []
    for j in range(k, 0, -1):
        e = max_in(diagram.level(j), v)
        edges.append(e)
        v = diagram.level(j).source(e)
    edges.reverse()
    return FinitePath(tuple(edges), root=v if not edges else None)


def _stationary_extreme(diagram, which):
    """Unique infinite all-min (or all-max) path of a stationary diagram, or
    None when it is not unique."""
    ld = diagram.level(len(diagram.levels) + 1)  # the repeating level
    fmap = min_source_map(ld) if which == "MIN" else max_source_map(ld)
    cyc = eventual_image(fmap)
    if len(cyc) != 1:
        return None
    v = cyc[0]
    L = len(diagram.levels)
    word_edge = (min_in if which == "MIN" else max_in)(ld, v)
    chain = (min_chain if which == "MIN" else max_chain)(diagram, v, L)
    return LazyPath(chain, Tail("PERIODIC", (word_edge,)))


def extreme_min_lazy(diagram):
    if not diagram.stationary:
        raise HorizonExceededError()
    p = _stationary_extreme(diagram, "MIN")
    if p is None:
        raise NotProperlyOrderedError()
    return p


def extreme_max_lazy(diagram):
    if not diagram.stationary:
        raise HorizonExceededError()
    p = _stationary_extreme(diagram, "MAX")
    if p is None:
        raise NotProperlyOrderedError()
    return p


def extreme_vertex_sets(diagram, k):
    """Vertices of V_k that infinite all-min / all-max paths pass through.

    Exact for stationary diagrams; for non-stationary ones this is the
    horizon-limited image of the chain maps, a certificate only.
    """
    if diagram.stationary:
        ld = diagram.level(len(diagram.levels) + 1)
        lo = set(eventual_image(min_source_map(ld)))
        hi = set(eventual_image(max_source_map(ld)))
        # walk down from deep levels to level k through the materialized part
        for j in range(len(diagram.levels), k, -1):
            ldj = diagram.level(j)
            lo = {min_source_map(ldj)[v] for v in lo}
            hi = {max_source_map(ldj)[v] for v in hi}
        return sorted(lo), sorted(hi)
    H = len(diagram.levels)
    lo = set(range(diagram.num_vertices(H)))
    hi = set(lo)
    for j in range(H, k, -1):
        ldj = diagram.level(j)
        lo = {min_source_map(ldj)[v] for v in lo}
        hi = {max_source_map(ldj)[v] for v in hi}
    return sorted(lo), sorted(hi)


def extreme_paths(diagram, horizon):
    """Finite all-min/all-max paths at `horizon` that extend to infinite
    extreme paths (as far as certifiable), plus the properness flag."""
    lo, hi = extreme_vertex_sets(diagram, horizon)
    return {
        "minimal": [min_chain(diagram, v, horizon) for v in lo],
        "maximal": [max_chain(diagram, v, horizon) for v in hi],
        "properly_ordered": len(lo) == 1 and len(hi) == 1,
    }


def successor(diagram, p, direction=1):
    """The adic successor (direction=1) or predecessor (direction=-1)."""
    w = PathWalker(diagram, p)
    seen = set()
    pl = len(p.prefix.edges)
    digits = []
    while True:
        past = w.k >= pl and w.k >= len(diagram.levels)
        if past:
            if not diagram.stationary:
                raise HorizonExceededError()
            st = w.state()
            if st in seen:
                # every remaining edge is extreme: wrap around
                ext = _stationary_extreme(diagram,
                                          "MIN" if direction == 1 else "MAX")
                if ext is None:
                    raise NotProperlyOrderedError()
                return ext
            seen.add(st)
        k, e = w.advance()
        digits.append(e)
        if step_table(diagram.level(k), direction)[0][e] >= 0:
            step(step_tables(diagram, k, direction), digits)
            tail = p.tail
            if k < pl:
                digits.extend(p.prefix.edges[k:])
            elif tail.kind == "PERIODIC":
                shift = (k - pl) % len(tail.word)
                tail = Tail("PERIODIC", tail.word[shift:] + tail.word[:shift])
            return LazyPath(FinitePath(tuple(digits)), tail)


def predecessor(diagram, p):
    return successor(diagram, p, direction=-1)


# ---------------------------------------------------------------------------
# enumeration

def enumerate_paths(diagram, m, n, target=None):
    """All of E_{m,n} (or E_v for the given target vertex) in lexicographic
    order, range-major: paths are grouped by range vertex, and within a
    range ordered with the last level most significant."""
    if n < m:
        raise LevelOverflowError()
    if n == m:
        verts = [target] if target is not None else range(diagram.num_vertices(m))
        return [FinitePath((), m, v) for v in verts]
    # guard against silently huge materializations
    diagram.level(n)
    table = {v: [()] for v in range(diagram.num_vertices(m))}
    for j in range(m + 1, n + 1):
        ld = diagram.level(j)
        nxt = {}
        for v in range(ld.num_ranges):
            acc = []
            for e in ld.in_order[v]:
                for t in table[ld.source(e)]:
                    acc.append(t + (e,))
            nxt[v] = acc
        table = nxt
    verts = [target] if target is not None else range(diagram.num_vertices(n))
    out = []
    for v in verts:
        out.extend(FinitePath(t, m) for t in table[v])
    return out


def count_paths(diagram, m, n):
    """Vector over V_n: |E_{m,n}| path counts into each vertex."""
    c = [1] * diagram.num_vertices(m)
    for j in range(m + 1, n + 1):
        ld = diagram.level(j)
        c = [sum(c[ld.source(e)] for e in ld.in_order[v])
             for v in range(ld.num_ranges)]
    return c


def path_rank(diagram, p):
    """Index of p within the lexicographic order of E_{r(p)} (same start).

    Paths smaller than p agree with it above some level j and take an
    in-order-earlier edge there; below j they are arbitrary, contributing
    the path count into that edge's source.
    """
    total = 0
    cvec = [1] * diagram.num_vertices(p.start)
    for i, e in enumerate(p.edges):
        ld = diagram.level(p.start + 1 + i)
        before = 0
        for f in ld.in_order[ld.range(e)]:
            if f == e:
                break
            before += cvec[ld.source(f)]
        total += before
        cvec = [sum(cvec[ld.source(f)] for f in ld.in_order[u])
                for u in range(ld.num_ranges)]
    return total


def is_strongly_minimal(diagram, horizon):
    """Entries of some window product A_(k..k+ell) all >= 2, ell <= horizon."""
    from .scalars import mat_mul  # local import to avoid cycles at load
    L = len(diagram.levels) if not diagram.stationary else horizon + 1
    mats = [diagram.matrix(k) for k in range(1, min(L, horizon + 1) + 1)]
    for ell in range(1, horizon + 1):
        ok = True
        found = False
        for start in range(0, len(mats) - ell + 1):
            prod = mats[start]
            for t in range(1, ell):
                prod = mat_mul(mats[start + t], prod)
            found = True
            if any(x < 2 for row in prod for x in row):
                ok = False
                break
        if found and ok:
            return {"strongly_minimal": True, "ell": ell}
    return {"strongly_minimal": False, "ell": None}
