"""Ordered Bratteli diagrams, finite and lazy paths, path enumeration and
the adic successor map.

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
`extreme` for stationary diagrams.
"""

from __future__ import annotations

import json
from collections import namedtuple
from functools import cached_property, wraps
from itertools import chain
from weakref import WeakValueDictionary

from .errors import (HorizonExceededError, LevelOverflowError,
                     NotProperlyOrderedError, NotStationaryError, ParseError)


class LevelData(namedtuple("LevelData",
                            "num_sources num_ranges edges in_order")):
    """One level: edges, its (source, range) pairs, and in_order, per range
    vertex the tuple of its edge indices."""

    def source(self, e):
        return self.edges[e][0]

    def range(self, e):
        return self.edges[e][1]

    @cached_property
    def order_pos(self):
        """Per edge, its position in the in-order of its range."""
        return {e: i for order in self.in_order for i, e in enumerate(order)}

    @cached_property
    def out_edges(self):
        out = [[] for _ in range(self.num_sources)]
        for e, (s, r) in enumerate(self.edges):
            out[s].append(e)
        return tuple(map(tuple, out))

    @cached_property
    def forward_choice(self):
        """Per source vertex: (min edge, max edge) by (in-order position,
        range)."""
        key = lambda e: (self.order_pos[e], self.range(e))
        return (tuple(min(c, key=key) if c else None for c in self.out_edges),
                tuple(max(c, key=key) if c else None for c in self.out_edges))

    @cached_property
    def source_map(self):
        """Indexed by end: per vertex of V_k, the source of its first
        (end=0) or last (end=-1) in-edge."""
        return tuple(tuple(self.source(_in_edge(self, v, end))
                           for v in range(self.num_ranges)) for end in (0, -1))


def make_level(num_sources, num_ranges, edges, in_order):
    return LevelData(int(num_sources), int(num_ranges),
                     tuple((int(s), int(r)) for s, r in edges),
                     tuple(tuple(int(e) for e in lst) for lst in in_order))


class Tables(dict):
    """The tables derived from a diagram, {kind: {args: table}} (`owned`):
    one dict per class of equal diagrams, freed with the last of them."""
    __slots__ = ("__weakref__",)


def _clear_tables():
    """Empty the tables of every live diagram."""
    for tables in list(TABLES.values()):
        tables.clear()


TABLES = WeakValueDictionary()  # by (levels, stationary)
TABLES.cache_clear = _clear_tables


class OrderedDiagram(namedtuple("OrderedDiagram", "levels stationary",
                                defaults=(False,))):
    """A tuple of LevelData, the last repeating forever when stationary."""

    @cached_property
    def tables(self):
        """The Tables of every equal diagram, interned by the plain tuple
        (levels, stationary): no field, and a pickle leaves it out."""
        return TABLES.setdefault(tuple(self), Tables())

    def __reduce__(self):
        return OrderedDiagram, tuple(self)

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


def _ints(xs):
    """xs when it is a JSON list of JSON integers: int() would read a
    float, a numeric string or a boolean as one."""
    if not isinstance(xs, (list, tuple)) or \
            not all(type(x) is int for x in xs):
        raise TypeError("%r is not a list of integers" % (xs,))
    return xs


def diagram_from_json_dict(data):
    try:
        levels = tuple(
            make_level(*_ints([ld["num_sources"], ld["num_ranges"]]),
                       map(_ints, ld["edges"]), map(_ints, ld["in_order"]))
            for ld in data["levels"]
        )
        stationary = data.get("stationary", False)
        if type(stationary) is not bool:
            raise TypeError("stationary %r is not a boolean" % (stationary,))
        return OrderedDiagram(levels, stationary)
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
        into = {}  # per range vertex, its in-edges in index order
        for e, (s, r) in enumerate(ld.edges):
            into.setdefault(r, []).append(e)
        if ld.num_ranges > len(ld.edges):  # one line, not one per vertex
            out.append("level %d: %d vertices but %d edges: some vertex has "
                       "no incoming edge" % (i, ld.num_ranges, len(ld.edges)))
        else:
            out.extend("level %d vertex %d: no incoming edge" % (i, v)
                       for v in range(ld.num_ranges) if v not in into)
        if len(ld.in_order) != ld.num_ranges:
            out.append("level %d: in_order has wrong vertex count" % i)
        else:
            out.extend("level %d vertex %d: order not a permutation" % (i, v)
                       for v in range(ld.num_ranges)
                       if sorted(ld.in_order[v]) != into.get(v, []))
        prev = ld
    last = diagram.levels[-1]
    if diagram.stationary and last.num_sources != last.num_ranges:
        out.append("stationary diagram must repeat a square level")
    sources_with_out = {s for (s, r) in diagram.levels[-1].edges} if diagram.stationary else None
    if diagram.stationary and len(sources_with_out) < last.num_sources:
        out.append("stationary level has a vertex with no outgoing edge")
    return out


# ---------------------------------------------------------------------------
# tables derived from a diagram

def _in_edge(ld, v, end):
    """The first (end=0) or last (end=-1) in-edge of vertex v of a level;
    a vertex with none is malformed input."""
    if not ld.in_order[v]:
        raise ParseError("vertex %d: no incoming edge" % v)
    return ld.in_order[v][end]


def owned(build):
    """@owned: build(diagram, *args), kept in diagram.tables and freed with
    the diagram.  Its __wrapped__ is build itself, which keeps nothing."""
    name = build.__name__

    @wraps(build)
    def table(diagram, *args):
        try:
            return diagram.tables[name][args]
        except KeyError:
            pass
        value = build(diagram, *args)
        diagram.tables.setdefault(name, {})[args] = value
        return value
    return table


def eventual_image(fmap):
    """Eventual image of a self-map given as a tuple; equals its cycle set."""
    cur = set(range(len(fmap)))
    for _ in range(len(fmap)):
        cur = {fmap[v] for v in cur}
    return sorted(cur)


# ---------------------------------------------------------------------------
# paths

class FinitePath(namedtuple("FinitePath", "edges root")):
    """edges from level 1 up, since every path starts at V_0, and root,
    the V_0 vertex of a path with no edges, else None."""
    __slots__ = ()

    def __new__(cls, edges, root=None):
        edges = tuple(edges)
        return tuple.__new__(cls, (edges, None if edges else root))

    @property
    def level(self):
        return len(self.edges)


def path_source(diagram, p):
    if p.edges:
        return diagram.level(1).source(p.edges[0])
    return p.root


class Tail(namedtuple("Tail", "kind word")):
    """kind "MIN", "MAX" or "PERIODIC", and word, the edge indices a
    PERIODIC tail repeats."""
    __slots__ = ()

    def __new__(cls, kind, word=()):
        if kind not in ("MIN", "MAX", "PERIODIC"):
            raise ParseError("unknown tail policy %r" % (kind,))
        if kind == "PERIODIC" and not word:
            raise ParseError("empty periodic word")
        return tuple.__new__(cls, (kind, tuple(word)))


TAIL_MIN = Tail("MIN")
TAIL_MAX = Tail("MAX")


LazyPath = namedtuple("LazyPath", "prefix tail", defaults=(TAIL_MIN,))


def lazy_from_json_dict(data):
    try:
        prefix = FinitePath(tuple(_ints(data["prefix"])))
        t = data["tail"]
        if t == "MIN":
            tail = TAIL_MIN
        elif t == "MAX":
            tail = TAIL_MAX
        else:
            tail = Tail("PERIODIC", tuple(_ints(t["periodic"])))
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
        """(level, edge index); ParseError at a prefix or word edge not of
        its level or not chaining, HorizonExceededError past the horizon."""
        self.k += 1
        k, lz = self.k, self.lazy
        ld = self.diagram.level(k)
        pl = len(lz.prefix.edges)
        if k <= pl:
            e = lz.prefix.edges[k - 1]
            if not 0 <= e < len(ld.edges):
                raise ParseError("path edge index out of range")
            if self.vertex is not None and ld.source(e) != self.vertex:
                raise ParseError("path edges do not chain")
        elif lz.tail.kind == "PERIODIC":
            e = lz.tail.word[(k - pl - 1) % len(lz.tail.word)]
            if not 0 <= e < len(ld.edges):
                raise ParseError("periodic tail edge index out of range")
            if self.vertex is not None and ld.source(e) != self.vertex:
                raise ParseError("periodic tail does not chain")
        else:
            lo, hi = ld.forward_choice
            e = (lo if lz.tail.kind == "MIN" else hi)[self.vertex]
            if e is None:
                raise HorizonExceededError()
        self.vertex = ld.range(e)
        return k, e

    def state(self):
        """None while the walk is inside the prefix or the materialized
        levels.  Past both, (vertex, word position): the rest of the walk
        depends on these alone, so a repeat means it cycles (`successor`
        and `solver._orbit_runs` stop there).  At the last materialized
        level of a non-stationary diagram, where the walk can go no
        further, HorizonExceededError."""
        if self.k < len(self.diagram.levels):
            return None
        if not self.diagram.stationary:
            raise HorizonExceededError()
        pl = len(self.lazy.prefix.edges)
        if self.k < pl:
            return None
        word = self.lazy.tail.word
        return self.vertex, (self.k - pl) % len(word) if word else 0


def materialize(diagram, lazy, k):
    """The level-k FinitePath prefix of a LazyPath."""
    w = PathWalker(diagram, lazy)
    return FinitePath(tuple(w.advance()[1] for _ in range(k)))


def check_path(diagram, p):
    """p, read through `materialize` past every edge that can go wrong: its
    prefix, and for a word every (index, level) pairing and the junction
    with its repeat, to one period and one edge past the materialized
    levels where the diagram repeats."""
    top = len(p.prefix.edges)
    if p.tail.kind == "PERIODIC":
        top = max(top, len(diagram.levels))
        if diagram.stationary:
            top += len(p.tail.word) + 1
    materialize(diagram, p, top)
    return p


# ---------------------------------------------------------------------------
# extreme paths and the successor map

def _extreme_chain(diagram, v, k, end):
    """The unique all-min (end=0) or all-max (end=-1) finite path from V_0
    to vertex v at level k."""
    edges = []
    for j in range(k, 0, -1):
        ld = diagram.level(j)
        edges.append(_in_edge(ld, v, end))
        v = ld.source(edges[-1])
    edges.reverse()
    return FinitePath(tuple(edges), root=v if not edges else None)


@owned
def extreme(diagram, direction):
    """(T, v, path): the min (direction=1) or max (direction=-1) in-edge
    source map of the repeating level takes every vertex to v in T steps,
    and path is the unique all-min (all-max) path, in PERIODIC form.
    NotStationaryError on a diagram that does not repeat,
    NotProperlyOrderedError when the image never shrinks to one vertex."""
    if not diagram.stationary:
        raise NotStationaryError()
    ld, end = diagram.levels[-1], 0 if direction == 1 else -1
    fmap, image, T = ld.source_map[end], set(range(ld.num_ranges)), 0
    while len(image) > 1:
        T, image, before = T + 1, {fmap[u] for u in image}, image
        if len(image) == len(before):
            raise NotProperlyOrderedError()
    v = image.pop()
    chain = _extreme_chain(diagram, v, len(diagram.levels), end)
    return T, v, LazyPath(chain, Tail("PERIODIC", (_in_edge(ld, v, end),)))


def successor(diagram, p, direction=1):
    """The adic successor (direction=1) or predecessor (direction=-1): at
    the least level k whose edge is not the last (first) in-edge of its
    range, that edge moves to the next (previous) one, and levels 1..k-1
    become the extreme chain into its source.  With no such level, the
    image is the other extreme path."""
    w, seen = PathWalker(diagram, p), set()
    end = 0 if direction == 1 else -1
    while True:
        st = w.state()
        if st is not None:
            if st in seen:
                # every remaining edge is extreme: wrap around
                return extreme(diagram, direction)[2]
            seen.add(st)
        k, e = w.advance()
        ld = diagram.level(k)
        order = ld.in_order[ld.range(e)]
        i = ld.order_pos[e] + direction
        if 0 <= i < len(order):
            edges = _extreme_chain(diagram, ld.source(order[i]), k - 1,
                                   end).edges + (order[i],)
            tail, pl = p.tail, len(p.prefix.edges)
            if k < pl:
                edges += p.prefix.edges[k:]
            elif tail.kind == "PERIODIC":
                shift = (k - pl) % len(tail.word)
                tail = Tail("PERIODIC", tail.word[shift:] + tail.word[:shift])
            return LazyPath(FinitePath(edges), tail)


# ---------------------------------------------------------------------------
# enumeration

def enumerate_paths(diagram, n):
    """All of E_{0,n} in lexicographic order, range-major: paths are
    grouped by range vertex, and within a range ordered with the last level
    most significant; past EDGE_BUDGET edges it raises LevelOverflowError."""
    if n == 0:
        return [FinitePath((), v) for v in range(diagram.num_vertices(0))]
    edges = n * sum(count_paths(diagram, n))
    if edges > EDGE_BUDGET:
        raise LevelOverflowError("level %d lists %d edges, more than %d"
                                 % (n, edges, EDGE_BUDGET))
    # per level and vertex, the sources of its in-edges and the last edges
    # of the paths into it, in order
    count, levels = [1] * diagram.num_vertices(0), []
    for j in range(1, n + 1):
        ld = diagram.level(j)
        sources = [[ld.source(e) for e in ld.in_order[v]]
                   for v in range(ld.num_ranges)]
        last = [[] for _ in range(ld.num_ranges)]
        for v, edges in enumerate(last):
            for e in ld.in_order[v]:
                edges += [e] * count[ld.source(e)]
        count = list(map(len, last))
        levels.append((sources, last))
    # top down, the start vertex of every suffix of the level-n paths, in
    # order: a level's column of edges joins the last edges into those
    # vertices, and each path's tuple is built once, from the columns
    starts, cols = range(len(count)), []
    for sources, last in reversed(levels):
        cols.append(list(chain.from_iterable(map(last.__getitem__, starts))))
        starts = list(chain.from_iterable(map(sources.__getitem__, starts)))
    return [FinitePath(t) for t in zip(*reversed(cols))]


# The most paths that `enumerate_paths` and `path_table` build at one
# level.  A function file or a level flag of a few bytes can ask for 2^n
# paths; the tests build at most 2^17 (pisot31 at level 8).
PATH_BUDGET = 2 ** 18
EDGE_BUDGET = 2 ** 23  # the most edges, paths times level, of one listing
# The deepest level of a path table.  A table is built on the one below
# it, by recursion, and a few hundred levels of that exhaust the
# interpreter's stack; on a diagram whose paths branch, PATH_BUDGET is
# passed far sooner (odo2 at level 19).
LEVEL_BUDGET = 256


def _check_budget(level, count):
    if count > PATH_BUDGET:
        raise LevelOverflowError("level %d has %d paths, more than %d"
                                 % (level, count, PATH_BUDGET))


class PathTable(namedtuple("PathTable", "offsets parent first runs")):
    """Index columns of E_{0,k} in `enumerate_paths` order.  The order is
    range-major, so the paths into vertex v of V_k form the block
    offsets[v]:offsets[v+1]; inside it the paths through each in-edge e of
    v form one run, starting at first[e], in the order of their parents.
    offsets holds per vertex of V_k its block start, then |E_{0,k}|;
    parent per path the index of its first k-1 edges at level k-1; first
    per edge of level k the index of the first path through it; runs per
    vertex of V_(k-1) first[e] of its out-edges, rising."""
    __slots__ = ()

    def blocks(self):
        """(start, stop) of the block of each vertex of V_k."""
        return zip(self.offsets, self.offsets[1:])


@owned
def path_table(diagram, k):
    """The PathTable of level k; level 0 lists the vertices of V_0."""
    if k > LEVEL_BUDGET:
        raise LevelOverflowError("level %d is deeper than %d"
                                 % (k, LEVEL_BUDGET))
    if k == 0:
        return PathTable(tuple(range(diagram.num_vertices(0) + 1)), (), (), ())
    ld = diagram.level(k)
    below = path_table(diagram, k - 1).offsets
    _check_budget(k, sum(below[s + 1] - below[s] for s, _ in ld.edges))
    offsets, parent, first = [0], [], [0] * len(ld.edges)
    runs = [[] for _ in below[1:]]
    for order in ld.in_order:
        for e in order:
            first[e] = len(parent)
            s = ld.source(e)
            runs[s].append(first[e])
            parent.extend(range(below[s], below[s + 1]))
        offsets.append(len(parent))
    return PathTable(tuple(offsets), tuple(parent), tuple(first),
                     tuple(map(tuple, runs)))


def path_index(diagram, p, k):
    """Index of the level-k cylinder of the rooted path p in the order of
    `enumerate_paths(diagram, k)`."""
    i = path_source(diagram, p)
    for j in range(1, k + 1):
        e = p.edges[j - 1]
        i += path_table(diagram, j).first[e] - \
            path_table(diagram, j - 1).offsets[diagram.level(j).source(e)]
    return i


def count_paths(diagram, n):
    """Vector over V_n: |E_{0,n}| path counts into each vertex.  Raises
    LevelOverflowError for n < 0 and at the first level past PATH_BUDGET
    paths; it stops at a repeating level that maps the counts to themselves."""
    if n < 0:
        raise LevelOverflowError()
    c = [1] * diagram.num_vertices(0)
    for j in range(1, n + 1):
        ld = diagram.level(j)
        c, before = [sum(c[ld.source(e)] for e in ld.in_order[v])
                     for v in range(ld.num_ranges)], c
        _check_budget(j, sum(c))
        if c == before and diagram.stationary and j >= len(diagram.levels):
            break
    return c
