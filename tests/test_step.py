"""The adic step in tower order, `compose_phi` against pointwise evaluation
at lazy successors, and the random properly ordered diagrams, their
telescopes (`telescope2`), the exact path comparison
(`first_disagreement`), the value of a cylinder function at a path
(`evaluate`), the coboundary g o phi - g (`coboundary`) and the end vertex
of a path (`path_range`) that the other test modules use."""

import itertools
import random
from fractions import Fraction

import pytest

from adic.catalog import builtin_diagram
from adic.diagrams import (LazyPath, OrderedDiagram, PathWalker, TAIL_MAX,
                           TAIL_MIN, count_paths, enumerate_paths, extreme,
                           make_level, materialize, path_index, successor)
from adic.errors import NotProperlyOrderedError
from adic.martingale import compose_phi, from_vector, lift


def path_range(diagram, p):
    """The vertex at which the finite path p ends."""
    if p.edges:
        return diagram.level(p.level).range(p.edges[-1])
    return p.root


def first_disagreement(diagram, p, q):
    """Smallest level where the lazy paths p and q differ; 0 if provably
    equal.

    Provable equality uses cycle detection on the joint walker state
    (`PathWalker.state`), valid for stationary diagrams; non-stationary
    diagrams raise beyond the materialized horizon.  Past the horizon the
    joint state takes finitely many values, so the scan ends.
    """
    wp, wq = PathWalker(diagram, p), PathWalker(diagram, q)
    seen = set()
    while True:
        st = (wp.state(), wq.state())
        if None not in st:
            if st in seen:
                return 0
            seen.add(st)
        kp, ep = wp.advance()
        _, eq = wq.advance()
        if ep != eq:
            return kp


def evaluate(diagram, h, x):
    """The value of the cylinder function h at the path x: a FinitePath of
    at least h.level edges, or a LazyPath read that far."""
    if isinstance(x, LazyPath):
        x = materialize(diagram, x, max(h.level, 1))
    elif len(x.edges) < h.level:
        raise ValueError("path too short for this cylinder function")
    return h.values[path_index(diagram, x, h.level)]


def coboundary(diagram, g):
    """g o phi - g, at the level of g o phi."""
    moved = compose_phi(diagram, g, 1)
    return from_vector(diagram, moved.level, [
        a - b for a, b in zip(moved.values,
                              lift(diagram, g, moved.level).values,
                              strict=True)])


def _random_matrix(r, n, max_edges):
    """An n x n matrix of entries 0 to 2 that add up to at most max_edges,
    with no zero row or column: every vertex has an in-edge and an
    out-edge."""
    while True:
        mat = [[r.randint(0, 2) for _ in range(n)] for _ in range(n)]
        if sum(map(sum, mat)) <= max_edges and all(map(any, mat)) and \
                all(map(any, zip(*mat))):
            return mat


def _ordered(r, mat):
    """The stationary diagram of mat, entry (v, w) counting the edges
    w -> v, with shuffled in-orders: primitive or not, properly ordered or
    not."""
    n = len(mat)
    edges = [(w, v) for v in range(n) for w in range(n)
             for _ in range(mat[v][w])]
    in_order = []
    for v in range(n):
        order = [e for e, (_, rng) in enumerate(edges) if rng == v]
        r.shuffle(order)
        in_order.append(order)
    return OrderedDiagram((make_level(n, n, edges, in_order),), True)


def _random_diagram(r, n, max_edges):
    """A primitive stationary diagram on n vertices with shuffled in-orders,
    properly ordered (unique all-min and all-max paths)."""
    while True:
        mat = _random_matrix(r, n, max_edges)
        power = mat
        for _ in range(n * n):
            power = [[sum(power[i][k] * mat[k][j] for k in range(n))
                      for j in range(n)] for i in range(n)]
        if not all(x > 0 for row in power for x in row):
            continue
        d = _ordered(r, mat)
        try:
            extreme(d, 1)
            extreme(d, -1)
        except NotProperlyOrderedError:
            continue
        return d


def _prefixed(d):
    """d behind one more first level, which does not repeat: every vertex
    of V_0 into vertex 0, and vertex 0 into every other vertex.  Its
    extreme chains differ from those of the repeating level."""
    n = d.num_vertices(0)
    edges = [(s, 0) for s in range(n)] + [(0, v) for v in range(1, n)]
    in_order = [[e for e, (_, r) in enumerate(edges) if r == v]
                for v in range(n)]
    return OrderedDiagram((make_level(n, n, edges, in_order),) + d.levels,
                          True)


def _random_prefix(r, d, count):
    """d behind `count` random levels that do not repeat, square or not:
    1 to 3 vertices each, every vertex with an in-edge and an out-edge, and
    shuffled in-orders.  Unlike `_prefixed`, their extreme chains and
    consecutive in-edges take any shape."""
    sizes = [r.randint(1, 3) for _ in range(count)] + [d.num_vertices(0)]
    levels = []
    for s, t in zip(sizes, sizes[1:]):
        edges = [(u, r.randrange(t)) for u in range(s)]
        edges += [(r.randrange(s), v) for v in range(t)]
        edges += [(r.randrange(s), r.randrange(t))
                  for _ in range(r.randint(0, 2))]
        r.shuffle(edges)
        in_order = [[e for e, (_, w) in enumerate(edges) if w == v]
                    for v in range(t)]
        for order in in_order:
            r.shuffle(order)
        levels.append(make_level(s, t, edges, in_order))
    return OrderedDiagram(tuple(levels) + d.levels, True)


def telescope2(d):
    """d with its levels 2k - 1 and 2k paired into level k: an edge is a
    pair (e1, e2) with r(e1) = s(e2), ordered into r(e2) by the place of
    e2, then by that of e1, and the stationary tail repeats its square.
    Level 2k of d and level k of the telescope have the same paths, in the
    same order, and the same adic map (Herman-Putnam-Skau, 1992)."""
    levels = []
    while 2 * len(levels) - 1 < len(d.levels):
        k = 2 * len(levels) + 1
        low, high = d.level(k), d.level(k + 1)
        edges, in_order = [], []
        for v, order in enumerate(high.in_order):
            in_order.append([])
            for e2 in order:
                for e1 in low.in_order[high.source(e2)]:
                    in_order[-1].append(len(edges))
                    edges.append((low.source(e1), v))
        levels.append(make_level(low.num_sources, high.num_ranges, edges,
                                 in_order))
    return OrderedDiagram(tuple(levels), True)


def _prefix_draws(seed, count):
    """`count` draws of `_random_diagram` on 1 to 3 vertices behind one or
    two `_random_prefix` levels."""
    r = random.Random(seed)
    return [_random_prefix(r, _random_diagram(r, r.randint(1, 3), 6),
                           r.randint(1, 2)) for _ in range(count)]


@pytest.fixture(scope="module")
def diagrams():
    out = [builtin_diagram(name)
           for name in ("odo2", "odo3", "fib", "pisot31")]
    r = random.Random(2024)
    out += [_random_diagram(r, n, 6) for n in (2, 2, 3)]
    return out + [_prefixed(out[3])]


@pytest.fixture(scope="module")
def transient_two():
    """A properly ordered diagram whose min and max source maps both take
    two steps to reach their fixed vertex."""
    r = random.Random(5)
    while True:
        d = _random_diagram(r, 3, 7)
        if extreme(d, 1)[0] == extreme(d, -1)[0] == 2:
            return d


def test_step_follows_tower_order(diagrams):
    # within one tower the enumeration order is the successor order, and
    # its reverse the predecessor order; from a tower's top (bottom) the map
    # carries into higher levels, so the image's level-n prefix is the
    # first (last) path of some tower
    n = 4
    for d in diagrams:
        every = enumerate_paths(d, n)
        towers = [[p for p in every if path_range(d, p) == v]
                  for v in range(d.num_vertices(n))]
        ends = {1: {t[0].edges for t in towers},
                -1: {t[-1].edges for t in towers}}
        for tower in towers:
            for i, p in enumerate(tower):
                for direction in (1, -1):
                    j = i + direction
                    if 0 <= j < len(tower):
                        img = successor(d, LazyPath(p, TAIL_MIN), direction)
                        want = LazyPath(tower[j], TAIL_MIN)
                        assert first_disagreement(d, img, want) == 0, \
                            (d, p.edges, direction)
                        continue
                    try:
                        img = successor(d, LazyPath(p, TAIL_MIN), direction)
                    except NotProperlyOrderedError:
                        continue  # fib has two maximal paths
                    assert materialize(d, img, n).edges in ends[direction]


def test_compose_phi_matches_lazy_successors(diagrams, transient_two):
    one_carry = 0
    for d, powers in [(d, range(1, 5)) for d in diagrams] + \
            [(transient_two, range(1, 9))]:
        # level 0 already separates the vertices of a multi-vertex diagram
        level = 1 if d.num_vertices(0) == 1 else 0
        h = from_vector(d, level, [
            Fraction(i, 3) for i in range(len(enumerate_paths(d, level)))])
        for k in [s * p for p in powers for s in (1, -1)]:
            direction = 1 if k > 0 else -1
            try:
                T, v, _ = extreme(d, direction)
            except NotProperlyOrderedError:
                with pytest.raises(NotProperlyOrderedError):
                    compose_phi(d, h, k)
                continue
            # the least level whose tower over v holds |k| paths
            n_star = next(j for j in itertools.count()
                          if count_paths(d, j)[v] >= abs(k))
            m = max(h.level, len(d.levels) - 1)
            c = compose_phi(d, h, k)
            assert c.level == max(min(m + abs(k) * T, T + max(m, n_star)), 1)
            one_carry += n_star >= 2 and c.level < m + abs(k) * T
            for p, value in zip(enumerate_paths(d, c.level), c.values,
                                strict=True):
                for tail in (TAIL_MIN, TAIL_MAX):
                    x = LazyPath(p, tail)
                    for _ in range(abs(k)):
                        x = successor(d, x, direction)
                    assert value == evaluate(d, h, x), \
                        (d, k, p.edges, tail.kind)
    assert one_carry
