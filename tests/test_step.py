"""The carry kernel `diagrams.step` against brute force: tower order from
`enumerate_paths`, and `compose_phi` against pointwise evaluation at lazy
successors."""

import random
from fractions import Fraction

import pytest

from adic.catalog import builtin_diagram
from adic.diagrams import (LazyPath, OrderedDiagram, TAIL_MAX, TAIL_MIN,
                           enumerate_paths, make_level, step, step_tables,
                           successor)
from adic.errors import NotProperlyOrderedError
from adic.martingale import CylinderFunction, compose_phi, phi_transient


def _random_diagram(r, n, max_edges):
    """A primitive stationary diagram on n vertices with shuffled in-orders,
    properly ordered (unique all-min and all-max paths)."""
    while True:
        mat = [[r.randint(0, 2) for _ in range(n)] for _ in range(n)]
        if sum(map(sum, mat)) > max_edges:
            continue
        power = mat
        for _ in range(n * n):
            power = [[sum(power[i][k] * mat[k][j] for k in range(n))
                      for j in range(n)] for i in range(n)]
        if not all(x > 0 for row in power for x in row):
            continue
        edges = [(w, v) for v in range(n) for w in range(n)
                 for _ in range(mat[v][w])]
        in_order = []
        for v in range(n):
            order = [e for e, (_, rng) in enumerate(edges) if rng == v]
            r.shuffle(order)
            in_order.append(order)
        d = OrderedDiagram((make_level(n, n, edges, in_order),), True)
        try:
            phi_transient(d, 1)
            phi_transient(d, -1)
        except NotProperlyOrderedError:
            continue
        return d


@pytest.fixture(scope="module")
def diagrams():
    out = [builtin_diagram(name)
           for name in ("odo2", "odo3", "fib", "pisot31")]
    r = random.Random(2024)
    return out + [_random_diagram(r, n, 6) for n in (2, 2, 3)]


def test_step_follows_tower_order(diagrams):
    n = 4
    for d in diagrams:
        up, down = step_tables(d, n, 1), step_tables(d, n, -1)
        for v in range(d.num_vertices(n)):
            tower = [p.edges for p in enumerate_paths(d, 0, n, target=v)]
            for i, edges in enumerate(tower):
                digits = list(edges)
                assert step(up, digits) == (i + 1 < len(tower))
                assert tuple(digits) == tower[min(i + 1, len(tower) - 1)]
                digits = list(edges)
                assert step(down, digits) == (i > 0)
                assert tuple(digits) == tower[max(i - 1, 0)]


def test_compose_phi_matches_lazy_successors(diagrams):
    for d in diagrams:
        # level 0 already separates the vertices of a multi-vertex diagram
        level = 1 if d.num_vertices(0) == 1 else 0
        h = CylinderFunction(level, {
            (p.edges if level else p.root): Fraction(i, 3)
            for i, p in enumerate(enumerate_paths(d, 0, level))})
        for k in (1, 2, 3, 4, -1, -2, -3, -4):
            direction = 1 if k > 0 else -1
            try:
                T, _ = phi_transient(d, direction)
            except NotProperlyOrderedError:
                with pytest.raises(NotProperlyOrderedError):
                    compose_phi(d, h, k)
                continue
            c = compose_phi(d, h, k)
            assert c.level == max(h.level + abs(k) * T, 1)
            for p in enumerate_paths(d, 0, c.level):
                for tail in (TAIL_MIN, TAIL_MAX):
                    x = LazyPath(p, tail)
                    for _ in range(abs(k)):
                        x = successor(d, x, direction)
                    assert c.values[p.edges] == h.evaluate(d, x), \
                        (d, k, p.edges, tail.kind)
