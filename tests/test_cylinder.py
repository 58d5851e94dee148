"""Cylinder functions as vectors in `enumerate_paths` order, and the
per-level path tables behind them, against brute force: a reference dict
keyed by edge tuples (by source vertex at level 0), built inline from
`enumerate_paths`."""

import random
from fractions import Fraction

import pytest

from test_step import (_prefix_draws, _prefixed, _random_diagram, evaluate,
                       path_range)

from adic import diagrams as diagrams_module
from adic.catalog import builtin_diagram
from adic.cohomology import birkhoff_cochain
from adic.diagrams import (FinitePath, LazyPath, TAIL_MAX, TAIL_MIN,
                           enumerate_paths, extreme, materialize,
                           path_index, path_source, path_table, successor)
from adic.errors import (LevelOverflowError, NotProperlyOrderedError,
                         PreconditionError)
from adic.martingale import (compose_level, compose_phi, from_vector,
                             gather, holder_norm, lift, nu_mean, project)
from adic.measures import renorm_data, xi_vector

TOP = 3


@pytest.fixture(scope="module")
def diagrams():
    """Builtins, random stationary diagrams, and prefix levels: fib and
    pisot31 `_prefixed`, and ten `_prefix_draws`, one of which repeats the
    one-edge loop."""
    out = [builtin_diagram(name)
           for name in ("odo2", "odo3", "fib", "pisot31")]
    r = random.Random(7)
    out += [_random_diagram(r, n, 6) for n in (2, 3, 3)]
    out += [_prefixed(builtin_diagram(name)) for name in ("fib", "pisot31")]
    return out + _prefix_draws(14, 10)


def _key(d, p, m):
    """The reference key of the level-m cylinder of a rooted path p."""
    return p.edges[:m] if m else path_source(d, p)


def _random_pair(r, d, m):
    """A random level-m function and its reference dict."""
    paths = enumerate_paths(d, m)
    vals = [Fraction(r.randint(-8, 8), 4) for _ in paths]
    return from_vector(d, m, vals), {_key(d, p, m): v
                                     for p, v in zip(paths, vals)}


def test_path_tables_match_enumeration(diagrams):
    for d in diagrams:
        for k in range(TOP + 1):
            paths = enumerate_paths(d, k)
            t = path_table(d, k)
            assert t.offsets[-1] == len(paths)
            for v, (a, b) in enumerate(t.blocks()):
                assert all(path_range(d, p) == v for p in paths[a:b])
            for i, p in enumerate(paths):
                assert path_index(d, p, k) == i
            if k == 0:
                continue
            above = {p.edges: i for i, p in enumerate(
                enumerate_paths(d, k - 1))} if k > 1 else None
            for i, p in enumerate(paths):
                want = above[p.edges[:-1]] if above else path_source(d, p)
                assert t.parent[i] == want
                assert t.first[p.edges[-1]] == min(
                    j for j, q in enumerate(paths)
                    if q.edges[-1] == p.edges[-1])


def test_vector_operations_match_reference(diagrams):
    r = random.Random(11)
    loops = 0
    for d in diagrams:
        if d.matrix(len(d.levels)) == [[1]]:
            # the one-edge loop has Perron root 1, so no xi weights: refused
            with pytest.raises(PreconditionError):
                renorm_data(d)
            loops += 1
            continue
        paths = {k: enumerate_paths(d, k) for k in range(TOP + 1)}
        xi = {k: xi_vector(d, k) for k in range(TOP + 1)}
        for m in range(TOP + 1):
            h, ref = _random_pair(r, d, m)
            for k in range(m, TOP + 1):
                assert lift(d, h, k).values == \
                    [ref[_key(d, p, m)] for p in paths[k]]
                assert birkhoff_cochain(d, h, k) == tuple(
                    sum((ref[_key(d, p, m)] for p in paths[k]
                         if path_range(d, p) == v), Fraction(0))
                    for v in range(d.num_vertices(k)))
            for k in range(m):
                want = []
                for q in paths[k]:
                    mass = sum((xi[m][path_range(d, p)] * ref[_key(d, p, m)]
                                for p in paths[m]
                                if _key(d, p, k) == _key(d, q, k)),
                               Fraction(0))
                    want.append(mass / xi[k][path_range(d, q)])
                assert project(d, h, k).values == want
            assert nu_mean(d, h) == sum(
                xi[m][path_range(d, p)] * ref[_key(d, p, m)]
                for p in paths[m])
            # sup plus the largest |h(x) - h(y)| lam^((j-1) alpha) over
            # pairs first differing at edge j
            items = [(p.edges, float(ref[_key(d, p, m)]))
                     for p in paths[max(m, 1)]]
            semi = max((abs(u - w) * 2.0 ** (3.0 * next(
                j for j, (e, f) in enumerate(zip(p, q)) if e != f))
                for i, (p, u) in enumerate(items)
                for q, w in items[i + 1:]), default=0.0)
            assert holder_norm(d, h, 3.0, 2.0)["norm"] == \
                max(abs(u) for _, u in items) + semi
            for p in paths[TOP]:
                assert evaluate(d, h, p) == ref[_key(d, p, m)]
                for cut, tail in ((TOP, TAIL_MIN), (1, TAIL_MAX)):
                    x = LazyPath(FinitePath(p.edges[:cut]), tail)
                    assert evaluate(d, h, x) == \
                        ref[_key(d, materialize(d, x, max(m, 1)), m)]
    assert loops == 1


def test_compose_phi_matches_stepped_reference(diagrams):
    # phi on level-L paths by brute force: the next path of the same tower
    # in enumerate_paths order (the previous one for negative powers), and
    # from a tower's end the level-L prefix of the extreme path.  Prefixed
    # diagrams too, read at the level `compose_level` guarantees: L counts
    # |k|*T levels up from max(m, L0 - 1), L0 the levels given
    r = random.Random(13)
    for d in diagrams:
        for m in range(3):
            h, ref = _random_pair(r, d, m)
            for power in (1, 2, 3, -1, -2, -3):
                direction = 1 if power > 0 else -1
                try:
                    T, _, wrapped = extreme(d, direction)
                except NotProperlyOrderedError:
                    continue
                L = max(max(m, len(d.levels) - 1) + abs(power) * T, 1)
                wrapped = materialize(d, wrapped, L).edges
                paths = enumerate_paths(d, L)
                nxt = {}
                for v in range(d.num_vertices(L)):
                    tower = [p.edges for p in paths if path_range(d, p) == v]
                    tower = tower[::direction]
                    nxt.update(zip(tower, tower[1:] + [wrapped]))
                want = []
                for p in paths:
                    edges = p.edges
                    for _ in range(abs(power)):
                        edges = nxt[edges]
                    want.append(ref[_key(d, FinitePath(edges), m)])
                got = compose_phi(d, h, power)
                assert got.level <= L, (d, m, power)
                assert lift(d, got, L).values == want, (d, m, power)


def test_gather_matches_pointwise_composition():
    # gather(d, m, power, k)[i] is the level-m index that h o phi^power,
    # lifted to level k, reads on the i-th level-k cylinder: phi stepped
    # point by point (`successor`) from the minimal and the maximal tail of
    # every cylinder, at k from `compose_level` to one above, on the
    # builtins behind a `_prefixed` level and on `_prefix_draws`
    ds = [_prefixed(builtin_diagram(name))
          for name in ("odo2", "odo3", "fib", "pisot31")]
    for d in ds + _prefix_draws(14, 10):
        for m in range(3):
            index = from_vector(d, m, list(range(len(enumerate_paths(d, m)))))
            for power in (1, 2, 3, -1, -2, -3):
                direction = 1 if power > 0 else -1
                try:
                    top = compose_level(d, m, power)
                except NotProperlyOrderedError:
                    continue
                for k in (top, top + 1):
                    got, paths = gather(d, m, power, k), enumerate_paths(d, k)
                    assert len(got) == len(paths)
                    for i, p in enumerate(paths):
                        for tail in (TAIL_MIN, TAIL_MAX):
                            x = LazyPath(p, tail)
                            for _ in range(abs(power)):
                                x = successor(d, x, direction)
                            assert evaluate(d, index, x) == got[i], \
                                (d, m, power, k, i, tail.kind)


def test_path_table_cache_is_bounded(odo2):
    # path tables and gathers are kept with the diagram and built once; a
    # diagram holds one path table per level, none past LEVEL_BUDGET
    odo2.tables.clear()
    built = [(path_table(odo2, k), gather(odo2, 1, 1, k)) for k in range(1, 9)]
    assert [(path_table(odo2, k), gather(odo2, 1, 1, k))
            for k in range(1, 9)] == built
    assert all(path_table(odo2, k) is t and gather(odo2, 1, 1, k) is g
               for k, (t, g) in enumerate(built, 1))
    assert sorted(odo2.tables["path_table"]) == [(k,) for k in range(9)]
    with pytest.raises(LevelOverflowError):
        path_table(odo2, diagrams_module.LEVEL_BUDGET + 1)
    assert len(odo2.tables["path_table"]) == 9
