"""Path spaces, orders, the path ultrametric, and the adic successor."""

import json
import math
import pickle
import random
import time
from fractions import Fraction

import pytest

import adic.diagrams as diagrams
from test_step import (_prefixed, _random_diagram, first_disagreement,
                       path_range)

from adic.catalog import builtin_diagram
from adic.cohomology import limit_rank, vertex_functionals
from adic.diagrams import (FinitePath, LazyPath, OrderedDiagram, PathWalker,
                           TAIL_MAX, TAIL_MIN, Tail, check_path, count_paths,
                           diagram_from_json_dict, enumerate_paths, extreme,
                           load_diagram, make_level, materialize, path_table,
                           successor, validate)
from adic.errors import (HorizonExceededError, LevelOverflowError,
                         NotProperlyOrderedError, NotStationaryError,
                         ParseError)
from adic.martingale import compose_phi, from_vector
from adic.measures import renorm_data, xi_vector
from adic.solenoid import _ultrametric, gluing_pairs
from adic.solver import birkhoff


def test_equal_diagrams_hash_equal_and_share_cache_entries(pisot31):
    # the hash is read off the compared fields only, not the tables
    twin = diagram_from_json_dict(pisot31.to_json_dict())
    assert twin is not pisot31 and twin == pisot31
    assert hash(twin) == hash(pisot31) == hash((pisot31.levels, True))
    assert hash(twin.levels[0]) == hash(pisot31.levels[0])
    assert repr(twin) == repr(pisot31) == (
        "OrderedDiagram(levels=(%r,), stationary=True)" % (twin.levels[0],))
    assert "_hash" not in repr(twin.levels[0])
    assert pickle.loads(pickle.dumps(twin)) == pisot31
    assert twin.to_json_dict() == pisot31.to_json_dict()
    table = path_table(pisot31, 7)
    assert twin.tables is pisot31.tables
    assert path_table(twin, 7) is table


def test_equal_paths_hash_equal():
    # the hash is the tuple's, of the compared fields: edges given as a
    # list or a tuple make the same path, the root still tells paths apart,
    # and the repr shows the compared fields only
    a, b = FinitePath([1, 0, 2]), FinitePath((1, 0, 2))
    assert a == b and hash(a) == hash(b) == hash(((1, 0, 2), None))
    assert {a: 0}[b] == 0
    assert a != FinitePath((1, 0))
    assert FinitePath((1, 0, 2), 0) == a  # a root goes with no edges only
    assert FinitePath((), root=1) != FinitePath((), root=2)
    assert repr(a) == "FinitePath(edges=(1, 0, 2), root=None)"


def test_validate_builtins_clean(odo2, fib, pisot31):
    assert validate(odo2) == []
    assert validate(fib) == []
    assert validate(pisot31) == []


def test_validate_reports_broken_order():
    level = make_level(1, 1, [(0, 0), (0, 0)], [[0]])
    bad = OrderedDiagram((level,), stationary=True)
    assert any("order not a permutation" in d for d in validate(bad))


def test_validate_reports_vertex_mismatch():
    l1 = make_level(1, 2, [(0, 0), (0, 1)], [[0], [1]])
    l2 = make_level(1, 1, [(0, 0)], [[0]])
    bad = OrderedDiagram((l1, l2), stationary=False)
    assert any("vertex counts disagree" in d for d in validate(bad))


def test_validate_reports_vertex_without_in_edges(tmp_path):
    # vertex 1 has no in-edge: the successor and the extreme paths would
    # fail on it, so loading refuses the diagram
    level = make_level(2, 2, [(0, 0), (1, 0)], [[0, 1], []])
    bad = OrderedDiagram((level,), stationary=True)
    assert validate(bad) == ["level 1 vertex 1: no incoming edge"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad.to_json_dict()))
    with pytest.raises(ParseError, match="level 1 vertex 1: no incoming edge"):
        load_diagram(str(path))


def test_validate_groups_the_edges_once():
    # 20000 vertices with one in-edge each: the order check reads each
    # vertex's in-edges off one grouping, not off a pass over every edge
    n = 20000
    level = make_level(1, n, [(0, v) for v in range(n)],
                       [[v] for v in range(n - 1)] + [[0]])
    t0 = time.perf_counter()
    assert validate(OrderedDiagram((level,))) == [
        "level 1 vertex %d: order not a permutation" % (n - 1)]
    assert time.perf_counter() - t0 < 1


def test_enumerate_odo2_binary_counting(odo2):
    ps = enumerate_paths(odo2, 3)
    assert len(ps) == 8
    for i, p in enumerate(ps):
        assert p.edges == (i & 1, (i >> 1) & 1, (i >> 2) & 1)


def test_enumerate_fib_counts(fib):
    # column sums of successive matrix powers of [[1,1],[1,0]]
    assert [len(enumerate_paths(fib, k)) for k in range(1, 6)] == \
        [3, 5, 8, 13, 21]
    # per-target counts are consecutive Fibonacci numbers
    assert count_paths(fib, 5) == [13, 8]
    assert sum(count_paths(fib, 5)) == 21


def test_enumerate_base_case_is_edge_order(pisot31):
    ps = enumerate_paths(pisot31, 1)
    assert [p.edges for p in ps] == \
        [(0,), (1,), (2,), (3,), (4,), (5,), (6,), (7,)]


def _concatenated_paths(d, n):
    """The edge tuples of E_{0,n}, each path its parent plus one edge, one
    level at a time."""
    table = {v: [()] for v in range(d.num_vertices(0))}
    for j in range(1, n + 1):
        ld = d.level(j)
        table = {v: [t + (e,) for e in ld.in_order[v]
                     for t in table[ld.source(e)]]
                 for v in range(ld.num_ranges)}
    return [t for v in range(d.num_vertices(n)) for t in table[v]]


def test_enumeration_matches_concatenated_paths(odo2, fib, pisot31):
    r = random.Random(512)
    diagrams = [odo2, fib, pisot31] + [_random_diagram(r, n, 6)
                                       for n in (2, 3)]
    for d in diagrams + [_prefixed(d) for d in diagrams]:
        for n in range(1, 7):
            assert [p.edges for p in enumerate_paths(d, n)] == \
                _concatenated_paths(d, n), n
        assert enumerate_paths(d, 0) == [
            FinitePath((), v) for v in range(d.num_vertices(0))]


def test_negative_levels_are_refused(odo2, fib):
    for call in (enumerate_paths, count_paths):
        with pytest.raises(LevelOverflowError):
            call(odo2, -1)
    # the per-level lists would read level -1 as their last entry, and the
    # trace rows a level below their base as another level's
    rd = renorm_data(fib)
    tower = limit_rank(fib, rd)
    for call in (lambda: xi_vector(fib, -1), lambda: rd.tower_heights(-1),
                 lambda: vertex_functionals(tower,
                                            tower.functionals.base - 1)):
        with pytest.raises(LevelOverflowError):
            call()


def test_one_loop_lists_a_deep_level_at_once():
    # the path count stays 1, so the work is the one path's 20000 edges
    loop = diagram_from_json_dict({"levels": [{
        "num_sources": 1, "num_ranges": 1, "edges": [[0, 0]],
        "in_order": [[0]]}], "stationary": True})
    assert [p.edges for p in enumerate_paths(loop, 20000)] == \
        [(0,) * 20000]


def test_one_loop_counts_a_deep_level_at_once():
    # level 1 repeats and maps the count [1] to itself, so the count stops
    loop = diagram_from_json_dict({"levels": [{
        "num_sources": 1, "num_ranges": 1, "edges": [[0, 0]],
        "in_order": [[0]]}], "stationary": True})
    t0 = time.perf_counter()
    assert count_paths(loop, 10 ** 8) == [1]
    assert time.perf_counter() - t0 < 0.1
    # a non-repeating first level that fixes the count does not stop it
    assert count_paths(_prefixed(builtin_diagram("odo2")), 3) == [4]


# The path ultrametric d(p, q) = lam**(-k+1), k the first level where p
# and q differ, is the one `solenoid.bilip_check` compares against.

def test_metric_identity_and_level_one():
    a = FinitePath((0, 1, 1, 1))
    b = FinitePath((1, 0, 0, 0))
    assert _ultrametric(a, a, 2) == 0
    # first disagreement at level 1: distance lambda^0 = 1
    assert _ultrametric(a, b, 2) == 1


def test_metric_fib_agree_to_four(fib):
    lam = (1 + math.sqrt(5)) / 2
    a = FinitePath((0, 0, 0, 0, 0))
    b = FinitePath((0, 0, 0, 0, 2))
    assert first_disagreement(fib, LazyPath(a, TAIL_MIN),
                              LazyPath(b, TAIL_MIN)) == 5
    assert abs(_ultrametric(a, b, lam) - lam ** (-4)) < 1e-12
    assert abs(lam ** (-4) - 0.1459) < 1e-4


def test_metric_ultrametric_inequality(odo2):
    reps = enumerate_paths(odo2, 4)
    d = {(i, j): _ultrametric(reps[i], reps[j], 2)
         for i in range(16) for j in range(16)}
    for i in range(16):
        for j in range(16):
            for k in range(16):
                assert d[i, k] <= max(d[i, j], d[j, k])


def test_successor_binary_carry(odo2):
    p = LazyPath(FinitePath((1, 1, 0)), TAIL_MIN)
    q = successor(odo2, p)
    assert materialize(odo2, q, 3).edges == (0, 0, 1)


def test_successor_max_wraps_to_min(odo2, fib):
    for d in (odo2, fib):
        top = LazyPath(FinitePath(()), TAIL_MAX)
        img = successor(d, top)
        lo = LazyPath(FinitePath(()), TAIL_MIN)
        assert first_disagreement(d, img, lo) == 0  # provably equal


def test_successor_agrees_with_enumeration(odo2, fib, pisot31):
    # within one tower the enumeration order is the successor order; across
    # tower boundaries the successor carries into higher levels instead
    for d in (odo2, fib, pisot31):
        every = enumerate_paths(d, 4)
        for v in range(d.level(4).num_ranges):
            ps = [p for p in every if path_range(d, p) == v]
            for i in range(len(ps) - 1):
                img = successor(d, LazyPath(ps[i], TAIL_MIN))
                want = LazyPath(ps[i + 1], TAIL_MIN)
                assert first_disagreement(d, img, want) == 0, (d, v, i)


def test_successor_tower_cycle(odo2, fib):
    # iterating from the all-min prefix visits every level-k path once
    for d, k in ((odo2, 10), (fib, 8)):
        total = sum(count_paths(d, k))
        seen = []
        p = LazyPath(FinitePath(()), TAIL_MIN)
        for _ in range(total):
            seen.append(materialize(d, p, k).edges)
            p = successor(d, p)
        assert len(set(seen)) == total
        back = materialize(d, p, k).edges
        assert back == seen[0]


def _cycle(ld, r):
    """A word of edges of a level that chains around a cycle: a random
    walk cut at its first repeated vertex."""
    v, walk, seen = r.randrange(ld.num_sources), [], {}
    while v not in seen:
        seen[v] = len(walk)
        walk.append(r.choice(ld.out_edges[v]))
        v = ld.range(walk[-1])
    return tuple(walk[seen[v]:])


def _lazy_points(d, r):
    """Lazy paths of d: every prefix of length 0-4 with MIN and MAX tails,
    and, where the word starts on the repeating level, random prefixes with
    PERIODIC tails whose words are those of the extreme paths and chained
    cycles."""
    words = [_cycle(d.levels[-1], r) for _ in range(2)]
    for direction in (1, -1):
        try:
            words.append(extreme(d, direction)[2].tail.word)
        except NotProperlyOrderedError:
            pass
    out = []
    for pl in range(5):
        paths = enumerate_paths(d, pl)
        out += [LazyPath(p, tail) for p in paths
                for tail in (TAIL_MIN, TAIL_MAX)]
        if pl >= len(d.levels) - 1:
            for word in words:
                v = d.levels[-1].source(word[0])
                out.append(LazyPath(r.choice(
                    [p for p in paths if path_range(d, p) == v]),
                    Tail("PERIODIC", word)))
    return out


def test_predecessor_inverts_successor():
    # phi^-1 o phi and phi o phi^-1 are the identity wherever both steps
    # are defined, and phi takes the maximal path to the minimal one
    r = random.Random(29)
    drawn = [_random_diagram(r, n, 6) for n in (1, 2, 2, 3, 3)]
    for d in [builtin_diagram(name) for name in ("odo2", "odo3", "fib",
                                                  "pisot31")] + \
            drawn + [_prefixed(d) for d in drawn]:
        for x in _lazy_points(d, r):
            for direction in (1, -1):
                try:
                    back = successor(d, successor(d, x, direction),
                                     -direction)
                except NotProperlyOrderedError:
                    continue  # fib has two maximal paths
                assert first_disagreement(d, back, x) == 0, \
                    (d, x, direction)
        try:
            top = extreme(d, -1)[2]
        except NotProperlyOrderedError:
            continue
        assert first_disagreement(d, successor(d, top),
                                  extreme(d, 1)[2]) == 0


def test_walker_state_starts_past_the_prefix_and_the_levels(odo2, fib):
    # the state is None until the walk has left both the prefix and the
    # materialized levels, then (vertex, word position)
    x = LazyPath(FinitePath((0, 2, 1)), Tail("PERIODIC", (2, 1)))
    w = PathWalker(fib, x)
    states = []
    for _ in range(6):
        states.append(w.state())
        w.advance()
    assert states == [None, None, None, (0, 0), (1, 1), (0, 0)]
    w = PathWalker(_prefixed(odo2), LazyPath(FinitePath(()), TAIL_MAX))
    assert [w.state(), w.advance()[0], w.state()] == [None, 1, None]
    # past the last level of a non-stationary diagram the walk stops
    w = PathWalker(OrderedDiagram(odo2.levels), LazyPath(FinitePath(())))
    w.advance()
    with pytest.raises(HorizonExceededError):
        w.state()


def test_fib_predecessor_of_min_is_improper(fib):
    # fib's max in-edge map swaps its two vertices, so it has two maximal
    # paths; two parallel towers have two minimal paths
    lo = LazyPath(FinitePath(()), TAIL_MIN)
    parallel = OrderedDiagram(
        (make_level(2, 2, [(0, 0), (1, 1)], [[0], [1]]),), stationary=True)
    for call in (lambda: successor(fib, lo, -1),
                 lambda: extreme(parallel, 1),
                 lambda: extreme(parallel, -1)):
        with pytest.raises(NotProperlyOrderedError):
            call()


def test_non_stationary_extreme_errors():
    # the extreme paths, the composition and the gluing have one refusal
    # of a diagram without a repeating level
    d = OrderedDiagram((make_level(1, 1, [(0, 0), (0, 0)], [[0, 1]]),))
    h = from_vector(d, 1, [Fraction(1), Fraction(2)])
    for call in (lambda: extreme(d, 1), lambda: compose_phi(d, h, 1),
                 lambda: gluing_pairs(d, 0)):
        with pytest.raises(NotStationaryError,
                           match="needs a stationary diagram"):
            call()


def test_vertex_without_in_edges_is_a_parse_error():
    # the constructor accepts the level, so `validate` can report it; the
    # extreme paths and the orbit sums refuse it as malformed input
    level = make_level(2, 2, [(0, 0), (1, 0)], [[0, 1], []])
    d = OrderedDiagram((level,), True)
    assert "level 1 vertex 1: no incoming edge" in validate(d)
    h = from_vector(d, 1, [Fraction(1), Fraction(2)])
    start = LazyPath(FinitePath((0,)), TAIL_MIN)
    for call in (lambda: extreme(d, 1),
                 lambda: birkhoff(d, h, start, 7)):
        with pytest.raises(ParseError, match="vertex 1: no incoming edge"):
            call()


@pytest.mark.parametrize("prefix, word, message", [
    ((7,), None, "path edge index out of range"),
    ((1, 1), None, "path edges do not chain"),
    ((), (2, 1, 7), "periodic tail edge index out of range"),
    ((), (2, 2), "periodic tail does not chain"),
    # the first bad edge in level order: the chain breaks at level 2,
    # before the index 7 at level 3
    ((), (2, 2, 7), "periodic tail does not chain")])
def test_every_walk_refuses_a_malformed_path(fib, prefix, word, message):
    # on fib, edges 1: b->a and 2: a->b are the last in-edges of their
    # ranges, so the successor carries past them to the bad edge
    start = LazyPath(FinitePath(prefix),
                     Tail("PERIODIC", word) if word else TAIL_MIN)
    h = from_vector(fib, 1, [Fraction(1), Fraction(0), Fraction(-1)])
    for call in (lambda: successor(fib, start),
                 lambda: materialize(fib, start, 3),
                 lambda: birkhoff(fib, h, start, 7),
                 lambda: check_path(fib, start)):
        with pytest.raises(ParseError, match="^%s$" % message):
            call()


def test_a_walk_checks_only_the_edges_it_reads(fib):
    # edge 0 (a->a) is not the last in-edge of its range, so the successor
    # of (0, 1) carries at level 1 and never reads the bad edge 1 (b->a)
    # at level 2: it returns the non-path (1, 1); check_path reads both
    start = LazyPath(FinitePath((0, 1)), TAIL_MIN)
    after = successor(fib, start)
    assert after == LazyPath(FinitePath((1, 1)), TAIL_MIN)
    for p in (start, after):
        with pytest.raises(ParseError, match="^path edges do not chain$"):
            check_path(fib, p)


def test_check_path_reads_as_deep_as_a_word_can_go_wrong(fib, monkeypatch):
    # the prefix alone, or for a word one period and one edge past the
    # prefix and the materialized levels, on a diagram that does not
    # repeat its levels alone, but never less than the prefix
    tops = []
    monkeypatch.setattr(diagrams, "materialize",
                        lambda d, p, k: tops.append(k))
    for d in (fib, OrderedDiagram(fib.levels * 3)):
        for p in (LazyPath(FinitePath((0, 2, 1, 2))),
                  LazyPath(FinitePath((0,)), Tail("PERIODIC", (2, 1, 0))),
                  LazyPath(FinitePath((0, 2, 1, 2)), Tail("PERIODIC", (0,)))):
            assert check_path(d, p) is p
    assert tops == [4, 5, 6, 4, 3, 4]


def test_first_disagreement_stationary_equality(odo2):
    a = LazyPath(FinitePath((0, 0)), TAIL_MIN)
    b = LazyPath(FinitePath((0, 0, 0, 0)), TAIL_MIN)
    assert first_disagreement(odo2, a, b) == 0
    c = LazyPath(FinitePath((0, 0, 0, 1)), TAIL_MIN)
    assert first_disagreement(odo2, a, c) == 4
