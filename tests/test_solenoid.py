"""Graph approximants, wrapping maps, and the finite-level conjugacy."""

import math
import random
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from test_algebra import _drawn_diagrams
from test_step import (_prefix_draws, _prefixed, _random_diagram,
                       _random_prefix, telescope2)

from adic import solenoid
from adic.catalog import builtin_diagram
from adic.diagrams import (LazyPath, TAIL_MIN, count_paths, enumerate_paths,
                           materialize, path_source)
from adic.errors import NumericError, PreconditionError
from adic.measures import renorm_data, xi_vector
from adic.scalars import eliminate
from adic.solenoid import (ApproxComplex, SolenoidPoint, bilip_check,
                           build_complex, cached_complexes, conjugacy_point,
                           diameter, euler_characteristic,
                           first_betti_number, point_distance,
                           solenoid_metric, wrapping)


def test_complex_shapes(odo2, fib, pisot31):
    for d, chi in ((odo2, 0), (fib, -1), (pisot31, -1)):
        rd = renorm_data(d)
        for k in (0, 1, 3):
            cx = build_complex(d, rd, k)
            assert cx.num_edges == d.level(1).num_sources
            assert euler_characteristic(cx) == chi


def test_first_betti_number_counts_components():
    # two loops on separate classes: 1 - chi would say 1, H1 has dimension 2
    loops = ApproxComplex(level=0, lengths=(1, 1), start_class=(0, 1),
                          end_class=(0, 1),
                          classes=((("-", 0), ("+", 0)), (("-", 1), ("+", 1))),
                          glued_pairs=((0, 0), (1, 1)))
    assert 1 - euler_characteristic(loops) == 1
    assert first_betti_number(loops) == 2


def test_total_length_and_diameter_stationary_invariance(odo2, fib, pisot31):
    # lengths scale as lam^-k against tower growth lam^k: every level is
    # isometric to level 0
    for d in (odo2, fib, pisot31):
        rd = renorm_data(d)
        base = build_complex(d, rd, 0)
        for k in (1, 2, 4):
            cx = build_complex(d, rd, k)
            assert abs(float(cx.total_length()) -
                       float(base.total_length())) < 1e-12
            assert abs(float(diameter(cx)) -
                       float(diameter(base))) < 1e-12


def test_known_diameters(odo2, pisot31):
    rd = renorm_data(odo2)
    assert diameter(build_complex(odo2, rd, 0)) == Fraction(1, 2)
    rdp = renorm_data(pisot31)
    assert float(diameter(build_complex(pisot31, rdp, 0))) == 1.0


def test_stretch_identity_all_levels(odo2, fib, pisot31):
    # total coarse length of each wrapped edge equals lam times its length
    for d in (odo2, fib, pisot31):
        rd = renorm_data(d)
        for k in range(1, 11):
            wm = wrapping(d, rd, k)
            hi = build_complex(d, rd, k)
            for v in range(hi.num_edges):
                lhs = float(wm.word_total(v))
                rhs = rd.lam_float * float(hi.lengths[v])
                assert abs(lhs - rhs) <= 1e-9


def test_wrapping_words_follow_in_order(fib):
    rd = renorm_data(fib)
    wm = wrapping(fib, rd, 1)
    ld = fib.level(1)
    for v in range(2):
        assert wm.words[v] == tuple(ld.source(e) for e in ld.in_order[v])


def test_conjugacy_separates_paths(odo2):
    rd = renorm_data(odo2)
    ps = enumerate_paths(odo2, 6)
    pts = [conjugacy_point(odo2, rd, p) for p in ps]
    assert solenoid_metric(pts[0], pts[0]) == 0.0
    seen = set()
    for p in pts:
        seen.add(tuple((v, float(t)) for v, t in p.coords))
    assert len(seen) == len(ps)


def test_bilip_small_sample(odo2, fib):
    for d in (odo2, fib):
        rd = renorm_data(d)
        ps = enumerate_paths(d, 5)
        pairs = [(ps[i], ps[j]) for i in range(len(ps))
                 for j in range(i + 1, len(ps))]
        rep = bilip_check(d, rd, pairs, 0.25)
        assert rep["upper_bound_holds"] is True
        assert rep["worst_upper_slack"] <= 0.0
        assert rep["lower_constant"] > 0.0
        assert rep["pairs_checked"] == len(pairs)


def _floor_coords(d, rd, p, heights):
    """Reference coordinates: lam^-i times the floor height of p at level
    i, summed from the level-(i-1) tower heights."""
    height = 0
    coords = [(path_source(d, p), 0)]
    for i in range(1, p.level + 1):
        ld = d.level(i)
        e = p.edges[i - 1]
        v = ld.range(e)
        for f in ld.in_order[v]:
            if f == e:
                break
            height = height + heights[i - 1][ld.source(f)]
        coords.append((v, rd.lambda_mu ** (-i) * height))
    return tuple(coords)


def test_float_metric_matches_exact(odo2, fib, pisot31):
    extra = 3
    for d in (odo2, fib, pisot31):
        rd = renorm_data(d)
        heights = [rd.tower_heights(k) for k in range(5 + extra)]
        for level in range(6):
            deep = [materialize(d, LazyPath(p, TAIL_MIN), level + extra)
                    for p in enumerate_paths(d, level)]
            pts = [conjugacy_point(d, rd, p) for p in deep]
            for p, y in zip(deep, pts):
                assert y.coords == _floor_coords(d, rd, p, heights)
            # neighbours in path order (close points) and points half the
            # list apart (far points); pisot31 is thinned for speed
            n = len(pts)
            step = max(1, n // 64)
            for i in range(0, n, step):
                for j in (i + 1, i + n // 2):
                    y, z = pts[i], pts[j % n]
                    for k, (cx, p, q) in enumerate(zip(
                            y.complexes, y.table[1], z.table[1])):
                        dk = _four_routes(cx, p[:3], q[:3])
                        assert math.isclose(dk, float(point_distance(
                            cx, y.coords[k], z.coords[k])), rel_tol=1e-12)
                        assert math.isclose(cx.float_diameter,
                                            float(diameter(cx)),
                                            rel_tol=1e-12)


def _clamp(x, hi):
    return min(max(x, 0), hi)


def _farthest_points(cx, u, v):
    """The offsets (t*, s*) on edges u <= v that the derivation of
    `solenoid._pair_diameter` puts farthest apart, with end-to-end
    distances read from `point_distance` and no triangle inequality
    assumed: t* = 0 on one edge, else the peak of the tent
    min(t + up, down - t) clamped to [0, lu]; s* the point of v balancing
    the routes through its two ends."""
    lu, lv = cx.lengths[u], cx.lengths[v]
    t = 0
    if u != v:
        A, B, C, D = (point_distance(cx, (u, x), (v, y))
                      for x in (0, lu) for y in (0, lv))
        up = min((A + B + lv) / 2, A + lv, B + lv)
        down = lu + min((C + D + lv) / 2, C + lv, D + lv)
        t = _clamp((down - up) / 2, lu)
    a = point_distance(cx, (u, t), (v, 0))
    b = point_distance(cx, (u, t), (v, lv))
    return t, _clamp((b + lv - a) / 2, lv)


def _oracle_complexes():
    """The distinct complexes of levels 0-4 of the builtins and of 8
    seeded random draws and their `_prefixed` forms, leaving out those
    refused for an edge of negative length."""
    ds = [builtin_diagram(name) for name in ("odo2", "odo3", "fib",
                                             "pisot31")]
    r = random.Random(1919)
    for i in range(8):
        d = _random_diagram(r, 2 + i % 2, 6)
        ds += [d, _prefixed(d)]
    out = []
    for d in ds:
        rd = renorm_data(d)
        own = []  # lengths in another field do not compare
        for k in range(5):
            try:
                cx = build_complex(d, rd, k)
            except PreconditionError:
                continue
            if cx not in own:
                own.append(cx)
        out += own
    return out


def test_diameter_against_point_distances():
    # no two points at 0, l/4, l/2, 3l/4 and l of any edges (u <= v, the
    # metric is symmetric) are farther apart than the diameter, and the
    # farthest points of the derivation on each pair of edges are exactly
    # the closed form's value apart
    quarters = [Fraction(i, 4) for i in range(5)]
    cxs = _oracle_complexes()
    assert len(cxs) > 30
    for cx in cxs:
        diam = diameter(cx)
        n = cx.num_edges
        best = None
        for u in range(n):
            for v in range(u, n):
                for f in quarters:
                    for g in quarters:
                        assert point_distance(
                            cx, (u, f * cx.lengths[u]),
                            (v, g * cx.lengths[v])) <= diam
                t, s = _farthest_points(cx, u, v)
                got = point_distance(cx, (u, t), (v, s))
                assert got == solenoid._pair_diameter(cx, u, v)
                if best is None or got > best:
                    best = got
        assert best == diam


def test_complexes_are_built_once(odo2):
    # one tuple per (Perron data, level), kept with the diagram
    rd = renorm_data(odo2)
    odo2.tables.clear()
    got = [cached_complexes(odo2, rd, n) for n in range(4)]
    assert all(cached_complexes(odo2, rd, n) is cxs
               for n, cxs in enumerate(got))
    assert list(odo2.tables["cached_complexes"]) == [(rd, n)
                                                     for n in range(4)]


def test_diameter_is_kept_per_complex(fib):
    # complexes of a stationary diagram with the Perron roof differ only in
    # their level, so their diameters agree; each complex computes its
    # exact class distances and diameter once and keeps them
    rd = renorm_data(fib)
    cx0, cx5 = build_complex(fib, rd, 0), build_complex(fib, rd, 5)
    assert cx0 != cx5 and diameter(cx0) == diameter(cx5)
    assert diameter(cx5) is diameter(cx5) is cx5.diameter
    assert cx5.distances is cx5.distances


def _four_routes(cx, p, q):
    """The float distance by the same-edge route and the four routes
    through the end classes of both edges, each summed left to right: the
    reference for the reach-row kernel."""
    u, t, tr = p
    v, s, sr = q
    dist = cx.float_distances
    routes = [abs(t - s)] if u == v else []
    for du, tu in ((dist[cx.start_class[u]], t),
                   (dist[cx.end_class[u]], tr)):
        for end_v, sv in ((cx.start_class[v], s), (cx.end_class[v], sr)):
            if du[end_v] is not None:
                routes.append(tu + du[end_v] + sv)
    return min(routes)


def test_reach_rows_give_the_four_route_distances(odo2, fib, pisot31):
    # float addition rounds monotonically, so the minimum over the two ends
    # of y's edge, taken first, gives the same float as the four routes,
    # and the metric's one pass over y's near rows and z's far rows sums
    # exactly those floats in level order; every pair of points at levels
    # 0-5, pisot31's 512 and 2048 paths of levels 4 and 5 thinned to 128
    # spread over the path order
    for d in (odo2, fib, pisot31):
        rd = renorm_data(d)
        lamf = rd.lam_float
        same_edge = 0
        for level in range(6):
            ps = enumerate_paths(d, level)
            ps = ps[::max(1, len(ps) // 128)]
            pts = [conjugacy_point(d, rd, p) for p in ps]
            for y, z in combinations_with_replacement(pts, 2):
                want = [_four_routes(cx, p[:3], q[:3]) for cx, p, q in
                        zip(y.complexes, y.table[1], z.table[1])]
                total = 0.0
                for k, (cx, dk) in enumerate(zip(y.complexes, want)):
                    total += lamf ** (-k) * dk / cx.float_diameter
                assert solenoid_metric(y, z) == total
                same_edge += y is not z and y.coords[-1][0] == z.coords[-1][0]
        assert same_edge > 0


def test_point_table_rounds_each_exact_value_once(odo2, fib, pisot31):
    # every float of a near or far row is the rounding of one exact value,
    # the same in both rows, and the reach row is the shorter way through
    # either end of the edge
    for d in (odo2, fib, pisot31):
        rd = renorm_data(d)
        for p in enumerate_paths(d, 3)[:8]:
            y = conjugacy_point(d, rd, p)
            near, far = y.table
            assert len(near) == len(far) == y.level + 1
            for k, ((u, t), cx, row, back) in enumerate(
                    zip(y.coords, y.complexes, near, far)):
                a, b = cx.start_class[u], cx.end_class[u]
                assert back == (u, float(t), float(cx.lengths[u] - t), a, b)
                assert row[:2] == back[:2]
                assert row[3:] == (rd.lam_float ** (-k), float(diameter(cx)))
                dist = cx.float_distances
                assert row[2] == tuple(min(back[1] + x, back[2] + w)
                                       for x, w in zip(dist[a], dist[b]))


def _clear_point_caches(*ds):
    # a rebuilt complex computes its metric tables afresh
    for d in ds:
        d.tables.pop("cached_point", None)
        d.tables.pop("cached_complexes", None)


def test_disconnected_complex_raises_a_typed_error(monkeypatch, fib):
    # two edges, four classes, no gluing: no route joins the edges, so the
    # complex has no diameter, and the metric of points on different edges
    # raises before any level distance is read; bilip_check raises the same
    # on fib paths whose points lie on that complex
    apart = ApproxComplex(level=0, lengths=(1, 1), start_class=(0, 2),
                          end_class=(1, 3),
                          classes=((("-", 0),), (("+", 0),), (("-", 1),),
                                   (("+", 1),)),
                          glued_pairs=())
    y, z = (SolenoidPoint(level=0, coords=(c,), complexes=(apart,), lam=2.0)
            for c in ((0, 0), (1, Fraction(1, 2))))
    with pytest.raises(NumericError, match="complex is disconnected"):
        solenoid_metric(y, z)
    rd = renorm_data(fib)
    ps = enumerate_paths(fib, 2)
    pairs = [(p, q) for p in ps for q in ps
             if path_source(fib, p) != path_source(fib, q)]
    assert pairs
    monkeypatch.setattr(solenoid, "cached_complexes",
                        lambda d, renorm, n: (apart,) * (n + 1))
    fib.tables.pop("cached_point", None)
    try:
        with pytest.raises(NumericError, match="complex is disconnected"):
            bilip_check(fib, rd, pairs[:1], 0.25, depth_margin=0)
    finally:
        fib.tables.pop("cached_point", None)


def _three_classes(lengths, start_class, end_class):
    """A complex on classes 0, 1, 2, one edge per entry of lengths, each
    from its start class to its end class."""
    members = [[], [], []]
    for e, (a, b) in enumerate(zip(start_class, end_class)):
        members[a].append(("-", e))
        members[b].append(("+", e))
    return ApproxComplex(level=0, lengths=tuple(map(Fraction, lengths)),
                         start_class=start_class, end_class=end_class,
                         classes=tuple(map(tuple, members)),
                         glued_pairs=())


def test_class_distances_go_through_a_third_class():
    # a chain 0 -1- 1 -2- 2 has no edge from 0 to 2, and in the triangle
    # with edges 0 -1- 1 -1- 2 and 0 -5- 2 the route through class 1 is
    # shorter than the direct edge: either way the distance from class 0
    # to class 2 is a sum of two edges, found only through class 1
    chain = _three_classes((1, 2), (0, 1), (1, 2))
    assert chain.distances == ((0, 1, 3), (1, 0, 2), (3, 2, 0))
    assert chain.float_distances == ((0.0, 1.0, 3.0), (1.0, 0.0, 2.0),
                                     (3.0, 2.0, 0.0))
    # a path of length 3, whose ends are farthest apart
    assert diameter(chain) == 3
    assert point_distance(chain, (0, Fraction(1, 2)), (1, 1)) == \
        Fraction(3, 2)
    assert point_distance(chain, (0, 0), (1, 2)) == 3
    triangle = _three_classes((1, 1, 5), (0, 1, 0), (1, 2, 2))
    assert triangle.distances == ((0, 1, 2), (1, 0, 1), (2, 1, 0))
    assert triangle.float_distances == ((0.0, 1.0, 2.0), (1.0, 0.0, 1.0),
                                        (2.0, 1.0, 0.0))
    # a cycle of length 7: every point has one at distance 7/2
    assert diameter(triangle) == Fraction(7, 2)
    # 1/2 from each end of the long edge: 3 round the cycle, 4 along it
    assert point_distance(triangle, (2, Fraction(1, 2)),
                          (2, Fraction(9, 2))) == 3
    assert point_distance(triangle, (0, Fraction(1, 2)),
                          (2, Fraction(5, 2))) == 3


def test_bilip_check_is_the_same_cold_and_warm(odo2, fib):
    # each diagram keeps its points keyed by Perron data, path and depth
    # margin: a warm call repeats the cold report to the float, and calls
    # with another margin or on another diagram, whose paths share edge
    # indices, do not read each other's points
    cases = []
    for d in (odo2, fib):
        rd = renorm_data(d)
        ps = enumerate_paths(d, 4)
        pairs = list(combinations_with_replacement(ps, 2))
        for margin in (4, 2):
            cases.append((d, rd, pairs, margin))
    cold = []
    for d, rd, pairs, margin in cases:
        _clear_point_caches(odo2, fib)
        cold.append(bilip_check(d, rd, pairs, 0.25, margin))
    _clear_point_caches(odo2, fib)
    for _ in range(2):
        warm = [bilip_check(d, rd, pairs, 0.25, margin)
                for d, rd, pairs, margin in cases]
        assert warm == cold
    for d in (odo2, fib):
        assert len(d.tables["cached_point"]) == 2 * len(enumerate_paths(d, 4))
    assert cold[0] != cold[1] and cold[0] != cold[2]


def _consecutive_pairs(d, n, k):
    """The gluing pairs of level k that level-n paths show: (v_k(x), v_k(y))
    for x, y next to each other in `enumerate_paths` order, into one
    vertex, first differing (from the top) at a level above k; and the wrap
    pairs, for x the last path and y the first of any two towers."""
    def v(p):
        return d.level(k + 1).source(p.edges[k])
    paths = enumerate_paths(d, n)
    ends = [d.level(n).range(p.edges[-1]) for p in paths]
    glued, wrap = set(), set()
    for i, (x, y) in enumerate(zip(paths, paths[1:])):
        if ends[i] == ends[i + 1]:
            j = max(t for t, (e, f) in enumerate(zip(x.edges, y.edges))
                    if e != f)
            if k <= j:
                glued.add((v(x), v(y)))
    firsts = [p for i, p in enumerate(paths) if not i or ends[i - 1] != ends[i]]
    lasts = [p for i, p in enumerate(paths)
             if i == len(paths) - 1 or ends[i + 1] != ends[i]]
    return glued, {(v(x), v(y)) for x in lasts for y in firsts}


def test_gluing_pairs_against_consecutive_paths():
    # at every level 0..L, on the builtins, unprefixed draws, `_prefixed`
    # draws and random prefix levels, square or not: every pair that
    # consecutive level-n paths show is glued, and nothing else is but wrap
    # pairs
    r = random.Random(808)
    drawn = [_random_diagram(r, n, 6) for n in (1, 2, 2, 3)]
    cases = [builtin_diagram(name) for name in
             ("odo2", "odo3", "fib", "pisot31")]
    cases += drawn + [_prefixed(d) for d in drawn] + _prefix_draws(809, 24)
    for d in cases:
        n = 7 if sum(count_paths(d, 7)) < 3000 else 6
        for k in range(len(d.levels) + 1):
            want, wrap = _consecutive_pairs(d, n, k)
            assert want <= set(solenoid.gluing_pairs(d, k)) <= want | wrap, \
                (d, k)


def _float_lengths(d, rd, k):
    """The float edge lengths of the level-k complex, or None where it is
    refused."""
    try:
        return [float(x) for x in build_complex(d, rd, k).lengths]
    except PreconditionError:
        return None


@example(_prefixed(builtin_diagram("pisot31")), 0)
@given(_drawn_diagrams(), st.integers(0, 2 ** 16))
def test_telescope_keeps_complex_lengths_and_xi(d, seed):
    # d behind 0-2 random prefix levels, with an invertible repeating
    # matrix, read at level 2k and its telescope at level k: the tower
    # heights follow from the same data, so the complexes have equal float
    # lengths or both are refused, and xi_k(t) = xi_2k(d).  The fields
    # Q(lam) and Q(lam^2) differ, so values meet as correctly rounded
    # floats.  A singular repeating matrix A lets the telescope's first
    # level A P solve P h = h_1 only up to the kernel of A, so one side may
    # refuse a level the other builds
    r = random.Random(seed)
    d = _random_prefix(r, d, r.randint(0, 2))
    a = d.matrix(len(d.levels))
    assume(len(eliminate([list(row) for row in a], len(a))) == len(a))
    t = telescope2(d)
    try:
        rd = renorm_data(d)
    except PreconditionError:  # Perron root 1: a finite path space
        with pytest.raises(PreconditionError):
            renorm_data(t)
        return
    rt = renorm_data(t)
    for k in range(5):
        assert _float_lengths(t, rt, k) == _float_lengths(d, rd, 2 * k), k
        assert [float(x) for x in xi_vector(t, k)] == \
            [float(x) for x in xi_vector(d, 2 * k)], k
