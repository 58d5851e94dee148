"""Graph approximants, wrapping maps, and the finite-level conjugacy."""

import math
from fractions import Fraction

import pytest

from adic import solenoid
from adic.diagrams import (LazyPath, TAIL_MIN, enumerate_paths, materialize,
                           path_source)
from adic.errors import NumericError
from adic.measures import renorm_data
from adic.scalars import as_float
from adic.solenoid import (bilip_check, build_complex, cached_complexes,
                           conjugacy_point, diameter, euler_characteristic,
                           flow_step, metric_report, point_distance,
                           roof_heights, solenoid_metric, wrapping)


def test_complex_shapes(odo2, fib, pisot31):
    for d, chi in ((odo2, 0), (fib, -1), (pisot31, -1)):
        rd = renorm_data(d)
        for k in (0, 1, 3):
            cx = build_complex(d, rd, k)
            assert cx.num_edges == d.level(1).num_sources
            assert euler_characteristic(cx) == chi


def test_total_length_and_diameter_stationary_invariance(odo2, fib, pisot31):
    # lengths scale as lam^-k against tower growth lam^k: every level is
    # isometric to level 0
    for d in (odo2, fib, pisot31):
        rd = renorm_data(d)
        base = build_complex(d, rd, 0)
        for k in (1, 2, 4):
            cx = build_complex(d, rd, k)
            assert abs(as_float(cx.total_length()) -
                       as_float(base.total_length())) < 1e-12
            assert abs(as_float(diameter(cx)) -
                       as_float(diameter(base))) < 1e-12


def test_known_diameters(odo2, pisot31):
    rd = renorm_data(odo2)
    assert diameter(build_complex(odo2, rd, 0)) == Fraction(1, 2)
    rdp = renorm_data(pisot31)
    assert as_float(diameter(build_complex(pisot31, rdp, 0))) == 1.0


def test_stretch_identity_all_levels(odo2, fib, pisot31):
    # total coarse length of each wrapped edge equals lam times its length
    for d in (odo2, fib, pisot31):
        rd = renorm_data(d)
        for k in range(1, 11):
            wm = wrapping(d, rd, k)
            hi = build_complex(d, rd, k)
            for v in range(hi.num_edges):
                lhs = as_float(wm.word_total(v))
                rhs = rd.lam_float * as_float(hi.lengths[v])
                assert abs(lhs - rhs) <= 1e-9


def test_wrapping_words_follow_in_order(fib):
    rd = renorm_data(fib)
    wm = wrapping(fib, rd, 1)
    ld = fib.level(1)
    for v in range(2):
        assert wm.words[v] == tuple(ld.source(e) for e in ld.in_order[v])


def test_wrap_apply_endpoints(odo2):
    rd = renorm_data(odo2)
    wm = wrapping(odo2, rd, 1)
    # the level-1 edge has length 1 and wraps twice around the level-0 loop
    assert wm.apply((0, Fraction(0))) == (0, 0)
    assert wm.apply((0, Fraction(1, 4))) == (0, Fraction(1, 2))
    v, t = wm.apply((0, Fraction(3, 4)))
    assert v == 0 and t == Fraction(1, 2)


def test_flow_step_semantics(odo2):
    rd = renorm_data(odo2)
    cx = build_complex(odo2, rd, 0)
    assert flow_step(cx, (0, Fraction(0)), Fraction(1, 4)) == \
        ("interior", 0, Fraction(1, 4))
    assert flow_step(cx, (0, Fraction(1, 2)), Fraction(1, 2)) == \
        ("class", 0)
    with pytest.raises(NumericError):
        flow_step(cx, (0, Fraction(1, 2)), Fraction(1))


def test_conjugacy_separates_paths(odo2):
    rd = renorm_data(odo2)
    ps = enumerate_paths(odo2, 0, 6)
    pts = [conjugacy_point(odo2, rd, p) for p in ps]
    assert solenoid_metric(pts[0], pts[0], rd.lambda_mu) == 0.0
    seen = set()
    for p in pts:
        seen.add(tuple((v, as_float(t)) for v, t in p.coords))
    assert len(seen) == len(ps)


def test_bilip_small_sample(odo2, fib):
    for d in (odo2, fib):
        rd = renorm_data(d)
        ps = enumerate_paths(d, 0, 5)
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
        heights = [roof_heights(d, rd, k) for k in range(5 + extra)]
        for level in range(6):
            deep = [materialize(d, LazyPath(p, TAIL_MIN), level + extra)
                    for p in enumerate_paths(d, 0, level)]
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
                    rep = metric_report(y, z, rd.lambda_mu)
                    for k, row in enumerate(rep["per_level"]):
                        cx = y.complexes[k]
                        dk = as_float(point_distance(cx, y.coords[k],
                                                     z.coords[k]))
                        dm = as_float(diameter(cx))
                        assert math.isclose(row["distance"], dk,
                                            rel_tol=1e-12)
                        assert math.isclose(row["diameter"], dm,
                                            rel_tol=1e-12)


def test_complex_cache_is_bounded(odo2):
    rd = renorm_data(odo2)
    bound = solenoid.COMPLEX_CACHE_SIZE
    for n in range(bound + 4):
        got = cached_complexes(odo2, rd, n)
    assert len(solenoid._COMPLEX_CACHE) == bound
    assert cached_complexes(odo2, rd, bound + 3) is got


def test_diameter_cache_ignores_level(fib):
    # complexes of a stationary diagram with the Perron roof differ only in
    # their level, which is not part of the geometry
    rd = renorm_data(fib)
    diameter.cache_clear()
    d0 = diameter(build_complex(fib, rd, 0))
    d5 = diameter(build_complex(fib, rd, 5))
    assert d0 == d5
    assert diameter.cache_info().misses == 1
