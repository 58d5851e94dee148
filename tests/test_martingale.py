"""Cylinder functions, conditional projections, and level components."""

import math
import random
from fractions import Fraction

import pytest
from conftest import rng
from hypothesis import given
from hypothesis import strategies as st

import adic.martingale

from test_algebra import _drawn_diagrams
from test_step import _prefixed, _random_diagram, _random_prefix, evaluate

from adic.diagrams import (LazyPath, OrderedDiagram, TAIL_MIN,
                           enumerate_paths, extreme, make_level, path_table)
import adic.algebra as alg
from adic.cohomology import limit_rank
from adic.errors import AlphaOverflowError, NumericError, PreconditionError
from adic.martingale import (bump_from_roof, compose_phi,
                             constant_function, decompose, delta, from_vector,
                             holder_norm, lift, nu_mean, project,
                             rand_function)
from adic.measures import renorm_data
from adic.solver import solve


def test_reconstruction_exact(odo2, fib, pisot31):
    r = rng(101)
    for d in (odo2, fib, pisot31):
        for _ in range(40):
            h = rand_function(r, d, r.randint(0, 3))
            parts = [lift(d, delta(d, h, k), h.level).values
                     for k in range(h.level + 1)]
            assert lift(d, h, h.level).values == \
                list(map(sum, zip(*parts, strict=True)))


def test_projection_law(odo2, fib):
    r = rng(102)
    for d in (odo2, fib):
        for _ in range(25):
            h = rand_function(r, d, 3)
            for j in range(4):
                for k in range(4):
                    a = project(d, project(d, h, k), j)
                    b = project(d, h, min(j, k))
                    assert lift(d, a, 3).values == lift(d, b, 3).values


def test_deltas_have_zero_mean(odo2, fib, pisot31):
    r = rng(103)
    for d in (odo2, fib, pisot31):
        for _ in range(25):
            h = rand_function(r, d, 3)
            for k in range(1, 4):
                assert nu_mean(d, delta(d, h, k)) == 0
            assert nu_mean(d, project(d, h, 0)) == nu_mean(d, h)


def test_projections_read_floats_exactly(odo2, fib, pisot31):
    # a finite float is the dyadic rational it stores, so float values give
    # what their Fractions give, in Q(lambda) as well; NaN and +-inf lie in
    # no exact field
    r = rng(108)
    for d in (odo2, fib, pisot31):
        exact = rand_function(r, d, 2)
        h = from_vector(d, 2, list(map(float, exact.values)))
        assert nu_mean(d, h) == nu_mean(d, exact)
        for k in range(3):
            assert project(d, h, k).values == project(d, exact, k).values
            assert delta(d, h, k).values == delta(d, exact, k).values
        rd = renorm_data(d)
        assert decompose(d, h, rd) == decompose(d, exact, rd)
        for bad in (math.nan, math.inf, -math.inf):
            f = from_vector(d, 2, [bad] + h.values[1:])
            for call in (lambda: nu_mean(d, f), lambda: project(d, f, 1),
                         lambda: delta(d, f, 2),
                         lambda: decompose(d, f, rd)):
                with pytest.raises(PreconditionError):
                    call()
    h = from_vector(fib, 2, [0.5, -1.0, 2.0, 0.25, 1.5])
    assert nu_mean(fib, h) == nu_mean(fib, from_vector(
        fib, 2, [Fraction(1, 2), -1, 2, Fraction(1, 4), Fraction(3, 2)]))


def test_holder_norm_examples(odo2):
    c = constant_function(odo2, Fraction(5, 2), 0)
    n = holder_norm(odo2, c, 3, 2)
    assert n["sup"] == 2.5 and n["seminorm"] == 0.0 and n["norm"] == 2.5
    ind = from_vector(odo2, 1, [Fraction(1), Fraction(0)])
    # the two level-1 cylinders are at distance 1, so seminorm = sup = 1
    n1 = holder_norm(odo2, ind, 1, 2)
    assert n1["sup"] == 1.0 and n1["seminorm"] == 1.0 and n1["norm"] == 2.0
    n3 = holder_norm(odo2, ind, 3, 2)
    assert n3["norm"] == 2.0
    # no weight is computed before some spread is positive: a constant of
    # level 3 raises no OverflowError, though 2^(2 * 10^4) overflows
    flat = from_vector(odo2, 3, [Fraction(1, 3)] * 8)
    assert holder_norm(odo2, flat, 1e4, 2)["seminorm"] == 0.0


def test_holder_seminorm_scales_with_level(odo2):
    # indicator of a level-2 cylinder: nearest distinct cylinder sits at
    # distance 1/2, so the alpha-seminorm is 2^alpha
    paths = enumerate_paths(odo2, 2)
    h = from_vector(odo2, 2, [Fraction(1 if p.edges == (0, 0) else 0)
                              for p in paths])
    n = holder_norm(odo2, h, 2, 2)
    assert n["seminorm"] == 4.0


def _brute_holder(d, h, alpha, lam):
    """sup |h| plus the largest |u - w| lam^((j-1) alpha) over pairs of
    cylinders first differing at edge j, pair by pair."""
    m = max(h.level, 1)
    items = list(zip((p.edges for p in enumerate_paths(d, m)),
                     map(float, lift(d, h, m).values)))
    semi = max((abs(u - w) * lam ** ((next(
        j for j, (e, f) in enumerate(zip(p, q), 1) if e != f) - 1) * alpha)
        for i, (p, u) in enumerate(items) for q, w in items[i + 1:]),
        default=0.0)
    return max(abs(u) for _, u in items) + semi


def test_holder_norm_matches_pairwise_maximum(monkeypatch):
    # bit for bit: rounding is monotone, so the max over cylinder
    # oscillations is the max over pairs; the repeating level of the first
    # diagram has a vertex with a single out-edge, and vertex 1 of V_1 of
    # the last one, which does not repeat, has no out-edge at all.  The
    # sweep stops at its weight bound: a level-j pattern over small detail
    # stops it at level j, and the levels j >= 2 it sweeps (each reads the
    # path tables of its own level and the one below) show that every
    # level is reached as a stop.
    # alpha = 0 and lam = 1 weigh every level alike, so the bound holds
    # only once a cylinder holds both extremes.  Constants (span 0) and
    # level-0 functions go through the same checks, and a value of +-inf
    # is refused
    swept = []
    monkeypatch.setattr(adic.martingale, "path_table",
                        lambda d, k: swept.append(k) or path_table(d, k))
    r = rng(104)
    single = _random_diagram(r, 2, 4)
    while min(map(len, single.levels[-1].out_edges)) != 1:
        single = _random_diagram(r, 2, 4)
    ds = [single, _random_diagram(r, 2, 5), _random_diagram(r, 3, 5)]
    ds.append(_prefixed(ds[-1]))
    cases = [(d, renorm_data(d).lam_float, 5) for d in ds]
    cases.append((OrderedDiagram((
        make_level(1, 2, [(0, 0), (0, 1), (0, 0)], [[0, 2], [1]]),
        make_level(2, 1, [(0, 0), (0, 0)], [[1, 0]]),
        make_level(1, 1, [(0, 0), (0, 0)], [[0, 1]]))), 2.0, 3))
    for d, lam, top in cases:
        fs = [constant_function(d, Fraction(5, 2), 0),
              rand_function(r, d, 0)]
        for level in range(1, top + 1):
            h = rand_function(r, d, level)
            # a level-j pattern over small detail: the spreads of the other
            # levels then come from the value ranges of the runs below
            for j in range(1, level + 1):
                tilted = [a + b / 64 for a, b in zip(
                    lift(d, rand_function(r, d, j), level).values, h.values,
                    strict=True)]
                # shifted by 3 or -3, all values have one sign, so that a
                # bound of 0 for paths without children would be the
                # level-1 spread
                fs += [from_vector(d, level, [v + c for v in tilted])
                       for c in ((0, 3, -3) if j == 1 else (0,))]
            fs += [h, from_vector(d, level, [Fraction(1, 3)] * len(h.values))]
            for inf in (math.inf, -math.inf):
                with pytest.raises(PreconditionError):
                    holder_norm(d, from_vector(d, level, [inf] + h.values[1:]),
                                3.0, lam)
        stops = {level: set() for level in range(1, top + 1)}
        for f in fs:
            for alpha, lamj in ((0.75, lam), (3.0, lam), (0.0, lam),
                                (3.0, 1.0)):
                swept.clear()
                assert holder_norm(d, f, alpha, lamj)["norm"] == \
                    _brute_holder(d, f, alpha, lamj), (d, f.level, alpha)
                if f.level:
                    stops[f.level].add(len(swept) // 2)
        # a function of level m that stops at level j >= 2 sweeps m - j + 1
        # levels; the full sweep (or a stop at level 1) sweeps m..2
        assert stops == {level: set(range(1, level)) or {0}
                         for level in stops}, d


def test_holder_norm_reads_single_runs_and_childless_vertices():
    # vertex 1 of V_1 has no out-edge, so its paths have the empty value
    # range at level 1; every vertex of V_2 has one out-edge and V_2 one
    # path, so the sweep of level 3 reads no pair and a run of one path.
    # The sweep gives the pairwise maximum cold, warm and once rebuilt
    d = OrderedDiagram((
        make_level(1, 2, [(0, 0), (0, 1), (0, 1)], [[0], [1, 2]]),
        make_level(2, 1, [(0, 0)], [[0]]),
        make_level(1, 1, [(0, 0)], [[0]]),
        make_level(1, 1, [(0, 0), (0, 0)], [[1, 0]])), True)
    r = rng(107)
    fs = [rand_function(r, d, level) for level in range(6) for _ in range(4)]
    for run in ("cold", "warm", "cleared"):
        if run != "warm":
            d.tables.clear()
        for f in fs:
            for alpha, lam in ((0.75, 2.0), (3.0, 2.0), (0.0, 2.0),
                               (3.0, 1.0)):
                assert holder_norm(d, f, alpha, lam)["norm"] == \
                    _brute_holder(d, f, alpha, lam), (f.level, alpha, run)
    assert [path_table(d, k).runs for k in range(6)] == [
        (), ((0, 1, 2),), ((0,), ()), ((0,),), ((0, 1),), ((0, 2),)]


def test_holder_norm_refuses_what_it_cannot_weigh(odo2):
    # the oscillation formula holds for alpha >= 0 and lam >= 1, and a
    # value that is not finite has no oscillation; the refusal comes before
    # any weight, so alpha = 1e4 overflows nothing on such a value
    h = from_vector(odo2, 2, [0.5, -1.0, 2.0, 0.25])
    for pos in range(4):
        for bad in (math.nan, math.inf, -math.inf):
            vals = list(h.values)
            vals[pos] = bad
            for alpha in (3.0, 1e4):
                with pytest.raises(PreconditionError, match="finite"):
                    holder_norm(odo2, from_vector(odo2, 2, vals), alpha, 2.0)
    for alpha, lam in ((-0.25, 2.0), (math.nan, 2.0), (3.0, 0.5),
                       (3.0, math.nan), (-1.0, 0.0)):
        with pytest.raises(PreconditionError, match="alpha >= 0"):
            holder_norm(odo2, h, alpha, lam)
    assert holder_norm(odo2, h, 0.0, 1.0)["seminorm"] == 3.0


@given(_drawn_diagrams(), st.integers(0, 2), st.integers(0, 3),
       st.floats(0, 6), st.sampled_from([1.0, 2.0, 3.5]),
       st.integers(0, 2 ** 16))
def test_holder_norm_matches_pairs_on_drawn_diagrams(d, prefix, level,
                                                     alpha, lam, seed):
    # the sweep against every pair, behind prefixes whose in-orders and
    # extreme chains take any shape
    r = random.Random(seed)
    d = _random_prefix(r, d, prefix)
    h = rand_function(r, d, level)
    assert holder_norm(d, h, alpha, lam)["norm"] == \
        _brute_holder(d, h, alpha, lam)


def test_compose_phi_odometer_rotation(odo2):
    ind0 = from_vector(odo2, 1, [Fraction(1), Fraction(0)])
    moved = compose_phi(odo2, ind0, 1)
    # h(phi x) = 1 iff phi x starts with 0 iff x starts with 1
    for p in enumerate_paths(odo2, max(moved.level, 1)):
        x = LazyPath(p, TAIL_MIN)
        want = Fraction(1) if p.edges[0] == 1 else Fraction(0)
        assert evaluate(odo2, moved, x) == want
    # composing with the inverse returns the original exactly
    back = compose_phi(odo2, moved, -1)
    assert lift(odo2, back, back.level).values == \
        lift(odo2, ind0, back.level).values


def test_phi_transients(odo2, fib, pisot31):
    assert extreme(odo2, 1)[:2] == extreme(odo2, -1)[:2] == (0, 0)
    assert extreme(fib, 1)[:2] == (1, 0)
    assert extreme(pisot31, 1)[:2] == (1, 0)
    assert extreme(pisot31, -1)[:2] == (1, 1)


def test_compose_phi_shifts_level_by_transient(pisot31):
    r = rng(104)
    h = rand_function(r, pisot31, 2)
    assert compose_phi(pisot31, h, 1).level <= 3
    assert compose_phi(pisot31, h, -2).level <= 4


def test_compose_phi_level_grows_like_log_of_power(odo2, pisot31):
    # T = 1 and the tower over v* holds 16 paths at level 2, so the
    # composition works at level 1 + max(4, 2) instead of 4 + |k|
    h = rand_function(rng(105), pisot31, 4)
    for k in (5, -5, 8):
        c = compose_phi(pisot31, h, k)
        assert c.level == 5 and len(c.values) == 2048
    # T = 0: an odometer composition keeps the level of h (at least 1)
    for m in range(1, 5):
        h = rand_function(rng(106), odo2, m)
        for k in range(-9, 10):
            assert compose_phi(odo2, h, k).level == m


def test_decompose_peaks(odo2):
    rd = renorm_data(odo2)
    # odo2's level-2 paths in order: (0, 0), (1, 0), (0, 1), (1, 1)
    h = from_vector(odo2, 2, [Fraction(1), Fraction(-1),
                              Fraction(1), Fraction(-1)])
    comps = decompose(odo2, h, rd)
    # mean zero: no level-0 component; all variation enters at level 1
    assert comps[0].peak == 0.0
    assert comps[1].peak == 1.0
    assert comps[2].peak == 0.0


def test_bump_profile_smoothness(odo2):
    rd = renorm_data(odo2)
    bp = bump_from_roof(rd)
    assert bp.cr_norm(0) >= 1.0
    assert bp.cr_norm(1) > bp.cr_norm(0)
    assert bp.deriv_sup(0) > 0


def test_bump_profile_refuses_derivatives_without_a_closed_form(odo2):
    # sup |u''| = 6 c (5 / tau)^2 at t = 0 is no first-derivative bound
    bp = bump_from_roof(renorm_data(odo2))
    for j in (-1, 2, 3):
        with pytest.raises(ValueError, match=r"u\^\(%d\)" % j):
            bp.deriv_sup(j)
    with pytest.raises(ValueError):
        bp.cr_norm(2)
    with pytest.raises(ValueError):
        decompose(odo2, rand_function(rng(110), odo2, 1),
                  renorm_data(odo2))[1].cr_norm(2, 2)


def test_a_span_beyond_the_floats_is_a_value_overflow(odo2):
    # -1e308 and 1e308 fit a float, their oscillation 2e308 does not: at
    # alpha = 0 every weight is 1, so the overflow is no alpha's, and the
    # solver and the algebra norms pass it on as it is; a C^r norm has no
    # alpha, and its overflow is the same typed refusal
    rd = renorm_data(odo2)
    h = from_vector(odo2, 1, [-1e308, 1e308])
    message = "^a value overflows a float$"
    for call in (lambda: holder_norm(odo2, h, 0.0, 2.0),
                 lambda: holder_norm(odo2, h, 3.0, 2.0),
                 lambda: solve(h, limit_rank(odo2, rd), alpha=3),
                 lambda: alg.norms(alg.element(odo2, 2, 3, {1: h}), 0, 1)):
        with pytest.raises(NumericError, match=message) as info:
            call()
        assert not isinstance(info.value, AlphaOverflowError)
    comps = decompose(odo2, h, rd)
    assert comps[1].peak == 1e308
    for r in (0, 1):
        with pytest.raises(NumericError, match=message) as info:
            comps[1].cr_norm(r, rd.lam_float)
        assert not isinstance(info.value, AlphaOverflowError)
    assert comps[0].cr_norm(1, rd.lam_float) == 0.0
