"""Coboundary solving, norm bookkeeping, and orbit sums."""

from fractions import Fraction

import pytest

from conftest import rand_function, rng

from adic.cohomology import limit_rank
from adic.diagrams import (FinitePath, LazyPath, OrderedDiagram, TAIL_MIN,
                           enumerate_paths, make_level, successor)
from adic.errors import ObstructedError
from adic.martingale import (compose_phi, constant_function, from_vector,
                             lift, nu_mean)
from adic.measures import renorm_data
from adic.solver import (birkhoff, chained_constant, regularity_report,
                         solution_norms, solve)


def _tower(d):
    return limit_rank(d, renorm_data(d), max_level=8)


def _coboundary(d, g0):
    moved = compose_phi(d, g0, 1)
    return moved - lift(d, g0, moved.level)


def test_round_trip_exact(odo2, fib):
    r = rng(401)
    for d in (odo2, fib):
        tower = _tower(d)
        for _ in range(15):
            g0 = rand_function(r, d, r.randint(0, 3))
            h = _coboundary(d, g0)
            sol = solve(h, tower)
            assert sol.residual == 0
            assert isinstance(sol.residual, (int, Fraction))
            assert nu_mean(d, sol.g) == 0
            # g and g0 differ by a constant
            top = max(sol.g.level, g0.level)
            diff = lift(d, sol.g, top) - lift(d, g0, top)
            assert len(set(diff.values)) == 1


def test_singular_repeating_matrix_is_not_obstructed():
    # A = [[2,1],[2,1]] is singular, so the pivot solution of
    # A_(0..L) x = right is not positive; the roof must still be exact
    level = make_level(2, 2, [(1, 0), (0, 0), (0, 0), (0, 1), (1, 1), (0, 1)],
                       [[2, 1, 0], [5, 3, 4]])
    d = OrderedDiagram((level,), stationary=True)
    rd = renorm_data(d)
    assert rd.exact is True
    paths = enumerate_paths(d, 0, 1)
    g0 = from_vector(d, 1, [Fraction(i % 3) for i in range(len(paths))])
    sol = solve(_coboundary(d, g0), _tower(d))
    assert sol.residual == 0


def test_constant_is_obstructed(odo2):
    tower = _tower(odo2)
    with pytest.raises(ObstructedError) as ei:
        solve(constant_function(odo2, Fraction(1), 0), tower)
    assert ei.value.distribution_values == [1.0]


def test_norms_and_homogeneity(odo2):
    tower = _tower(odo2)
    r = rng(402)
    g0 = rand_function(r, odo2, 2)
    h = _coboundary(odo2, g0)
    sol = solve(h, tower, alpha=3)
    sol7 = solve(7 * h, tower, alpha=3)
    n = sol.norms
    n7 = sol7.norms
    assert n["h_norm"] > 0
    assert abs(n["k_ratio"] - n7["k_ratio"]) < 1e-12
    direct = solution_norms(odo2, renorm_data(odo2), h, sol.g, 3,
                            Fraction(1, 4))
    assert abs(direct["k_ratio"] - n["k_ratio"]) < 1e-12


def test_chained_constant_structure(odo2):
    rd = renorm_data(odo2)
    rep = chained_constant(odo2, rd, 3, Fraction(1, 4))
    prod = rep["bump_factor"] * rep["mean_variation_factor"] * \
        rep["return_factor"]
    assert abs(prod - rep["constant"]) < 1e-9 * rep["constant"]
    assert rep["constant"] > 0
    with pytest.raises(ValueError):
        chained_constant(odo2, rd, 2, Fraction(1, 4))  # needs alpha > 2+eps


def test_regularity_report_bounded(odo2):
    rd = renorm_data(odo2)
    tower = _tower(odo2)
    r = rng(403)
    g0 = rand_function(r, odo2, 2)
    h = _coboundary(odo2, g0)
    sol = solve(h, tower)
    rows = regularity_report(odo2, rd, h, sol.g, 3,
                             [Fraction(1, 4), Fraction(1, 2)])
    for row in rows:
        assert row["empirical_k"] <= row["theoretical_k"]


def test_birkhoff_constant_function(odo2):
    one = constant_function(odo2, Fraction(1), 0)
    start = LazyPath(FinitePath(()), TAIL_MIN)
    rep = birkhoff(odo2, one, start, 1000)
    assert rep.sup_abs == 1000
    assert dict(rep.checkpoints)[512] == 512
    assert rep.mean_rate == 1.0


def test_birkhoff_matches_naive_orbit(odo2, pisot31):
    r = rng(404)
    for d in (odo2, pisot31):
        h = rand_function(r, d, 2)
        start = LazyPath(FinitePath(()), TAIL_MIN)
        n = 512
        rep = birkhoff(d, h, start, n)
        # naive oracle: iterate the successor and sum evaluations
        p = start
        acc = Fraction(0)
        sums = {}
        sup = Fraction(0)
        for i in range(1, n + 1):
            acc += h.evaluate(d, p)
            sup = max(sup, abs(acc))
            sums[i] = acc
            p = successor(d, p)
        for cn, cs in rep.checkpoints:
            assert sums[cn] == cs, (cn, cs, sums[cn])
        assert rep.sup_abs == sup


def test_birkhoff_exact_mean_at_full_cycles(odo2):
    r = rng(405)
    h = rand_function(r, odo2, 3)
    start = LazyPath(FinitePath(()), TAIL_MIN)
    n = 2 ** 12
    rep = birkhoff(odo2, h, start, n)
    mean = nu_mean(odo2, h)
    final = dict(rep.checkpoints)[n]
    assert final == mean * n


def test_birkhoff_fit_claim_rules(pisot31):
    # the second-eigendirection function has a genuine power-law deviation
    ld = pisot31.level(1)
    vals = [Fraction(1 if ld.range(e) == 0 else -1)
            for e in range(len(ld.edges))]
    h = from_vector(pisot31, 1, vals)
    start = LazyPath(FinitePath(()), TAIL_MIN)
    rep = birkhoff(pisot31, h, start, 10 ** 5)
    assert rep.claimed
    assert rep.r_squared >= 0.9
    assert rep.exponent == pytest.approx(0.5, abs=0.2)


def test_solved_coboundary_has_bounded_sums(odo2):
    r = rng(406)
    tower = _tower(odo2)
    g0 = rand_function(r, odo2, 2)
    h = _coboundary(odo2, g0)
    sol = solve(h, tower)
    bound = 2 * sol.g.sup_norm()
    start = LazyPath(FinitePath(()), TAIL_MIN)
    rep = birkhoff(odo2, h, start, 2 ** 13)
    assert float(rep.sup_abs) <= bound + 1e-12
