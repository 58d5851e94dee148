"""Top-level acceptance gate.

Each test covers one numbered criterion, prints a single
"ACCEPTANCE <n> PASS/FAIL <detail>" line, and asserts the same condition, so
the visible verdict and the exit status cannot disagree.  Oracles here are
recomputed from raw diagram data or brute enumeration, not read back from
the code under test.  Run with -s to see the verdict lines on success."""

import itertools
import math
import time
from fractions import Fraction

import numpy as np

from conftest import rng
from test_step import coboundary

from adic.algebra import (check_trial, default_triangle, jolissaint_holds,
                          neumann_invert, norms, rand_element, scale,
                          subtract, triangle_phi, unit)
from adic.cohomology import distributions, limit_rank
from adic.diagrams import (FinitePath, LazyPath, TAIL_MIN, enumerate_paths,
                           extreme)
from adic.martingale import (delta, from_vector, lift, nu_mean, project,
                             rand_function)
from adic.measures import renorm_data
from adic.solenoid import bilip_check, build_complex, wrapping
from adic.solver import birkhoff, chained_constant, solve


def verdict(n, ok, detail):
    print("ACCEPTANCE %d %s %s" % (n, "PASS" if ok else "FAIL", detail))
    assert ok, "criterion %d: %s" % (n, detail)


def test_criterion_01_limit_rank(odo2, fib):
    times = {}
    got = {}
    for name, d, in (("odo2", odo2), ("fib", fib)):
        t0 = time.perf_counter()
        tower = limit_rank(d, renorm_data(d))
        times[name] = time.perf_counter() - t0
        got[name] = tower
    ok = (got["odo2"].d == 1 and got["fib"].d == 2
          and got["odo2"].k_prime <= 5 and got["fib"].k_prime <= 5
          and all(t.ranks[-1] == t.ranks[-2] for t in got.values())
          and times["odo2"] < 1.0 and times["fib"] < 1.0)
    verdict(1, ok,
            "d(odo2)=%d d(fib)=%d k'=(%d,%d) t=(%.3fs,%.3fs)"
            % (got["odo2"].d, got["fib"].d, got["odo2"].k_prime,
               got["fib"].k_prime, times["odo2"], times["fib"]))


def test_criterion_02_constructed_coboundaries(odo2, fib):
    r = rng(9002)
    t0 = time.perf_counter()
    bad = 0
    for d in (odo2, fib):
        tower = limit_rank(d, renorm_data(d))
        for _ in range(100):
            g0 = rand_function(r, d, r.randint(0, 3))
            h = coboundary(d, g0)
            dvs = distributions(h, tower)
            if not all(dv.exact_zero for dv in dvs):
                bad += 1
                continue
            sol = solve(h, tower)
            if sol.residual != 0:
                bad += 1
                continue
            top = max(sol.g.level, g0.level)
            if len({a - b for a, b in zip(lift(d, sol.g, top).values,
                                          lift(d, g0, top).values,
                                          strict=True)}) != 1:
                bad += 1
    dt = time.perf_counter() - t0
    ok = bad == 0 and dt < 30.0
    verdict(2, ok, "200 round trips, %d failures, %.1fs" % (bad, dt))


def test_criterion_03_duality_against_brute_force(odo2):
    # ground truth by orbit simulation: the Vershik map on the binary
    # odometer visits level-2 cylinders cyclically in tower order, so the
    # orbit sums are cumulative sums of the tiled value pattern; bounded
    # exactly when the running sup has stopped growing by 2^13 steps
    tower = limit_rank(odo2, renorm_data(odo2))
    agree = 0
    n_cob = 0
    for combo in itertools.product((-1, 0, 1), repeat=4):
        h = from_vector(odo2, 2, [Fraction(c) for c in combo])
        flag = all(dv.exact_zero for dv in distributions(h, tower))
        s = np.cumsum(np.tile(np.array(combo, dtype=np.int64), 2 ** 11))
        sup_half = np.abs(s[:2 ** 12]).max()
        sup_full = np.abs(s).max()
        brute_bounded = bool(sup_half == sup_full)
        if flag == brute_bounded:
            agree += 1
        if flag:
            n_cob += 1
    ok = agree == 81 and n_cob == 19
    verdict(3, ok, "%d/81 agree with orbit simulation, %d coboundaries"
            % (agree, n_cob))


def test_criterion_04_multiplier_certificates(fib, pisot31):
    worst_lam = 0.0
    worst_roof = 0.0
    for d, lam_true in ((fib, (1 + math.sqrt(5)) / 2), (pisot31, 4.0)):
        rd = renorm_data(d)
        worst_lam = max(worst_lam, abs(rd.lam_float - lam_true))
        # eigen identity recomputed from raw edge data
        ld = d.level(1)
        nv = ld.num_sources
        a = [[0] * nv for _ in range(nv)]
        for e in range(len(ld.edges)):
            a[ld.source(e)][ld.range(e)] += 1
        roof = [float(x) for x in rd.roof]
        for i in range(nv):
            resid = abs(sum(a[i][j] * roof[j] for j in range(nv))
                        - rd.lam_float * roof[i])
            worst_roof = max(worst_roof, resid)
    ok = worst_lam <= 1e-9 and worst_roof <= 1e-12
    verdict(4, ok, "lam err %.2e, roof residual %.2e"
            % (worst_lam, worst_roof))


def test_criterion_05_wrapping_stretch(odo2, fib, pisot31):
    worst = 0.0
    for d in (odo2, fib, pisot31):
        rd = renorm_data(d)
        for k in range(1, 11):
            wm = wrapping(d, rd, k)
            cx = build_complex(d, rd, k)
            for v in range(cx.num_edges):
                lhs = sum(float(wm.fine_lengths[w]) for w in wm.words[v])
                rhs = rd.lam_float * float(cx.lengths[v])
                worst = max(worst, abs(lhs - rhs))
    ok = worst <= 1e-9
    verdict(5, ok, "3 diagrams, levels 1..10, worst stretch error %.2e"
            % worst)


def test_criterion_06_martingale_decomposition(odo2, fib, pisot31):
    r = rng(9006)
    bad = 0
    total = 0
    for d in (odo2, fib, pisot31):
        for _ in range(167):
            total += 1
            h = rand_function(r, d, r.randint(0, 3))
            top = max(h.level, 1)
            parts = [delta(d, h, k) for k in range(top + 1)]
            back = map(sum, zip(*(lift(d, p, top).values for p in parts),
                                strict=True))
            if list(back) != lift(d, h, top).values:
                bad += 1
                continue
            if any(nu_mean(d, p) != 0 for p in parts[1:]):
                bad += 1
                continue
            j, k = sorted((r.randint(0, top), r.randint(0, top)))
            twice = project(d, project(d, h, k), j)
            if twice.values != project(d, h, j).values:
                bad += 1
    ok = bad == 0 and total >= 500
    verdict(6, ok, "%d functions, %d failures" % (total, bad))


def test_criterion_07_deviation_exponent(odo2, pisot31):
    t0 = time.perf_counter()
    ld = pisot31.level(1)
    vals = [Fraction(1 if ld.range(e) == 0 else -1)
            for e in range(len(ld.edges))]
    h = from_vector(pisot31, 1, vals)
    start = LazyPath(FinitePath(()), TAIL_MIN)
    rep = birkhoff(pisot31, h, start, 10 ** 6)
    fit_ok = (rep.claimed and rep.r_squared >= 0.9
              and abs(rep.exponent - 0.5) <= 0.1)

    r = rng(9007)
    tower = limit_rank(odo2, renorm_data(odo2))
    g0 = rand_function(r, odo2, 2)
    hc = coboundary(odo2, g0)
    sol = solve(hc, tower)
    repc = birkhoff(odo2, hc, start, 10 ** 6)
    bound = 2 * float(sol.g.sup_norm())
    bounded_ok = float(repc.sup_abs) <= bound + 1e-12
    dt = time.perf_counter() - t0
    ok = fit_ok and bounded_ok and dt < 120.0
    verdict(7, ok,
            "exponent %.4f (R^2=%.3f), coboundary sup %.3f <= %.3f, %.1fs"
            % (rep.exponent, rep.r_squared, float(repc.sup_abs), bound,
               dt))


def test_criterion_08_metric_comparison(odo2, fib):
    details = []
    ok = True
    for name, d in (("odo2", odo2), ("fib", fib)):
        rd = renorm_data(d)
        paths = enumerate_paths(d, 8)
        pairs = list(itertools.combinations(paths, 2))
        rep = bilip_check(d, rd, pairs, epsilon=0.25)
        ok = ok and rep["upper_bound_holds"] and \
            rep["worst_upper_slack"] <= 0.0 and rep["lower_constant"] > 0.0
        details.append("%s: %d pairs K=%.6f slack=%.1e"
                       % (name, rep["pairs_checked"], rep["lower_constant"],
                          rep["worst_upper_slack"]))
    verdict(8, ok, "; ".join(details))


def test_criterion_09_algebra_suite(odo2, pisot31):
    # the checks of `adic algebra check`, 50 trials per shape, each on one
    # pair of elements of the shape; the identities and traces are exact,
    # the norm inequalities compared with `algebra.le`
    r = rng(9009)
    lamp = renorm_data(pisot31).lam_float
    shapes = (
        (odo2, 2, (3, 2, 5)),        # level <= 3, window 2, support <= 5
        (pisot31, lamp, (2, 1, 3)),  # level <= 2, window 1, support <= 3
    )
    bad, counts = [], {}
    for d, lam, shape in shapes:
        tri = triangle_phi(d, 3, renorm_data(d).lam_float).value
        tower = limit_rank(d, renorm_data(d))
        for _ in range(50):
            for name, ok in check_trial(r, d, lam, 3, tri, tower, shape):
                counts[name] = counts.get(name, 0) + 1
                if not ok:
                    bad.append(name)
        for _ in range(25):
            f = rand_element(r, d, lam, 3, shape)
            for n in (1, 2, 3, 4):
                for big in (1, 4):
                    if not jolissaint_holds(f, n, big):
                        bad.append("jolissaint n=%d" % n)

    # Neumann regime: random perturbations scaled under the threshold
    neumann_checked = 0
    u = unit(odo2, 2, 3)
    for _ in range(20):
        p = rand_element(r, odo2, 2, 3, (2, 2, 4))
        n0 = norms(p, 3, 1)["s_alpha"]
        if n0 == 0.0:
            continue
        pert = scale(p, Fraction(2, 5)
                     / Fraction(n0).limit_denominator(10 ** 9))
        if not norms(pert, 3, 1)["s_alpha"] < 0.5:
            continue
        res = neumann_invert(subtract(u, pert), tol=1e-10)
        neumann_checked += 1
        if res.residual > 1e-10:
            bad.append("neumann residual %.2e" % res.residual)

    # every check runs once per trial, the comparison with the tail
    # seminorm only in pisot31's exponential regime
    want = dict.fromkeys((
        "associativity", "involution_antihom", "involution_squared",
        "product_norm", "involution_norm", "l1_product", "tail_le_norm",
        "jolissaint_n1", "jolissaint_n2", "trace_commutator",
        "trace_positive"), 100)
    want["norm_le_tail"] = 50
    ok = not bad and neumann_checked >= 10 and counts == want
    verdict(9, ok,
            "100 trials of %d checks, %d neumann inversions, %d trace "
            "pairs%s" % (len(counts), neumann_checked,
                         counts.get("trace_commutator", 0),
                         "" if not bad else "; failures: "
                         + ", ".join(bad[:5])))


def test_criterion_09_on_an_irrational_lambda(golden2):
    # the checks of `adic algebra check --trials 25` at alpha = 3, with its
    # default estimate, on a properly ordered diagram whose Perron root
    # phi^2 lies in Q(sqrt 5): the coefficients meet field weights
    rd = renorm_data(golden2)
    assert not isinstance(rd.lambda_mu, (int, Fraction))
    assert extreme(golden2, 1)[2] != extreme(golden2, -1)[2]
    tri = default_triangle(golden2, rd.lambda_mu)
    tower = limit_rank(golden2, rd)
    r, bad, counts = rng(9019), [], {}
    for _ in range(25):
        for name, ok in check_trial(r, golden2, rd.lambda_mu, 3, tri, tower):
            counts[name] = counts.get(name, 0) + 1
            if not ok:
                bad.append(name)
    ok = not bad and set(counts.values()) == {25} and len(counts) == 12
    verdict(9, ok, "25 trials of %d checks on lambda = %.6f%s"
            % (len(counts), rd.lam_float,
               "" if not bad else "; failures: " + ", ".join(bad[:5])))


def test_criterion_10_solution_regularity(odo2):
    r = rng(9010)
    tower = limit_rank(odo2, renorm_data(odo2))
    rd = renorm_data(odo2)
    theory = chained_constant(odo2, rd, 3, Fraction(1, 4))["constant"]
    worst = 0.0
    bad = 0
    for _ in range(100):
        g0 = rand_function(r, odo2, r.randint(0, 3))
        h = coboundary(odo2, g0)
        if not any(h.values):
            continue
        sol = solve(h, tower, alpha=3, epsilon=Fraction(1, 4))
        k = sol.norms["k_ratio"]
        if not (math.isfinite(k) and k <= theory):
            bad += 1
        worst = max(worst, k)
    ok = bad == 0
    verdict(10, ok, "worst K %.4f <= chained constant %.1f, %d failures"
            % (worst, theory, bad))
