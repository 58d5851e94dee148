"""Crossed-product elements: products, norms, inversion, traces."""

import random
import time
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import rng
from test_step import (_prefix_draws, _prefixed, _random_diagram,
                       _random_prefix, first_disagreement)

import adic.algebra as alg
from adic.algebra import (NEUMANN_MAX_TERMS, TRIANGLE_PATHS, AlgebraElement,
                          _sum, add, check_trial, complement_support,
                          convolve, default_triangle, element, equal_elements,
                          involution, jolissaint_holds, lemma_constant,
                          neumann_invert, norms, power, project_support,
                          rand_element, scale, subtract, trace, triangle_phi,
                          unit)
from adic.catalog import builtin_diagram
from adic.cohomology import limit_rank
from adic.diagrams import (LazyPath, OrderedDiagram, TAIL_MAX, TAIL_MIN,
                           count_paths, enumerate_paths, extreme, make_level,
                           successor)
from adic.errors import (AlphaOverflowError, InsufficientStabilizationError,
                         LevelOverflowError, NormTooLargeError,
                         NotProperlyOrderedError, NumericError,
                         PreconditionError)
from adic.martingale import (CylinderFunction, compose_phi,
                             constant_function, from_vector, lift,
                             rand_function)
from adic.measures import renorm_data
from adic.scalars import FieldElement, sqrt_field


@pytest.fixture(scope="module")
def suite(odo2, pisot31):
    """{check name: outcomes} of 25 trials of the property suite on odo2
    and 25 on pisot31, a and b of level <= 3, window 2, support <= 5."""
    r = rng(502)
    out = {}
    for d, lam in ((odo2, 2), (pisot31, renorm_data(pisot31).lam_float)):
        tri = triangle_phi(d, 3, renorm_data(d).lam_float).value
        tower = limit_rank(d, renorm_data(d))
        for _ in range(25):
            for name, ok in check_trial(r, d, lam, 3, tri, tower, (3, 2, 5)):
                out.setdefault(name, []).append(ok)
    return out


def passed(suite, *names):
    """{name: (trials, whether every one held)}."""
    return {name: (len(suite[name]), all(suite[name])) for name in names}


def _shift(diagram, k):
    """The unitary u^k of the crossed product."""
    return element(diagram, 2, 3, {k: constant_function(diagram, Fraction(1))})


def test_triangle_values(odo2, odo3, fib, pisot31):
    expect = {
        "odo2": (odo2, {1: 1.0, 2: 1.0, 3: 1.0, 4: 1.0}),
        "odo3": (odo3, {1: 1.0, 2: 1.0, 3: 1.0, 4: 1.0}),
        "fib": (fib, {1: 1.0, 2: 1.6180339887, 3: 1.6180339887,
                      4: 2.6180339887}),
        "pisot31": (pisot31, {1: 1.0, 2: 4.0, 3: 4.0, 4: 4.0}),
    }
    for name, (d, table) in expect.items():
        prev = 0.0
        for lvl, want in sorted(table.items()):
            est = triangle_phi(d, lvl, renorm_data(d).lam_float)
            assert est.value == pytest.approx(want, abs=1e-9), (name, lvl)
            assert est.level == lvl
            # refinement of the representative set cannot shrink the sup
            assert est.value >= prev - 1e-12
            prev = est.value


def test_triangle_is_built_once(odo2):
    # one estimate per (level, lam), kept with the diagram
    odo2.tables.clear()
    got = [triangle_phi(odo2, 1, 2.0 + i) for i in range(4)]
    assert all(triangle_phi(odo2, 1, 2.0 + i) is est
               for i, est in enumerate(got))
    assert list(odo2.tables["triangle_phi"]) == [(1, 2.0 + i)
                                                 for i in range(4)]


def test_default_triangle_stops_below_the_path_bound(odo3, monkeypatch):
    # twelve levels of odo3 aim the sweep at L = 14, whose 3^14 paths pass
    # PATH_BUDGET; it stops at L = 5, the last level of at most
    # TRIANGLE_PATHS paths
    deep = OrderedDiagram(odo3.levels * 12, True)
    with pytest.raises(LevelOverflowError):
        count_paths(deep, 14)
    assert sum(count_paths(deep, 5)) <= TRIANGLE_PATHS < \
        sum(count_paths(deep, 6))
    seen, sweep = [], alg.triangle_phi
    monkeypatch.setattr(alg, "triangle_phi",
                        lambda d, L, lam: seen.append(L) or sweep(d, L, lam))
    assert default_triangle(deep, 3) == sweep(deep, 5, 3.0).value
    assert seen == [5]
    # a diagram of fewer levels keeps L = 3
    seen.clear()
    default_triangle(odo3, 3)
    assert seen == [3]


def _stationary(matrix):
    """The one-level stationary diagram of a square matrix, entry (v, w)
    counting the edges w -> v, with in-orders in edge-index order."""
    n = len(matrix)
    edges = [(w, v) for v in range(n) for w in range(n)
             for _ in range(matrix[v][w])]
    in_order = [[e for e, (_, r) in enumerate(edges) if r == v]
                for v in range(n)]
    return OrderedDiagram((make_level(n, n, edges, in_order),), True)


def _pairwise_triangle(d, L, lamf):
    """The sweep over every ordered pair of level-L representatives with
    defined images, scored by their exact disagreement levels
    (`first_disagreement`): provably equal images are skipped, and the
    exponent is clipped at 0."""
    reps = [LazyPath(p, TAIL_MIN) for p in enumerate_paths(d, L)]
    best = 0
    for direction in (1, -1):
        pairs = []
        for x in reps:
            try:
                pairs.append((x, successor(d, x, direction)))
            except NotProperlyOrderedError:
                continue
        for (x, fx), (y, fy) in permutations(pairs, 2):
            split = first_disagreement(d, fx, fy)
            if split:
                best = max(best, first_disagreement(d, x, y) - split)
    return lamf ** best


def _improper(r, n):
    """A `_random_diagram` on n >= 2 vertices with its in-orders shuffled
    until it is not properly ordered."""
    while True:
        ld = _random_diagram(r, n, 6).levels[0]
        for _ in range(20):
            orders = [r.sample(o, len(o)) for o in ld.in_order]
            d = OrderedDiagram((make_level(n, n, ld.edges, orders),), True)
            if not (_backward_ok(d) and _forward_ok(d)):
                return d


# reverse-fib: fib with the two in-edges of vertex a swapped; distinct
# representatives have provably equal images at level 1
REVERSE_FIB = OrderedDiagram((make_level(2, 2, [(0, 0), (1, 0), (0, 1)],
                                         [[1, 0], [2]]),), True)


def test_triangle_matches_the_pairwise_sweep(odo2, odo3, fib, pisot31):
    r = random.Random(41)
    cases = [odo2, odo3, fib, pisot31, REVERSE_FIB]
    drawn = [_random_diagram(r, r.randint(1, 3), 6) for _ in range(10)]
    cases += drawn + [_prefixed(d) for d in drawn[:4] + [fib]]
    cases += _prefix_draws(7, 10) + [_improper(r, n) for n in (2, 3) * 4]
    for d in cases:
        for L in (1, 2, 3):
            assert triangle_phi(d, L, 2.5).value == \
                _pairwise_triangle(d, L, 2.5), (d, L)
    assert triangle_phi(REVERSE_FIB, 1,
                        renorm_data(REVERSE_FIB).lam_float).value == 1.0


def test_triangle_of_many_paths_is_fast():
    # every entry 3: 2187 level-3 paths, lam = 9, one level of distortion
    d, t0 = _stationary([[3] * 3] * 3), time.perf_counter()
    assert triangle_phi(d, 3, 9.0).value == 9.0
    assert time.perf_counter() - t0 < 1.0


def test_unit_and_unitaries(odo2):
    u = unit(odo2, 2, 3)
    assert equal_elements(convolve(u, u), u)
    w = _shift(odo2, 1)
    ws = involution(w)
    assert ws.support() == (-1,)
    assert equal_elements(convolve(w, ws), u)
    assert equal_elements(convolve(ws, w), u)


def test_conjugation_by_unitary(odo2):
    r = rng(501)
    w = _shift(odo2, 1)
    ws = involution(w)
    a = rand_element(r, odo2, 2, 3, (2, 2, 5))
    lhs = convolve(convolve(w, a), ws)
    rhs = element(odo2, 2, 3, {k: compose_phi(odo2, f, -1)
                               for k, f in a.coeffs.items()})
    assert equal_elements(lhs, rhs)


def test_associativity_and_involution(suite):
    assert passed(suite, "associativity", "involution_antihom",
                  "involution_squared") == {
        "associativity": (50, True), "involution_antihom": (50, True),
        "involution_squared": (50, True)}


def test_norm_inequalities(suite):
    # the comparison with the tail seminorm holds in the exponential
    # regime, pisot31's
    assert passed(suite, "product_norm", "involution_norm", "l1_product",
                  "tail_le_norm", "norm_le_tail") == {
        "product_norm": (50, True), "involution_norm": (50, True),
        "l1_product": (50, True), "tail_le_norm": (50, True),
        "norm_le_tail": (25, True)}


def test_a_product_beyond_the_floats_is_an_alpha_overflow(pisot31):
    # the weights 4^(2 x) and 4^((107 + 107) 2) fit the floats, their
    # products with 2 and with a coefficient's norm do not: that is the
    # overflow of a weight beyond them, and it names the caller's alpha
    with pytest.raises(AlphaOverflowError, match="^alpha 255.5 overflows"):
        lemma_constant(4.0, 255.5, 0.3)
    a = rand_element(rng(107), pisot31, renorm_data(pisot31).lambda_mu, 107)
    with pytest.raises(AlphaOverflowError, match="^alpha 107 overflows"):
        norms(a, 107, 1, triangle=4.0)


def test_a_comparison_constant_without_a_gap_is_refused():
    # t^-(alpha + q) rounds to 1 at alpha + q = 1e-17, and exceeds 1 at a
    # negative alpha + q: 1 - t^-(alpha + q) is no positive denominator
    for alpha, q in ((0.0, 1e-17), (-2.0, 1.0)):
        with pytest.raises(PreconditionError,
                           match=r"needs t\^-\(alpha \+ q\) < 1"):
            lemma_constant(4.0, alpha, q)


def test_support_zero_mu_conventions(odo2, pisot31):
    lamp = renorm_data(pisot31).lam_float
    a_exp = element(pisot31, lamp, 3,
                    {0: constant_function(pisot31, Fraction(3, 2), 0)})
    assert norms(a_exp, 0, 2)["mu_q"] == pytest.approx(1.5, abs=1e-12)
    a_poly = element(odo2, 2, 3,
                     {0: constant_function(odo2, Fraction(3, 2), 0)})
    assert norms(a_poly, 0, 2)["mu_q"] == 0.0


def test_jolissaint_identity_exact(odo2, pisot31, suite):
    assert passed(suite, "jolissaint_n1", "jolissaint_n2") == {
        "jolissaint_n1": (50, True), "jolissaint_n2": (50, True)}
    r = rng(504)
    lamp = renorm_data(pisot31).lam_float
    for _ in range(8):
        f = rand_element(r, odo2, 2, 3, (3, 2, 5))
        for n in (1, 2, 3):
            for big in (1, 4):
                assert jolissaint_holds(f, n, big)
    for _ in range(4):
        f = rand_element(r, pisot31, lamp, 3, (1, 1, 3))
        for n in (1, 2):
            for big in (1, 4):
                assert jolissaint_holds(f, n, big)


def test_neumann_inversion(odo2):
    u = unit(odo2, 2, 3)
    ind = from_vector(odo2, 1, [Fraction(1, 5), Fraction(0)])
    h = subtract(u, element(odo2, 2, 3, {0: ind}))
    res = neumann_invert(h, tol=1e-10)
    assert res.residual <= 1e-10
    chk = subtract(convolve(h, res.element), u)
    assert norms(chk, 0, 1)["l1_alpha"] <= 1e-10

    exact = neumann_invert(u)
    assert exact.terms == 0 and exact.residual == 0.0
    assert type(exact.residual) is float
    assert equal_elements(exact.element, u)


def test_neumann_rejects_far_from_unit(odo2):
    with pytest.raises(NormTooLargeError):
        neumann_invert(scale(unit(odo2, 2, 3), Fraction(1, 4)))


def test_neumann_refuses_a_residual_above_tol(odo2, monkeypatch):
    # one term at tol 1e-10: the residual f^2 is certified, and refused
    h = subtract(unit(odo2, 2, 3), scale(_shift(odo2, 1), Fraction(1, 100)))
    monkeypatch.setattr(alg, "NEUMANN_MAX_TERMS", 1)
    with pytest.raises(NumericError, match="residual .* above tol"):
        neumann_invert(h, tol=1e-10)


def test_neumann_mixed_support(odo2):
    u = unit(odo2, 2, 3)
    pert = element(odo2, 2, 3, {
        0: constant_function(odo2, Fraction(1, 50), 0),
        1: constant_function(odo2, Fraction(1, 50), 0),
        -1: constant_function(odo2, Fraction(3, 100), 0)})
    h = subtract(u, pert)
    res = neumann_invert(h, tol=1e-10)
    assert res.residual <= 1e-10
    assert len(res.element.support()) > 1


@pytest.mark.parametrize("tol", [0, -1.0, float("nan"), float("inf"),
                                 1e-400])
def test_neumann_rejects_bad_tolerance(odo2, tol):
    with pytest.raises(PreconditionError, match="tol must be finite"):
        neumann_invert(unit(odo2, 2, 3), tol=tol)


# power and neumann_invert against the loop of public products and sums

# How the values of a drawn element are stored.
KINDS = {"fraction": Fraction, "float": float,
         "field": lambda x: sqrt_field(5)(x, x / 2)}
# f = 1 - h: u^1/40 + u^2 (-1/1600) + u^-1/40 on odo2.  The shift 2 of
# the partial sum cancels to zero at the second term, f + f^2, and the
# third term, which the series still needs at tol 1e-2, brings it back.
CANCELLING = ("odo2", {1: (0, [Fraction(1, 40)]),
                       2: (0, [Fraction(-1, 1600)]),
                       -1: (0, [Fraction(1, 40)])}, "fraction")
# On pisot31 composing with u^k raises levels with the shift: u^1 at
# level 1 and u^-1 at level 2 (8 and 32 paths), and the same shifts with
# the levels swapped.
RISING = ("pisot31", {1: (1, [Fraction(i % 5 - 2, 4) for i in range(8)]),
                      -1: (2, [Fraction(3 - i % 7, 4) for i in range(32)])})
FALLING = ("pisot31", {1: (2, RISING[1][-1][1]), -1: (1, RISING[1][1][1])})


@st.composite
def _specs(draw):
    """(diagram name, {shift: (level, values)}, kind) of a small element,
    its values quarters in [-2, 2] drawn from a seeded generator."""
    name = draw(st.sampled_from(("odo2", "pisot31")))
    d, r, coeffs = builtin_diagram(name), rng(draw(st.integers(0, 999))), {}
    for k in draw(st.sets(st.integers(-2, 2), min_size=1, max_size=3)):
        level = draw(st.integers(0, 2))
        coeffs[k] = (level, [_quarter(r)
                             for _ in enumerate_paths(d, level)])
    # field values on pisot31 take seconds per example, in the float norms
    kinds = sorted(KINDS) if name == "odo2" else ["float", "fraction"]
    return name, coeffs, draw(st.sampled_from(kinds))


def _spec_element(spec):
    """The element f of a spec, scaled to s_alpha norm 2/5 when its own is
    not below 1/2, and h = 1 - f."""
    name, coeffs, kind = spec
    d = builtin_diagram(name)
    lam = renorm_data(d).lambda_mu
    f = element(d, lam, 3, {k: from_vector(d, level, list(map(
        KINDS[kind], values))) for k, (level, values) in coeffs.items()})
    tri = triangle_phi(d, 3, float(lam)).value
    n0 = norms(f, 3, 1, triangle=tri)["s_alpha"]
    if not n0 < 0.5:
        f = scale(f, Fraction(2, 5) / Fraction(n0))
    return f, subtract(unit(d, lam, 3), f)


def _power_loop(a, n):
    out = unit(a.diagram, a.lam, a.alpha)
    for _ in range(n):
        out = convolve(out, a)
    return out


def _neumann_loop(h, tol):
    """(inverse, terms, residual, shifts of each partial sum) of the Neumann
    series, one public convolve, add and norms per term: it stops at the
    first term f^n with ||f^n|| ||f|| / (1 - ||f||) <= tol, the norms
    s_alpha at s = alpha."""
    one = unit(h.diagram, h.lam, h.alpha)
    f = subtract(one, h)
    tri = triangle_phi(h.diagram, 3, float(h.lam)).value
    small = norms(f, h.alpha, 1, triangle=tri)["s_alpha"]
    inv, term, used, sums = one, one, 0, [set(one.coeffs)]
    for n in range(1, NEUMANN_MAX_TERMS + 1):
        term = convolve(term, f)
        if not term.coeffs:
            break
        inv, used = add(inv, term), n
        sums.append(set(inv.coeffs))
        if not norms(term, h.alpha, 1, triangle=tri)["s_alpha"] * small / \
                (1.0 - small) > tol:
            break
    residual = norms(subtract(convolve(h, inv), one), 0, 1,
                     triangle=tri)["l1_alpha"]
    return inv, used, residual, sums


def _same(got, want):
    """The same shifts in the same, ascending order (every operation
    returns its shifts so), and per shift the same level, values and value
    types."""
    assert list(got.coeffs) == list(want.coeffs)
    _same_values(got, want.coeffs)


@example(CANCELLING)
# without u^-1 no later term reaches shift 2 again
@example(("odo2", dict(list(CANCELLING[1].items())[:2]), "fraction"))
# f = u / 10 in Q(sqrt 5): no term reaches shift 0, whose 1 stays rational
@example(("odo2", {1: (0, [Fraction(1, 10)])}, "field"))
@example((*RISING, "fraction"))
@example((*RISING, "float"))
@example((*FALLING, "fraction"))
@example((*FALLING, "float"))
@given(_specs())
def test_power_and_neumann_match_the_public_loop(spec):
    _match_the_public_loop(*_spec_element(spec))


def _match_the_public_loop(f, h):
    for n in range(5):
        _same(power(f, n), _power_loop(f, n))
    inv, used, residual, _ = _neumann_loop(h, 1e-2)
    got = neumann_invert(h, tol=1e-2)
    _same(got.element, inv)
    assert (got.terms, got.residual) == (used, residual)


def test_power_and_neumann_build_only_their_results(odo2, pisot31,
                                                    monkeypatch):
    # the chains run on bare columns: power(a, 4) builds the coefficients
    # of a^4 only, and neumann_invert those of the inverse and of the
    # residual h inv - 1, besides at most the unit and f = 1 - h
    build, built = CylinderFunction.of_parts.__func__, []

    def counted(cls, *parts):
        built.append(build(cls, *parts))
        return built[-1]

    a = rand_element(rng(507), pisot31, 4, 3, (2, 1, 3))
    p = element(odo2, 2, 3, {k: rand_function(rng(508 + k), odo2, 2)
                             for k in (-1, 1)})
    f = scale(p, Fraction(2, 5) / Fraction(norms(p, 3, 1)["s_alpha"]))
    one = unit(odo2, 2, 3)
    h = subtract(one, f)
    inv = neumann_invert(h, tol=1e-10)
    residual = subtract(convolve(h, inv.element), one)
    assert inv.terms > 3 and len(inv.element.coeffs) > 7
    monkeypatch.setattr(CylinderFunction, "of_parts", classmethod(counted))
    assert built == list(power(a, 4).coeffs.values())
    built.clear()
    got = neumann_invert(h, tol=1e-10).element
    assert all(any(g is x for x in built) for g in got.coeffs.values())
    assert len(built) <= len(got.coeffs) + len(residual.coeffs) + \
        len(f.coeffs) + 1


def test_operations_build_no_coefficient_until_read(odo2, monkeypatch):
    # an element stores bare columns: no operation builds a cylinder
    # function before its coeffs are read, and coeff(k) builds shift k
    # alone
    build, built = CylinderFunction.of_parts.__func__, []

    def counted(cls, *parts):
        built.append(build(cls, *parts))
        return built[-1]

    r = rng(513)
    a, b = (element(odo2, 2, 3, {k: rand_function(r, odo2, r.randint(0, 2))
                                 for k in ks}) for ks in ((-1, 0, 2), (0, 1)))
    f = scale(a, Fraction(2, 5) / Fraction(norms(a, 3, 1)["s_alpha"]))
    h = subtract(unit(odo2, 2, 3), f)
    monkeypatch.setattr(CylinderFunction, "of_parts", classmethod(counted))
    ab, *_ = (convolve(a, b), add(a, b), subtract(a, b),
              scale(a, Fraction(3, 2)), involution(a), power(a, 4),
              project_support(a, 1), neumann_invert(h, tol=1e-6))
    assert built == [] and 0 in ab.cols and len(ab.cols) > 2
    assert built == [ab.coeff(0)]
    assert list(ab.coeffs) == list(ab.cols)
    assert len(built) == 1 + len(ab.cols)


def test_an_element_stores_one_denominator(odo2):
    # shifts over 3 and 4 and one in Q(sqrt 5) share one q and one field,
    # and read back the values, and value types, they were built of
    r5 = sqrt_field(5)
    coeffs = {2: from_vector(odo2, 1, [Fraction(3, 4), Fraction(-1, 2)]),
              -1: from_vector(odo2, 1, [Fraction(1, 3), Fraction(-2, 3)]),
              0: constant_function(odo2, r5(1, Fraction(1, 2)))}
    a = element(odo2, 2, 3, coeffs)
    assert (a.q, list(a.cols), a.field) == (12, [-1, 0, 2], r5(1).field)
    assert [len(cols) for _, cols in a.cols.values()] == [1, 2, 1]
    assert {f.parts[0] for f in a.coeffs.values()} == {12}
    for k, f in coeffs.items():
        g = a.coeffs[k]
        assert (g.level, g.values) == (f.level, f.values), k
        assert list(map(type, g.values)) == list(map(type, f.values)), k


def test_power_one_keeps_a_rational_coefficient_rational(golden2):
    # a(0) lives in Q(lambda) = Q(sqrt 5) and a(1) is rational: a^1 is a
    # itself, each coefficient's values of the type they were built of
    lam = renorm_data(golden2).lambda_mu
    r5 = sqrt_field(5)
    a = element(golden2, lam, 3, {
        0: from_vector(golden2, 0, [r5(1, 1), r5(Fraction(1, 2), 0)]),
        1: from_vector(golden2, 1, [Fraction(1, 3), 0, -2, 0, 1])})
    got = power(a, 1)
    assert equal_elements(got, a)
    assert [{type(x) for x in f.values} for f in got.coeffs.values()] == \
        [{FieldElement}, {Fraction}]
    assert equal_elements(power(a, 2), convolve(a, a))


def test_neumann_of_a_field_one_matches_the_public_loop(odo2):
    # h(0) is 1 in Q(sqrt 5) and the other shifts are rational, so
    # f = 1 - h drops shift 0 and has no field: the inverse stays rational,
    # and only the residual's product reads the field of h
    lam = renorm_data(odo2).lambda_mu
    h = element(odo2, lam, 3, {
        0: from_vector(odo2, 0, [sqrt_field(5)(1, 0)]),
        1: from_vector(odo2, 1, [Fraction(1, 200), Fraction(-1, 100)]),
        -1: from_vector(odo2, 0, [Fraction(1, 100)])})
    f = subtract(unit(odo2, lam, 3), h)
    assert 0 not in f.coeffs
    _match_the_public_loop(f, h)
    assert all(type(x) is Fraction
               for g in neumann_invert(h, 1e-2).element.coeffs.values()
               for x in g.values)


def test_the_cancelling_example_cancels():
    sums = _neumann_loop(_spec_element(CANCELLING)[1], 1e-2)[3]
    assert [2 in s for s in sums[:4]] == [False, True, False, True]


def _ascending(a):
    return list(a.coeffs) == sorted(a.coeffs)


def test_every_operation_returns_ascending_shifts(odo2):
    # inputs built from dicts in descending and mixed shift order
    r = rng(512)
    a = element(odo2, 2, 3, {k: rand_function(r, odo2, r.randint(0, 2))
                             for k in (2, 1, -1, -2)})
    b = element(odo2, 2, 3, {k: rand_function(r, odo2, r.randint(0, 2))
                             for k in (1, -2, 0)})
    f = scale(a, Fraction(2, 5) / Fraction(norms(a, 3, 1)["s_alpha"]))
    h = subtract(unit(odo2, 2, 3), f)
    outs = [a, b, unit(odo2, 2, 3), add(a, b), subtract(b, a), scale(a, 3),
            convolve(a, b), convolve(b, a), involution(a), involution(b),
            project_support(a, 1), complement_support(b, 0),
            neumann_invert(h, tol=1e-3).element]
    outs += [power(b, n) for n in range(4)]
    assert all(map(_ascending, outs))
    assert [len(x.coeffs) > 2 for x in outs[3:9]] == [True] * 6


def test_norms_do_not_depend_on_the_order_of_the_coeffs_dict(odo2):
    # 1 + 2^-53 + 2^-53 is 1.0 summed from the left and 1 + 2^-52 from
    # the right, so an order-dependent sum reads different floats
    tiny = Fraction(1, 2 ** 53)
    a = element(odo2, 2, 3, {k: constant_function(odo2, v) for k, v in
                             ((0, Fraction(1)), (1, tiny), (2, tiny))})
    want = norms(a, 0, 1, triangle=1.0)
    for order in permutations(a.cols):
        b = AlgebraElement(odo2, 2, 3, a.q, {k: a.cols[k] for k in order},
                           a.field)
        assert norms(b, 0, 1, triangle=1.0) == want, order


# the n-ary sum of bare columns against the pairwise left fold

def _series(spec, n=4):
    """(diagram name, bare columns of 1, f, ..., f^(n-1)) for the element
    f of a spec: the operands of a Neumann partial sum."""
    f = _spec_element(spec)[0]
    powers = (power(f, i) for i in range(n))
    return spec[0], [(p.q, p.cols) for p in powers]


# On odo2: shift 0 at level 2, then its negative, then at level 0.  The
# fold drops the shift at the second operand, so the third brings it back
# at level 0, below the highest level among its terms.
RETURNING = ("odo2", [(2, {0: (2, [[1, 2, 3, 4]]), 1: (1, [[1, -1]])}),
                      (4, {0: (2, [[-2, -4, -6, -8]])}),
                      (3, {0: (0, [[1]]), 1: (0, [[2]])})])


@st.composite
def _bare_operands(draw):
    """(diagram name, 1 to 5 operands (q, {shift: (level, cols)})): shifts
    in -1..1, one or two columns, values halves in [-1, 1] over q in 2, 4
    or 6.  A shift of an operand is, at random, the negative of the fold
    of the operands before it, so that partial sums cancel and later
    operands bring the shift back."""
    name = draw(st.sampled_from(("odo2", "odo2", "pisot31")))
    d, operands = builtin_diagram(name), []
    for _ in range(draw(st.integers(1, 5))):
        q, cols = draw(st.sampled_from((2, 4, 6))), {}
        before = _pairwise_fold(d, operands)
        for k in draw(st.sets(st.integers(-1, 1), min_size=1, max_size=3)):
            if k in before and draw(st.booleans()):
                level, c = before[k]
                cols[k] = (level, [[int(-v * q) for v in col] for col in c])
                continue
            level = draw(st.integers(0, 2))
            n = len(enumerate_paths(d, level))
            column = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
            c = draw(st.lists(column, min_size=1, max_size=2).filter(
                lambda c: any(map(any, c))))
            cols[k] = (level, [[v * q // 2 for v in col] for col in c])
        operands.append((q, cols))
    return name, operands


def _pairwise_fold(d, operands):
    """{shift: (level, columns of Fractions)}: the left fold of pairwise
    sums read value by value.  A shift of one side is kept; one of both
    sides is summed at the higher level, a missing column reading as
    zeros, and dropped when all zero."""
    out = {}
    for q, cols in operands:
        for k, (level, c) in cols.items():
            term = (level, [[Fraction(v, q) for v in col] for col in c])
            if k not in out:
                out[k] = term
                continue
            (la, ca), (lb, cb) = out.pop(k), term
            top, width = max(la, lb), max(len(ca), len(cb))
            zero = [0] * len(enumerate_paths(d, top))
            ca, cb = ([lift(d, from_vector(d, lx, col), top).values
                       for col in cx] + [zero] * (width - len(cx))
                      for lx, cx in ((la, ca), (lb, cb)))
            s = [[x + y for x, y in zip(xc, yc)] for xc, yc in zip(ca, cb)]
            if any(map(any, s)):
                out[k] = (top, s)
    return out


@example(_series(CANCELLING))
@example(_series((*RISING, "fraction")))
@example(_series((*FALLING, "fraction")))
@example(RETURNING)
@given(_bare_operands())
def test_the_n_ary_sum_is_the_pairwise_fold(case):
    name, operands = case
    d = builtin_diagram(name)
    q, out = _sum(d, *operands)
    assert list(out) == sorted(out)
    assert {k: (level, [[Fraction(v, q) for v in col] for col in c])
            for k, (level, c) in out.items()} == _pairwise_fold(d, operands)


def test_the_returning_example_returns_below_the_top_level():
    # 1/3 at level 0, and shift 1 summed at its higher level, 1
    q, out = _sum(builtin_diagram("odo2"), *RETURNING[1])
    assert (q, out) == (12, {0: (0, [[4]]), 1: (1, [[14, 2]])})


# add, subtract, scale and involution against pointwise references

# h = (1 in Q(sqrt 5)) + rational shifts: 1 - h drops shift 0 and the field.
FIELD_ONE = {0: (0, [sqrt_field(5)(1, 0)]),
             1: (1, [Fraction(1, 200), Fraction(-1, 100)]),
             -1: (0, [Fraction(1, 100)])}


@st.composite
def _pairs(draw):
    """(diagram name, coefficients of a and of b as {shift: (level,
    values)}, a rational c), the values of each shift of one drawn kind
    (Fraction, float or Q(sqrt 5)), quarters from a seeded generator."""
    name = draw(st.sampled_from(("odo2", "pisot31")))
    d, r, pair = builtin_diagram(name), rng(draw(st.integers(0, 999))), []
    for _ in range(2):
        coeffs = {}
        for k in draw(st.sets(st.integers(-2, 2), max_size=3)):
            level, kind = draw(st.integers(0, 2)), \
                draw(st.sampled_from(sorted(KINDS)))
            coeffs[k] = (level, [KINDS[kind](_quarter(r))
                                 for _ in enumerate_paths(d, level)])
        pair.append(coeffs)
    return (name, *pair, draw(st.fractions(-2, 2, max_denominator=8)))


def _exact(d, f):
    """f with its floats read as the Fractions they store."""
    return from_vector(d, f.level, [Fraction(v) if type(v) is float else v
                                    for v in f.values])


def _pointwise_sum(d, fa, fb, c=1):
    """{shift: fa[k] + c fb[k]} of two coefficient dicts, summed value by
    value at the higher level, zero sums dropped."""
    zero = constant_function(d, Fraction(0))
    out = {}
    for k in set(fa) | set(fb):
        x, y = (_exact(d, f.get(k, zero)) for f in (fa, fb))
        top = max(x.level, y.level)
        y = lift(d, y, top)
        s = lift(d, x, top) + from_vector(d, top, [c * v for v in y.values])
        if not s.is_zero():
            out[k] = s
    return out


def _same_values(got, want):
    """The same shifts, and per shift the same level, values and types."""
    assert set(got.coeffs) == set(want)
    for k, f in want.items():
        g = got.coeffs[k]
        assert (g.level, g.values) == (f.level, f.values), k
        assert list(map(type, g.values)) == list(map(type, f.values)), k


@example(("odo2", {0: (0, [Fraction(1)])}, CANCELLING[1], Fraction(-1)))
@example(("odo2", {0: (0, [Fraction(1)])}, FIELD_ONE, Fraction(1, 2)))
@given(_pairs())
def test_sums_scales_and_involutions_match_pointwise(pair):
    name, ca, cb, c = pair
    d = builtin_diagram(name)
    fa, fb = ({k: from_vector(d, level, values)
               for k, (level, values) in x.items()} for x in (ca, cb))
    a, b = element(d, 2, 3, fa), element(d, 2, 3, fb)
    _same_values(add(a, b), _pointwise_sum(d, fa, fb))
    _same_values(subtract(a, b), _pointwise_sum(d, fa, fb, -1))
    _same_values(scale(b, c), _pointwise_sum(d, {}, fb, c))
    # a*(k)(x) = a(-k)(phi^{-k} x), of the type of a(-k)'s exact values
    nonzero = {k: _exact(d, f) for k, f in fa.items() if not f.is_zero()}
    star = involution(a)
    assert set(star.coeffs) == {-k for k in nonzero}
    for k, f in star.coeffs.items():
        for x in _points(d, f.level):
            assert f.evaluate(d, x) == \
                nonzero[-k].evaluate(d, _phi(d, x, -k))
        assert set(map(type, f.values)) == set(map(type, nonzero[-k].values))


def test_deep_product_is_computed_within_the_path_budget(fib):
    # (u^-20000 b)(-20000) = b o phi^20000 reads fib at level 22, which
    # the path budget allows
    r = rng(505)
    b = rand_function(r, fib, 1)
    ab = convolve(_shift(fib, -20000), element(fib, 2, 3, {0: b}))
    (k, f), = ab.coeffs.items()
    assert (k, f.level) == (-20000, 22)
    paths = enumerate_paths(fib, 22)
    for i in r.sample(range(len(paths)), 3):
        x = _phi(fib, LazyPath(paths[i], TAIL_MIN), 20000)
        assert f.values[i] == b.evaluate(fib, x)


def test_product_past_the_path_budget_is_refused(fib):
    b = element(fib, 2, 3, {0: rand_function(rng(506), fib, 1)})
    with pytest.raises(LevelOverflowError,
                       match="level 25 has 317811 paths"):
        convolve(_shift(fib, -100000), b)


def test_tracial_identity_exact(suite):
    assert passed(suite, "trace_commutator") == \
        {"trace_commutator": (50, True)}


@st.composite
def _drawn_diagrams(draw):
    """A `_random_diagram` on 1 to 3 vertices, `_prefixed` or not."""
    d = _random_diagram(random.Random(draw(st.integers(0, 2 ** 16))),
                        draw(st.integers(1, 3)), 6)
    return _prefixed(d) if draw(st.booleans()) else d


@example(_prefixed(builtin_diagram("pisot31")), 0)
@example(_random_diagram(random.Random(0), 1, 6), 0)
@given(_drawn_diagrams(), st.integers(0, 2 ** 16))
def test_traces_of_ab_and_ba_agree_exactly(d, seed):
    # tau(ab) = tau(ba) on the exact numerators, each zero-shift
    # coefficient read through the integer columns it holds; the Gram
    # weights are path counts, so rational elements have rational traces.
    # The one-edge loop has Perron root 1 and a finite path space: refused
    if d.matrix(len(d.levels)) == [[1]]:
        with pytest.raises(PreconditionError):
            renorm_data(d)
        return
    rd = renorm_data(d)
    tower = limit_rank(d, rd)
    r = random.Random(seed)
    a, b = (rand_element(r, d, rd.lam_float, 3) for _ in range(2))
    ta = trace(convolve(a, b), tower)
    tb = trace(convolve(b, a), tower)
    assert len(ta) == len(tb) == tower.d
    assert [x.numerator for x in ta] == [y.numerator for y in tb]
    assert all(isinstance(x.numerator, Fraction) for x in ta + tb)


# two diagrams the suite once failed on: A `trace_positive` while it read
# D_1, B the norm inequalities while the sweep stopped inside its prefix
REPRO_A = OrderedDiagram((make_level(
    2, 2, [(0, 0), (1, 0), (0, 1), (1, 1), (1, 1)], [[1, 0], [4, 3, 2]]),),
    True)
REPRO_B = OrderedDiagram((
    make_level(1, 3, [(0, 1), (0, 1), (0, 2), (0, 0)], [[3], [0, 1], [2]]),
    make_level(3, 3, [(0, 2), (2, 0), (2, 2), (0, 2), (1, 2), (1, 1), (0, 0),
                      (0, 1)], [[6, 1], [5, 7], [0, 4, 2, 3]]),
    make_level(3, 3, [(0, 0), (1, 0), (1, 1), (2, 1), (0, 2)],
               [[1, 0], [2, 3], [4]])), True)


@example(REPRO_A, 0, 0)
@example(REPRO_B, 0, 0)
@example(_stationary([[2, 1], [2, 1]]), 0, 0)
@example(_stationary([[1, 1, 0], [0, 0, 1], [3, 1, 1]]), 0, 0)
@example(_prefixed(builtin_diagram("pisot31")), 0, 0)
@given(_drawn_diagrams(), st.integers(0, 2), st.integers(0, 2 ** 16))
def test_the_suite_holds_on_drawn_diagrams(d, prefix, seed):
    # every check of `adic algebra check` at its default estimate, on
    # singular, cubic and prefixed diagrams too; only the one-edge loop,
    # with Perron root 1, is refused
    r = random.Random(seed)
    d = _random_prefix(r, d, prefix)
    if d.matrix(len(d.levels)) == [[1]]:
        with pytest.raises(PreconditionError):
            renorm_data(d)
        return
    rd = renorm_data(d)
    tri = default_triangle(d, rd.lambda_mu)
    tower = limit_rank(d, rd)
    for _ in range(25):
        for name, ok in check_trial(r, d, rd.lambda_mu, 3, tri, tower):
            assert ok, (name, d)


def test_trace_refuses_a_level_below_the_evaluation_level(odo2):
    # at_level only guards the evaluation level; it does not move the trace
    r = rng(508)
    tower = limit_rank(odo2, renorm_data(odo2))
    a = rand_element(r, odo2, 2, 3, (2, 2, 4))
    h = a.coeff(0)
    assert trace(a, tower, at_level=h.level + 3) == trace(a, tower)
    with pytest.raises(InsufficientStabilizationError):
        trace(a, tower, at_level=h.level - 1)


def test_trace_positive_on_squares(suite):
    assert passed(suite, "trace_positive") == {"trace_positive": (50, True)}


def test_trace_of_unit(odo2):
    tower = limit_rank(odo2, renorm_data(odo2))
    tv = trace(unit(odo2, 2, 3), tower)
    assert [(dv.index, dv.value) for dv in tv] == [(1, 1.0)]
    assert not tv[0].exact_zero


# ---------------------------------------------------------------------------
# products against brute force


@pytest.fixture(scope="module")
def oracle_diagrams():
    """odo2, fib, pisot31 and two random diagrams on 2 and 3 vertices, each
    also behind a non-repeating first level."""
    out = [builtin_diagram(name) for name in ("odo2", "fib", "pisot31")]
    r = random.Random(2025)
    out += [_random_diagram(r, n, 6) for n in (2, 3)]
    return out + [_prefixed(d) for d in out]


def _phi(diagram, x, power):
    """phi^power x, one lazy successor at a time."""
    for _ in range(abs(power)):
        x = successor(diagram, x, 1 if power > 0 else -1)
    return x


def _points(diagram, level):
    """Two points in every level-`level` cylinder: its minimal and maximal
    tails."""
    return [LazyPath(p, tail) for p in enumerate_paths(diagram, level)
            for tail in (TAIL_MIN, TAIL_MAX)]


def _check_product(diagram, a, b, ab):
    """(ab)(k)(x) = sum_i a(i)(x) * b(k - i)(phi^{-i} x) at two points of
    every cylinder of the level of (ab)(k), and at the points of one level
    below the finest input level where the sum is not supported."""
    spare = max(f.level for f in (*a.coeffs.values(), *b.coeffs.values()))
    for k in {i + j for i in a.coeffs for j in b.coeffs} | set(ab.coeffs):
        got = ab.coeffs.get(k)
        for x in _points(diagram, got.level if got else spare + 1):
            want = 0
            for i, ai in a.coeffs.items():
                if k - i in b.coeffs:
                    want = want + ai.evaluate(diagram, x) * \
                        b.coeffs[k - i].evaluate(diagram, _phi(diagram, x, -i))
            assert (got.evaluate(diagram, x) if got else 0) == want, \
                (k, x.prefix.edges, x.tail.kind)


def _check_involution(diagram, a, star):
    """a*(k)(x) = a(-k)(phi^{-k} x) on every shift of a*."""
    assert set(star.coeffs) == {-k for k in a.coeffs}
    for k, f in star.coeffs.items():
        for x in _points(diagram, f.level):
            assert f.evaluate(diagram, x) == \
                a.coeffs[-k].evaluate(diagram, _phi(diagram, x, -k))


def _oracle_element(r, diagram, value, shifts=range(-2, 3), max_level=2,
                    max_support=3):
    ks = r.sample(shifts, k=r.randint(1, min(max_support, len(shifts))))
    return element(diagram, 2, 3, {k: from_vector(diagram, lv, [
        value(r) for _ in enumerate_paths(diagram, lv)])
        for k in ks for lv in [r.randint(0, max_level)]})


def _quarter(r):
    return Fraction(r.randint(-8, 8), 4)


def _backward_ok(diagram):
    """Whether phi^-1 is defined: the all-max path is unique."""
    try:
        extreme(diagram, -1)
    except NotProperlyOrderedError:
        return False
    return True


def _forward_ok(diagram):
    """Whether phi is defined everywhere: the all-min path is unique."""
    try:
        extreme(diagram, 1)
    except NotProperlyOrderedError:
        return False
    return True


def test_convolve_and_involution_match_brute_force(oracle_diagrams):
    r = rng(509)
    for d in oracle_diagrams:
        # without phi^-1, a(i) b(j) needs i <= 0 and a*(k) needs k >= 0
        both = _backward_ok(d)
        left = range(-2, 3) if both else range(-2, 1)
        right = range(-2, 3) if both else range(0, 3)
        for _ in range(8):
            a = _oracle_element(r, d, _quarter, left)
            b = _oracle_element(r, d, _quarter)
            _check_product(d, a, b, convolve(a, b))
            c = _oracle_element(r, d, _quarter, right)
            _check_involution(d, c, involution(c))


def test_convolve_in_the_quadratic_field(fib):
    r = rng(510)

    def quad(r):
        return sqrt_field(5)(_quarter(r), _quarter(r))
    for _ in range(4):
        a = _oracle_element(r, fib, quad, range(-2, 1))
        b = _oracle_element(r, fib, _quarter, range(-2, 1))
        for x, y in ((a, b), (b, a), (a, a)):
            xy = convolve(x, y)
            _check_product(fib, x, y, xy)
            assert all(isinstance(v, FieldElement) for f in xy.coeffs.values()
                       for v in f.values)


def test_float_values_are_read_exactly(odo2, pisot31):
    r = rng(511)
    for d in (odo2, pisot31):
        for _ in range(4):
            a = _oracle_element(r, d, lambda r: r.randint(-64, 64) / 16)
            b = _oracle_element(r, d, lambda r: r.uniform(-1, 1))
            exact = [element(d, 2, 3, {k: from_vector(
                d, f.level, [Fraction(v) for v in f.values])
                for k, f in x.coeffs.items()}) for x in (a, b)]
            got, want = convolve(a, b), convolve(*exact)
            assert equal_elements(got, want)
            assert all(type(v) is Fraction for f in got.coeffs.values()
                       for v in f.values)


def test_mixed_quadratic_fields_are_refused(fib):
    # within one element the values are read at element(), between two
    # elements by the operation
    root5, root2 = sqrt_field(5)(0, 1), sqrt_field(2)(0, 1)
    mixed = r"mixed fields Q\(sqrt 2\), Q\(sqrt 5\)$"
    a5 = element(fib, 2, 3, {0: constant_function(fib, root5)})
    a2 = element(fib, 2, 3, {1: constant_function(fib, root2)})
    for op in (convolve, add):
        with pytest.raises(PreconditionError, match=mixed):
            op(a5, a2)
    for coeffs in ({0: from_vector(fib, 0, [root5, root2])},
                   {0: constant_function(fib, root5),
                    1: constant_function(fib, root2)}):
        with pytest.raises(PreconditionError, match=mixed):
            element(fib, 2, 3, coeffs)
    with pytest.raises(PreconditionError, match="no exact field"):
        element(fib, 2, 3, {0: constant_function(fib, float("nan"))})
