"""Crossed-product elements: products, norms, inversion, traces."""

from fractions import Fraction

import pytest

from conftest import rand_function, rng

from adic.algebra import (TRIANGLE_CACHE_SIZE, add, complement_support,
                          convolve, element, equal_elements, involution,
                          lemma_constant, neumann_invert, norms, power,
                          project_support, scale, subtract, trace,
                          triangle_phi, unit, unitary)
from adic.cohomology import limit_rank
from adic.errors import (InsufficientStabilizationError, LevelOverflowError,
                         NormTooLargeError)
from adic.martingale import compose_phi, constant_function, from_vector
from adic.measures import renorm_data

SLACK = 1e-9


def le(x, y):
    return x <= y + SLACK * max(1.0, abs(y))


def rand_element(r, diagram, lam, alpha, max_level, window, max_support):
    ks = r.sample(range(-window, window + 1),
                  k=r.randint(1, max_support))
    return element(diagram, lam, alpha,
                   {k: rand_function(r, diagram, r.randint(0, max_level))
                    for k in ks})


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
            est = triangle_phi(d, lvl)
            assert est.value == pytest.approx(want, abs=1e-9), (name, lvl)
            assert est.level == lvl
            # refinement of the representative set cannot shrink the sup
            assert est.value >= prev - 1e-12
            prev = est.value
            if est.value > 1.0:
                assert est.attained_pair is not None


def test_triangle_cache_is_bounded(odo2):
    triangle_phi.cache_clear()
    for i in range(TRIANGLE_CACHE_SIZE + 4):
        triangle_phi(odo2, 1, 2.0 + i)
    info = triangle_phi.cache_info()
    assert info.maxsize == TRIANGLE_CACHE_SIZE
    assert info.currsize == TRIANGLE_CACHE_SIZE


def test_unit_and_unitaries(odo2):
    u = unit(odo2, 2, 3)
    assert equal_elements(convolve(u, u), u)
    w = unitary(odo2, 2, 3, 1)
    ws = involution(w)
    assert ws.support() == (-1,)
    assert equal_elements(convolve(w, ws), u)
    assert equal_elements(convolve(ws, w), u)


def test_conjugation_by_unitary(odo2):
    r = rng(501)
    w = unitary(odo2, 2, 3, 1)
    ws = involution(w)
    a = rand_element(r, odo2, 2, 3, 2, 2, 5)
    lhs = convolve(convolve(w, a), ws)
    rhs = element(odo2, 2, 3, {k: compose_phi(odo2, f, -1)
                               for k, f in a.coeffs.items()})
    assert equal_elements(lhs, rhs)


def test_associativity_and_involution(odo2, pisot31):
    r = rng(502)
    lamp = renorm_data(pisot31).lam_float
    for d, lam in ((odo2, 2), (pisot31, lamp)):
        for _ in range(8):
            a = rand_element(r, d, lam, 3, 2, 2, 3)
            b = rand_element(r, d, lam, 3, 2, 2, 3)
            c = rand_element(r, d, lam, 3, 1, 1, 2)
            assert equal_elements(convolve(convolve(a, b), c),
                                  convolve(a, convolve(b, c)))
            assert equal_elements(involution(convolve(a, b)),
                                  convolve(involution(b), involution(a)))
            assert equal_elements(involution(involution(a)), a)


def test_norm_inequalities(odo2, pisot31):
    r = rng(503)
    lamp = renorm_data(pisot31).lam_float
    for d, lam in ((odo2, 2), (pisot31, lamp)):
        tri = triangle_phi(d, 3).value
        for _ in range(25):
            s = r.choice((0, 1, 2))
            q = r.choice((1, 2))
            a = rand_element(r, d, lam, 3, 3, 2, 5)
            b = rand_element(r, d, lam, 3, 3, 2, 5)
            nb = norms(b, s, q, triangle=tri)
            naa = norms(a, s + 3, q, triangle=tri)
            ab = convolve(a, b)
            nab = norms(ab, s, q, triangle=tri)
            assert le(nab["s_alpha"], naa["s_alpha"] * nb["s_alpha"])
            nast = norms(involution(a), s, q, triangle=tri)
            assert le(nast["s_alpha"], naa["s_alpha"])
            assert le(nab["l1_alpha"],
                      norms(a, 0, q, triangle=tri)["s_alpha"]
                      * nb["l1_alpha"])
            if tri > 1.0:
                nq = norms(a, q, q, triangle=tri)
                assert le(nq["mu_q"], nq["s_alpha"])
                n2q = norms(a, q, 2 * q + 3, triangle=tri)
                cc = lemma_constant(tri, 3, q)
                assert le(nq["s_alpha"], cc * n2q["mu_q"])


def test_support_zero_mu_conventions(odo2, pisot31):
    lamp = renorm_data(pisot31).lam_float
    a_exp = element(pisot31, lamp, 3,
                    {0: constant_function(pisot31, Fraction(3, 2), 0)})
    assert norms(a_exp, 0, 2)["mu_q"] == pytest.approx(1.5, abs=1e-12)
    a_poly = element(odo2, 2, 3,
                     {0: constant_function(odo2, Fraction(3, 2), 0)})
    assert norms(a_poly, 0, 2)["mu_q"] == 0.0


def _jolissaint_holds(f, n, big):
    p = project_support(f, big)
    q = complement_support(f, big)
    total = power(p, n)
    for k in range(n):
        total = add(total, convolve(power(p, k),
                                    convolve(q, power(f, n - 1 - k))))
    return equal_elements(total, power(f, n))


def test_jolissaint_identity_exact(odo2, pisot31):
    r = rng(504)
    lamp = renorm_data(pisot31).lam_float
    for _ in range(8):
        f = rand_element(r, odo2, 2, 3, 3, 2, 5)
        for n in (1, 2, 3):
            for big in (1, 4):
                assert _jolissaint_holds(f, n, big)
    for _ in range(4):
        f = rand_element(r, pisot31, lamp, 3, 1, 1, 3)
        for n in (1, 2):
            for big in (1, 4):
                assert _jolissaint_holds(f, n, big)


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
    assert equal_elements(exact.element, u)


def test_neumann_rejects_far_from_unit(odo2):
    with pytest.raises(NormTooLargeError):
        neumann_invert(scale(unit(odo2, 2, 3), Fraction(1, 4)))


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


def test_level_cap_overflow(odo2):
    r = rng(505)
    a = element(odo2, 2, 3, {0: rand_function(r, odo2, 2)})
    with pytest.raises(LevelOverflowError):
        convolve(a, a, level_cap=1)


def test_tracial_identity_exact(odo2, pisot31):
    r = rng(506)
    lamp = renorm_data(pisot31).lam_float
    for d, lam in ((odo2, 2), (pisot31, lamp)):
        tower = limit_rank(d, renorm_data(d))
        for _ in range(12):
            a = rand_element(r, d, lam, 3, 2, 2, 4)
            b = rand_element(r, d, lam, 3, 2, 2, 4)
            ta = trace(convolve(a, b), tower)
            tb = trace(convolve(b, a), tower)
            assert len(ta) == len(tb)
            for da, db in zip(ta, tb):
                assert da.numerator == db.numerator


def test_trace_refuses_a_level_below_the_evaluation_level(odo2):
    # at_level only guards the evaluation level; it does not move the trace
    r = rng(508)
    tower = limit_rank(odo2, renorm_data(odo2))
    a = rand_element(r, odo2, 2, 3, 2, 2, 4)
    h = a.coeff(0)
    assert trace(a, tower, at_level=h.level + 3) == trace(a, tower)
    with pytest.raises(InsufficientStabilizationError):
        trace(a, tower, at_level=h.level - 1)


def test_trace_positive_on_squares(odo2):
    r = rng(507)
    tower = limit_rank(odo2, renorm_data(odo2))
    for _ in range(10):
        a = rand_element(r, odo2, 2, 3, 2, 2, 4)
        aa = convolve(involution(a), a)
        assert trace(aa, tower)[0].value >= -1e-15


def test_trace_of_unit(odo2):
    tower = limit_rank(odo2, renorm_data(odo2))
    tv = trace(unit(odo2, 2, 3), tower)
    assert [(dv.index, dv.value) for dv in tv] == [(1, 1.0)]
    assert not tv[0].exact_zero
