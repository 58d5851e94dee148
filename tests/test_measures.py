"""Invariant measures, Perron data, and renormalization certificates."""

import math
from fractions import Fraction

import pytest

from test_step import _prefix_draws

from adic import solenoid
from adic.diagrams import enumerate_paths, path_range
from adic.errors import PreconditionError
from adic.measures import cocycle_product, renorm_data, xi_vector
from adic.scalars import FieldElement, mat_vec, sqrt_field


def test_odo2_exact_doubling(odo2):
    rd = renorm_data(odo2)
    assert rd.certificates["stationary_exact"]
    assert float(rd.lambda_mu) == 2.0
    assert [float(x) for x in rd.roof] == [1.0]
    assert float(xi_vector(odo2, 5)[0]) == 2.0 ** -5


def test_one_perron_record_per_diagram(fib, pisot31):
    # renorm_data keeps one record per diagram, and xi_vector reads its xi
    # vectors, so the complexes keyed by the record's identity are built
    # once across reads: a second read adds no complexes entry
    for d in (fib, pisot31):
        assert renorm_data(d) is renorm_data(d)
        assert all(xi_vector(d, k) == list(renorm_data(d).xis[k])
                   for k in range(len(d.levels) + 1))
    fib.tables.clear()
    got = solenoid.cached_complexes(fib, renorm_data(fib), 3)
    assert solenoid.cached_complexes(fib, renorm_data(fib), 3) is got
    assert list(fib.tables["cached_complexes"]) == [(renorm_data(fib), 3)]


def test_quadratic_field_meets_floats():
    # a float operand is refused, arithmetic and ordering with TypeError,
    # and == is False; float() reads the element as a float first
    phi = sqrt_field(5)(Fraction(1, 2), Fraction(1, 2))
    golden = (1 + math.sqrt(5)) / 2
    for op in (lambda: phi * 2.0, lambda: 1.0 - phi, lambda: phi / 4.0,
               lambda: 1.0 / phi, lambda: 0.5 + phi, lambda: phi < 2.0,
               lambda: 1.5 < phi):
        with pytest.raises(TypeError):
            op()
    assert not phi == golden and phi != golden
    assert float(phi) == golden and 1.5 < float(phi) < 2.0
    # exact operands stay in the field
    assert phi * phi - phi == 1


def test_fib_golden_ratio(fib):
    rd = renorm_data(fib)
    golden = (1 + math.sqrt(5)) / 2
    assert abs(rd.lam_float - golden) < 1e-9
    phi = rd.lambda_mu
    assert isinstance(phi, FieldElement) and phi * phi == phi + 1


def test_pisot31_perron_root(pisot31):
    # characteristic polynomial of [[3,1],[1,3]] is (x-4)(x-2)
    rd = renorm_data(pisot31)
    assert abs(rd.lam_float - 4.0) < 1e-9


def test_roof_eigen_identity(odo2, fib, pisot31):
    # A l = lambda l checked by direct matrix action (independent of the
    # certificate dictionary)
    for d in (odo2, fib, pisot31):
        rd = renorm_data(d)
        A = cocycle_product(d, 1)
        lhs = [sum(float(A[i][j]) * float(rd.roof[j])
                   for j in range(len(rd.roof)))
               for i in range(len(A))]
        rhs = [rd.lam_float * float(x) for x in rd.roof]
        assert max(abs(a - b) for a, b in zip(lhs, rhs)) <= 1e-12


def test_roof_is_a_vector_over_the_first_vertices():
    # behind prefix levels, square or not, the roof has one entry per
    # vertex of V_0, and A_(0..L) carries it to an eigenvector of the
    # repeating matrix A wherever the certificate says it is exact
    checked = 0
    for d in _prefix_draws(11, 60):
        try:
            rd = renorm_data(d)
        except PreconditionError:  # the one-edge loop: Perron root 1
            continue
        assert len(rd.roof) == d.num_vertices(0), d
        if rd.certificates["stationary_exact"]:
            top = mat_vec(cocycle_product(d, len(d.levels)), rd.roof)
            assert mat_vec(d.matrix(len(d.levels)), top) == \
                [rd.lambda_mu * x for x in top], d
            checked += 1
    assert checked > 20


def test_xi_compatibility(odo2, fib, pisot31):
    # xi_k(v) = sum over level-(k+1) edges out of v of xi_{k+1}(range)
    for d in (odo2, fib, pisot31):
        for k in range(5):
            lo = xi_vector(d, k)
            hi = xi_vector(d, k + 1)
            ld = d.level(k + 1)
            for v in range(len(lo)):
                total = 0
                for e in range(len(ld.edges)):
                    if ld.source(e) == v:
                        total = total + hi[ld.range(e)]
                assert abs(float(total) - float(lo[v])) < 1e-14


def test_total_mass_one(odo2, fib, pisot31):
    for d in (odo2, fib, pisot31):
        for k in (1, 3, 5):
            xs = xi_vector(d, k)
            total = sum(float(xs[path_range(d, p)])
                        for p in enumerate_paths(d, k))
            assert abs(total - 1.0) < 1e-12
