"""Invariant measures, Perron data, and the tower heights."""

import math
from fractions import Fraction

import pytest

from test_cohomology import _dump_diagrams
from test_step import _prefix_draws, path_range

from adic import solenoid
from adic.catalog import BUILTIN_NAMES, builtin_diagram
from adic.diagrams import enumerate_paths
from adic.errors import PreconditionError
from adic.measures import renorm_data, xi_vector
from adic.scalars import FieldElement, identity, mat_mul, mat_vec, sqrt_field


def cocycle_product(diagram, n):
    """A_n ... A_1 over exact integers."""
    prod = identity(diagram.num_vertices(0))
    for k in range(1, n + 1):
        prod = mat_mul(diagram.matrix(k), prod)
    return prod


def test_odo2_exact_doubling(odo2):
    rd = renorm_data(odo2)
    assert float(rd.lambda_mu) == 2.0
    assert rd.roof == (1,) and rd.tower_heights(5) == (32,)
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
    # A l = lambda l checked by direct matrix action, in floats
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
    # vertex of V_0, and A_(0..L) carries it exactly to an eigenvector of
    # the repeating matrix A; on 42 of the 53 draws with Perron data
    # A_(0..j) does not fix it, and reading it refuses
    checked = refused = 0
    for d in _prefix_draws(11, 60):
        try:
            rd = renorm_data(d)
        except PreconditionError:  # the one-edge loop: Perron root 1
            continue
        try:
            roof = rd.roof
        except PreconditionError:
            refused += 1
            continue
        assert len(roof) == d.num_vertices(0), d
        top = mat_vec(cocycle_product(d, len(d.levels)), roof)
        assert mat_vec(d.matrix(len(d.levels)), top) == \
            [rd.lambda_mu * x for x in top], d
        checked += 1
    assert (checked, refused) == (11, 42)


def _rational_columns(xs):
    """The Fraction coordinates of exact scalars over the basis 1, theta,
    ... of their field, as the columns of one rational block: xs lies in
    the Q(lam)-span of a rational matrix's columns iff each column does."""
    n = max(len(x.c) if isinstance(x, FieldElement) else 1 for x in xs)
    return [list(x.c) + [0] * (n - len(x.c)) if isinstance(x, FieldElement)
            else [x] + [0] * (n - 1) for x in xs]


def _oracle_diagrams():
    out = [builtin_diagram(name) for name in BUILTIN_NAMES]
    out += _dump_diagrams()
    for seed in (11, 41, 7, 99, 1):
        out += _prefix_draws(seed, 60)
    return out


def test_tower_heights_follow_the_one_rule():
    # j is the last level whose matrix is not the repeating one.  A level
    # k < j refuses exactly where sympy finds A_(k..j) = A_j ... A_(k+1)
    # not injective or h_j outside its columns; every level that reads
    # carries to the next by its matrix, has xi_k . h_k = 1, and from j on
    # lam^-k h_k is one vector, so every complex there builds, with one set
    # of lengths
    sympy = pytest.importorskip("sympy")
    accepted = refused = 0
    for d in _oracle_diagrams():
        try:
            rd = renorm_data(d)
        except PreconditionError:  # the one-edge loop: Perron root 1
            continue
        accepted += 1
        L, j = len(d.levels), len(rd.heights) - 1
        assert all(d.matrix(k) == d.matrix(L) for k in range(j + 1, L + 1))
        assert j == 0 or d.matrix(j) != d.matrix(L)
        top = rd.tower_heights(j)
        cols = sympy.Matrix(_rational_columns(top)).applyfunc(sympy.Rational)
        heights = {}
        for k in range(j + 3):
            if k < j:
                prod = sympy.Matrix(d.matrix(j))
                for i in range(j - 1, k, -1):
                    prod = prod * sympy.Matrix(d.matrix(i))
                rank = prod.rank()
                if rank < prod.cols or prod.row_join(cols).rank() > rank:
                    with pytest.raises(PreconditionError,
                                       match="level-%d .* level %d" % (k, j)):
                        rd.tower_heights(k)
                    refused += 1
                    continue
            h = heights[k] = rd.tower_heights(k)
            assert len(h) == d.num_vertices(k)
            assert sum(x * y for x, y in zip(xi_vector(d, k), h)) == 1
            if k - 1 in heights:
                assert mat_vec(d.matrix(k), heights[k - 1]) == list(h)
        lengths = tuple(rd.lam_inverse ** j * x for x in top)
        for k in range(j, j + 3):
            assert tuple(rd.lam_inverse ** k * x for x in heights[k]) == \
                lengths
            assert solenoid.build_complex(d, rd, k).lengths == lengths
    assert (accepted, refused) == (280, 298)


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
