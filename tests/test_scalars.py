"""The Perron field: exact Perron data on censuses of random matrices, and
the arithmetic of its elements across a split of the field polynomial."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from adic.errors import PreconditionError
from adic.martingale import CylinderFunction, float_values, integer_parts
from adic.scalars import (FieldElement, NumberField, _char_adj, eliminate,
                          mat_vec, perron_data, solve_linear, sqrt_field)


def _pivots(A):
    """The pivot count of A, its rank: `eliminate` on a copy."""
    return len(eliminate([list(row) for row in A], len(A[0]) if A else 0))


def _is_primitive(m):
    """Wielandt's test: the power (n - 1)^2 + 1 of m is positive."""
    power = m
    for _ in range((len(m) - 1) ** 2):
        power = [[sum(a * b for a, b in zip(row, col)) for col in zip(*m)]
                 for row in power]
    return all(x > 0 for row in power for x in row)


def _primitive(n, draws, seed):
    """The primitive n x n matrices among `draws` random ones with entries
    0..2."""
    r = random.Random(seed)
    draws = ([[r.randint(0, 2) for _ in range(n)] for _ in range(n)]
             for _ in range(draws))
    return [m for m in draws if _is_primitive(m)]


def _check_exact(m):
    """perron_data(m) holds a root of the characteristic polynomial and
    exact positive eigenvectors on both sides; its float is the spectral
    radius."""
    pd = perron_data(m)
    lam = pd.lam
    assert isinstance(lam, (Fraction, FieldElement))
    assert sum(c * lam ** k for k, c in enumerate(_char_adj(m)[0])) == 0
    assert mat_vec(m, pd.right) == [lam * x for x in pd.right]
    assert mat_vec([list(c) for c in zip(*m)], pd.left) == \
        [lam * x for x in pd.left]
    assert all(x > 0 for x in pd.right + pd.left)
    rho = max(abs(z) for z in np.linalg.eigvals(np.array(m, dtype=float)))
    assert math.isclose(float(lam), rho, rel_tol=1e-12)
    return lam


def test_perron_data_is_exact_on_the_3x3_census():
    # a census of 300 draws, 161 primitive, of which 21 have an integer
    # Perron root, 39 a quadratic and 101 a cubic one
    kinds = {}
    for m in _primitive(3, 300, 0):
        lam = _check_exact(m)
        kind = "Q" if isinstance(lam, Fraction) else \
            "sqrt" if lam.field.n == 2 else lam.field.n
        kinds[kind] = kinds.get(kind, 0) + 1
    assert kinds == {"Q": 21, "sqrt": 39, 3: 101}


def test_perron_field_is_the_minimal_polynomial_on_a_4x4_census():
    # sympy's factorization of the characteristic polynomial is the
    # oracle: lambda is a root of its irreducible factor, and a field of
    # degree 4 that is reducible splits down to that factor
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    degrees = set()
    for m in _primitive(4, 60, 4):
        lam = _check_exact(m)
        cp = sympy.Matrix(m).charpoly(x).as_expr()
        minimal = [f for f, _ in sympy.factor_list(cp)[1]
                   if abs(f.subs(x, float(lam))) < 1e-6]
        assert len(minimal) == 1
        coeffs = [int(c) for c in
                  reversed(sympy.Poly(minimal[0], x).all_coeffs())]
        assert sum(c * lam ** k for k, c in enumerate(coeffs)) == 0
        degrees.add(len(coeffs) - 1)
        if isinstance(lam, FieldElement) and lam.field.n > 2:
            assert lam.field.poly == tuple(coeffs)
    assert degrees == {1, 2, 3, 4}


_REFUSALS = ("the repeating matrix is not primitive",
             "the Perron root is 1: the path space is finite")


@example([[0]])
@example([[1]])
@example([[0, 2], [2, 0]])
@example([[2, 0], [0, 2]])
@example([[2, 1], [0, 2]])
@example([[1, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 1], [0, 0, 1, 0]])
@example([[0, 1, 0], [0, 0, 1], [2, 0, 0]])
@example([[1, 1, 0], [0, 0, 1], [3, 1, 1]])
@given(st.integers(1, 4).flatmap(lambda n: st.lists(
    st.lists(st.integers(0, 3), min_size=n, max_size=n),
    min_size=n, max_size=n)))
def test_perron_data_accepts_exactly_the_primitive_matrices(m):
    # reducible and periodic matrices are drawn too; an accepted one has
    # the eigenvectors of the reference route: A - lambda I has rank n - 1,
    # so its kernel is one line, and the vector lies on it and ends in 1
    rho = max(abs(z) for z in np.linalg.eigvals(np.array(m, dtype=float)))
    if not _is_primitive(m) or math.isclose(rho, 1):
        with pytest.raises(PreconditionError) as refused:
            perron_data(m)
        assert str(refused.value) in _REFUSALS
        return
    pd = perron_data(m)
    lam = pd.lam
    assert sum(c * lam ** k for k, c in enumerate(_char_adj(m)[0])) == 0
    for a, got in ((m, pd.right), (list(zip(*m)), pd.left)):
        shifted = [[x - (lam if i == j else 0) for j, x in enumerate(row)]
                   for i, row in enumerate(a)]
        assert _pivots(shifted) == len(m) - 1
        assert mat_vec(shifted, got) == [0] * len(m)
        assert got[-1] == 1 and all(x > 0 for x in got)


def _sympy_rank(A, cols):
    sympy = pytest.importorskip("sympy")
    return sympy.Matrix(len(A), cols, [sympy.Rational(x.numerator,
                                                      x.denominator)
                                       for row in A for x in row]).rank()


_ENTRIES = st.one_of(st.integers(-3, 3),
                     st.fractions(-3, 3, max_denominator=4))


@given(st.integers(0, 5), st.integers(0, 3), st.integers(0, 5),
       st.data())
def test_rank_matches_sympy(rows, inner, cols, data):
    # A = B C has rank at most `inner`: wide, tall, zero (inner = 0) and
    # empty (no rows or no columns) matrices of Fractions, and the integer
    # matrices of their entries' integer parts
    B, C = (data.draw(st.lists(st.lists(_ENTRIES, min_size=m, max_size=m),
                               min_size=k, max_size=k))
            for k, m in ((rows, inner), (inner, cols)))
    A = [[sum((b * c for b, c in zip(row, col)), Fraction(0))
          for col in zip(*C)] if C else [Fraction(0)] * cols for row in B]
    for entries in (A, [[int(x) for x in row] for row in A]):
        assert _pivots(entries) == _sympy_rank(entries, cols)


@given(st.integers(1, 4), st.integers(0, 3), st.integers(1, 4),
       st.sampled_from(["int", "fraction", "sqrt 5"]), st.data())
def test_solve_linear_matches_sympy(rows, inner, cols, field, data):
    # A = B C of rank at most `inner` and of any shape, so singular, wide
    # and tall systems, with an integer, Fraction or Q(sqrt 5) right-hand
    # side b, consistent (b = A x0) or, where A has rank < rows, maybe
    # not.  A is rational, so A x = b0 + b1 sqrt 5 has exactly one
    # solution when sympy finds rank A = cols = rank (A | b0 | b1); then
    # solve_linear returns it, else None
    B, C = (data.draw(st.lists(st.lists(
        _ENTRIES, min_size=m, max_size=m), min_size=k, max_size=k))
        for k, m in ((rows, inner), (inner, cols)))
    A = [[sum((x * y for x, y in zip(row, col)), Fraction(0))
          for col in zip(*C)] if C else [Fraction(0)] * cols for row in B]
    vals = data.draw(st.lists(_ENTRIES, min_size=2 * (rows + cols),
                              max_size=2 * (rows + cols)))
    if field == "int":
        A = [[int(x) for x in row] for row in A]
        vals = [int(x) for x in vals]
    elif field == "sqrt 5":
        vals = [FIELDS["sqrt 5"](x, y)
                for x, y in zip(vals[::2], vals[1::2])]
    b, x0 = vals[:rows], vals[rows:rows + cols]
    if data.draw(st.booleans()):
        b = mat_vec(A, x0)
    x = solve_linear(A, b)
    parts = [[y.c[k] if isinstance(y, FieldElement) else (y, 0)[k]
              for y in b] for k in (0, 1)]
    augmented = [row + [p, q] for row, p, q in zip(A, *parts)]
    assert (x is not None) == \
        (_sympy_rank(A, cols) == cols == _sympy_rank(augmented, cols + 2))
    if x is not None:
        assert len(x) == cols and mat_vec(A, x) == b


def test_rank_over_sqrt5():
    phi = sqrt_field(5)(Fraction(1, 2), Fraction(1, 2))
    assert _pivots([[phi, 1], [phi + 1, phi]]) == 1  # phi^2 = phi + 1
    assert _pivots([[phi, 1], [1, phi]]) == 2
    assert _pivots([[1, phi, phi ** 2], [phi, phi ** 2, phi ** 3],
                    [1, 1, 1], [2, phi + 1, phi + 2]]) == 2


def test_equality_and_hash_agree_across_a_split():
    # p = (x^2 - 3x - 3)(x^2 + x + 2) and theta = (3 + sqrt 21)/2 in (3, 4]
    f = NumberField((-6, -9, -4, -2, 1), Fraction(3), Fraction(4))
    t = f(0, 1)
    other = t * t + t + 2            # 4 theta + 5 once the field splits
    before = (hash(other), float(other))
    zero = t * t - 3 * t - 3         # 0, with nonzero coefficients
    third = zero + Fraction(1, 3)
    assert f.n == 4
    assert hash(third) == hash(Fraction(1, 3))  # this hash splits p
    assert f.poly == (-3, -3, 1)
    assert third == Fraction(1, 3) and Fraction(1, 3) == third
    assert zero == 0 and not zero and hash(zero) == hash(0)
    assert other == 4 * t + 5 and other != 4 * t + 6
    assert (hash(other), float(other)) == before == \
        (hash(4 * t + 5), float(4 * t + 5))
    assert other * (1 / other) == 1 and other > 20 > -other
    with pytest.raises(ZeroDivisionError):
        1 / zero


def test_quadratic_field_keeps_its_values():
    # a + b sqrt(d): floats from the coefficients, and the hash of a
    # Fraction when b = 0
    phi = sqrt_field(5)(Fraction(1, 2), Fraction(1, 2))
    assert repr(phi) == "Q(sqrt 5)[1/2, 1/2]"
    assert float(phi) == 0.5 + 0.5 * math.sqrt(5)
    assert phi ** 2 == phi + 1 and (phi ** -1).c == (Fraction(-1, 2),
                                                     Fraction(1, 2))
    assert hash(phi * 0 + 3) == hash(3) and phi * 0 + 3 == 3
    assert sqrt_field(5) is phi.field
    with pytest.raises(TypeError, match="mixed fields"):
        phi + sqrt_field(2)(0, 1)


@pytest.mark.parametrize("name, below", [
    ("sqrt 2", 1), ("sqrt 5", 2), ("cubic", 2)])
def test_floats_of_one_tail_are_the_floats_of_each_value(name, below):
    # values r_i + gamma of one irrational gamma, the shape of a solved g,
    # and a few r_i - gamma: each float that `floats` reads for the column
    # is float() of that value alone, read on a fresh field whose first
    # interval (below, below + 1] is too wide for any of them, so both
    # refine
    poly, r = FIELDS[name].poly, random.Random(below + len(name))

    def fresh():
        return NumberField(poly, Fraction(below), Fraction(below + 1))

    gamma = FIELDS[name](*(Fraction(r.randint(-99, 99), r.randint(1, 9))
                           for _ in poly[1:]))
    gamma += FIELDS[name](0, Fraction(1, 3))  # irrational
    vals = [Fraction(r.randint(-10 ** 6, 10 ** 6), r.randint(1, 10 ** 4))
            + (-gamma if i % 7 == 3 else gamma) for i in range(40)]
    q, cols, _ = integer_parts(vals)
    field = fresh()
    got = field.floats(q, cols)
    assert field.hi - field.lo < 1
    assert got == [float(FieldElement(v.c, fresh())) for v in vals]


def sympy_value(x):
    """The value of a Fraction or field element to 50 digits, in sympy;
    theta is the largest real root of the field polynomial."""
    sympy = pytest.importorskip("sympy")
    if not isinstance(x, FieldElement):
        return sympy.Rational(x.numerator, x.denominator)
    t = sympy.symbols("t")
    theta = max(sympy.Poly(list(reversed(x.field.poly)), t).real_roots())
    return sympy.N(sum(sympy.Rational(c.numerator, c.denominator) * theta ** k
                       for k, c in enumerate(x.c)), 50)


FIELDS = {"sqrt %d" % d: sqrt_field(d) for d in (2, 3, 5, 21)}
FIELDS["cubic"] = perron_data([[1, 1, 0], [0, 0, 1], [3, 1, 1]]).lam.field


def _split_quartic():
    """Q[x]/(p), p = (x^2 - 3x - 3)(x^2 + x + 2), theta = (3 + sqrt 21)/2:
    a fresh field each call, since an inverse may split it."""
    return NumberField((-6, -9, -4, -2, 1), Fraction(3), Fraction(4))


# each field with the minimal polynomial of its theta
_INVERSE_FIELDS = {"sqrt 5": (lambda: FIELDS["sqrt 5"], (-5, 0, 1)),
                   "cubic": (lambda: FIELDS["cubic"], FIELDS["cubic"].poly),
                   "quartic": (_split_quartic, (-3, -3, 1))}


@example("quartic", [Fraction(2), Fraction(1), Fraction(1), Fraction(0)], 1)
@example("quartic", [Fraction(-3), Fraction(-3), Fraction(1), Fraction(0)],
         2)
@given(st.sampled_from(sorted(_INVERSE_FIELDS)),
       st.lists(st.fractions(-50, 50, max_denominator=20), min_size=4,
                max_size=4), st.integers(1, 4))
def test_field_inverse_matches_sympy(name, coeffs, k):
    # for c != 0 in Q(sqrt 5), the cubic field of [[1, 1, 0], [0, 0, 1],
    # [3, 1, 1]] and the quartic that splits when c is a zero divisor:
    # c (1/c) = 1, and c^-k times c^k is 1 modulo theta's minimal
    # polynomial in sympy's arithmetic; 1/0 raises.  The inverse is taken
    # first, since a zero test would split the quartic before it
    sympy = pytest.importorskip("sympy")
    make, minimal = _INVERSE_FIELDS[name]
    field = make()
    c = field(*coeffs[:field.n])
    try:
        inverse = 1 / c
    except ZeroDivisionError:
        assert c == 0
        return
    assert c * inverse == 1
    t = sympy.symbols("t")

    def poly(coeffs):
        return sympy.Poly([sympy.Rational(x.numerator, x.denominator)
                           for x in reversed(coeffs)], t)

    got = poly(field.norm((c ** -k).c)) * poly(c.c) ** k - 1
    assert got.rem(poly(list(map(Fraction, minimal)))).is_zero


def test_inverse_of_a_zero_divisor_splits_the_field():
    # theta^2 + theta + 2 divides p, so it has no inverse mod p; the
    # inverse splits p down to x^2 - 3x - 3, where it is 4 theta + 5
    f = _split_quartic()
    t = f(0, 1)
    inv = 1 / (t * t + t + 2)
    assert f.poly == (-3, -3, 1)
    assert inv == 1 / (4 * t + 5)
    assert f.norm(inv.c) == (Fraction(17, 37), Fraction(-4, 37))
    with pytest.raises(ZeroDivisionError):
        1 / (t * 0)


def _near_cancelling(test):
    """F_(k+1) - F_k phi = (-1/phi)^k, phi the golden mean, for k <= 60:
    coefficients near phi^k with a value near phi^-k."""
    fib = [0, 1]
    while len(fib) < 62:
        fib.append(fib[-1] + fib[-2])
    for k in range(1, 61):
        test = example("sqrt 5", [Fraction(2 * fib[k + 1] - fib[k], 2),
                                  Fraction(-fib[k], 2)])(test)
    return test


@_near_cancelling
@given(st.sampled_from(sorted(FIELDS)),
       st.lists(st.fractions(max_denominator=10 ** 6).filter(
           lambda q: abs(q.numerator) < 10 ** 12), min_size=1, max_size=3))
def test_field_floats_and_signs_are_correctly_rounded(name, coeffs):
    # float(x), float_values and sign against a 50-digit oracle: the float
    # is the correctly rounded value, however much the coefficients cancel
    x = FIELDS[name](*coeffs)
    want = sympy_value(x)
    assert float(x) == float(want)
    vals = [x, -x, x + 1]
    parts = integer_parts(vals)
    assert float_values(*parts) == \
        [float(want), float(-want), float(want + 1)]
    assert (x > 0, x == 0, x < 0) == (want > 0, want == 0, want < 0)
    # the two stored forms of a function round-trip exactly, and the float
    # columns read the floats of the values bit for bit
    back = CylinderFunction.of_parts(0, *parts)
    assert back.values == vals and back.parts[2] is x.field
    assert all(type(v) is FieldElement for v in back.values)
    assert list(map(float.hex, float_values(*parts))) == \
        [float(v).hex() for v in vals]
    floats = list(map(float, vals))
    fparts = integer_parts(floats)
    assert fparts[2] is None
    exact = CylinderFunction.of_parts(0, *fparts).values
    assert exact == list(map(Fraction, floats))
    assert all(type(v) is Fraction for v in exact)
    # a field with one column is rational
    one = CylinderFunction.of_parts(0, parts[0], parts[1][:1], x.field)
    assert one.parts[2] is None
    assert one.values == [Fraction(c, parts[0]) for c in parts[1][0]]
