"""Exact scalars: Fractions and the Perron field Q(lambda).

A NumberField is Q[x]/(p) for a monic square-free integer polynomial p
without rational roots, embedded by one real root theta that a rational
interval isolates; a FieldElement holds the Fraction coefficients of
1, theta, ..., theta^(n-1).  Signs refine the interval until the element's
range over it excludes 0, and a float is the value both ends of that range
round to; both are read off integer bounds, so the float is correctly
rounded.  Q(sqrt d), d square-free, is the field of x^2 - d with
theta = sqrt d.  p of degree 3 or less is irreducible; a larger
p may not be, and a zero test or an inverse that meets a factor of p splits
it, keeping the factor with theta as a root: dynamic evaluation, "D5"
(Della Dora, Dicrescenzo and Duval, EUROCAL 1985).  Fraction and int
operands mix freely; a float operand is refused (TypeError, and == is
False).  On top of that: dense linear algebra over any of these fields,
whose one solve, field inverses included, reads one division-free
Gauss-Jordan elimination (`eliminate`), and the Perron data of a
nonnegative integer matrix, read in integers off its characteristic
polynomial and adjugate.
"""

from __future__ import annotations

import math
import operator
import weakref
from collections import namedtuple
from fractions import Fraction
from itertools import accumulate

from .errors import PreconditionError

_ZERO = Fraction(0)


def square_free(n):
    """n = s*s*d with d square-free; returns (s, d). n must be positive."""
    s = max(k for k in range(1, math.isqrt(n) + 1) if n % (k * k) == 0)
    return s, n // (s * s)


# ---------------------------------------------------------------------------
# polynomials over Q: coefficient lists, constant term first, no trailing 0

def _trim(p):
    while p and not p[-1]:
        p.pop()
    return p


def _peval(p, m, d=1):
    """p(m/d) times d^n, n the degree, so of the sign of p(m/d) for d > 0:
    in integers when p has integer coefficients."""
    n = len(p) - 1
    return sum(c * m ** k * d ** (n - k) for k, c in enumerate(p))


def _pdivmod(a, b):
    """Quotient and remainder of a by b over Q."""
    a = [Fraction(x) for x in a]
    quot = [_ZERO] * max(len(a) - len(b) + 1, 0)
    for k in range(len(quot) - 1, -1, -1):
        quot[k] = a[k + len(b) - 1] / b[-1]
        for i, y in enumerate(b):
            a[k + i] -= quot[k] * y
    return _trim(quot), _trim(a[:len(b) - 1])


def _pmul(a, b):
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    return prod


def _gcd(a, p):
    """The monic gcd of a and p over Q."""
    r0, r1 = list(p), _trim(list(a))
    while r1:
        r0, r1 = r1, _pdivmod(r0, r1)[1]
    return [x / r0[-1] for x in r0]


def _roots_in(p, lo, hi):
    """The number of distinct real roots of p in (lo, hi], neither a root,
    by the sign changes of its Sturm sequence."""
    chain = [list(p), _trim([k * c for k, c in enumerate(p)][1:])]
    while len(chain[-1]) > 1 and _pdivmod(chain[-2], chain[-1])[1]:
        chain.append([-x for x in _pdivmod(chain[-2], chain[-1])[1]])

    def changes(x):
        signs = [v > 0 for v in (_peval(q, x.numerator, x.denominator)
                                 for q in chain) if v]
        return sum(a != b for a, b in zip(signs, signs[1:]))
    return changes(lo) - changes(hi)


# ---------------------------------------------------------------------------
# the field

# Fields by their defining data, alive while an element refers to them.
_FIELDS = weakref.WeakValueDictionary()


class NumberField:
    """Q[x]/(poly), embedded by the one root theta of poly in (lo, hi],
    lo >= 0.  powers[k] holds the integer coefficients of theta^k for
    k < 2n - 1."""

    __slots__ = ("poly", "n", "lo", "hi", "powers", "_ends", "__weakref__")

    def __init__(self, poly, lo, hi):
        self.lo, self.hi = lo, hi
        self._set(poly)

    def _set(self, poly):
        self.poly, self.n = tuple(map(int, poly)), len(poly) - 1
        self.powers = tuple(tuple(map(int, self.reduce((0,) * k + (1,))))
                            for k in range(2 * self.n - 1))
        self._ends = None

    def __call__(self, *coeffs):
        """The element sum of coeffs[k] * theta^k."""
        return FieldElement(self.reduce(tuple(map(Fraction, coeffs))), self)

    def __repr__(self):
        if self.n == 2 and not self.poly[1]:
            return "Q(sqrt %d)" % -self.poly[0]
        terms = ["%s%s" % ({1: "", -1: "-"}.get(c, c) if k else c,
                           "" if not k else "x" if k == 1 else "x^%d" % k)
                 for k, c in enumerate(self.poly) if c]
        return "Q[x]/(%s)" % " + ".join(reversed(terms)).replace("+ -", "- ")

    def reduce(self, c):
        """Coefficients c of any length reduced mod poly to length n."""
        c, p, n = list(c), self.poly, self.n
        for k in range(len(c) - 1, n - 1, -1):
            for i in range(n):
                c[k - n + i] -= c[k] * p[i]
        return tuple(c[:n]) + (_ZERO,) * (n - len(c))

    def norm(self, c):
        """c reduced, when a split has left it longer than n."""
        return c if len(c) == self.n else self.reduce(c)

    def mul(self, a, b):
        """a * b on integer numerators, one Fraction per coefficient."""
        (a, qa), (b, qb) = map(_numerators, (self.norm(a), self.norm(b)))
        return tuple(Fraction(x, qa * qb) for x in self.reduce(_pmul(a, b)))

    def _split(self, g):
        """Replace poly by its factor g or poly / g, the one with theta."""
        other = _pdivmod(self.poly, g)[0]
        self._set(g if _roots_in(g, self.lo, self.hi) else other)

    def is_zero(self, c):
        # poly of degree <= 3 has no rational root, so it is irreducible
        if any(self.norm(c)) and self.n > 3:
            g = _gcd(self.norm(c), self.poly)
            if len(g) > 1:
                self._split(g)
        return not any(self.norm(c))

    def inverse(self, c):
        """1/c as the solution x of a x = q on the integer numerators
        a = q c: one `solve_linear` on the matrix whose column j is
        a theta^j.  It has none when c is 0 or a zero divisor, whose gcd
        with poly is split off."""
        a, q = _numerators(self.norm(c))
        x = solve_linear(list(zip(*(self.reduce((0,) * j + tuple(a))
                                    for j in range(self.n)))),
                         (q,) + (0,) * (self.n - 1))
        if x is not None:
            return tuple(x)
        if not any(a):
            raise ZeroDivisionError("division by zero in %r" % (self,))
        self._split(_gcd(self.norm(c), self.poly))
        return self.inverse(c)

    def _bounds(self, a):
        """Integers low, high, den with low/den <= sum a_k t^k <= high/den
        over lo <= t <= hi, for integers a_k: with lo = l/D and hi = h/D,
        the terms over den = D^(n-1) come from a table of l^k D^(n-1-k) and
        h^k D^(n-1-k), kept until the interval or the field changes."""
        if self._ends is None:
            n, ((l, h), D) = self.n, _numerators((self.lo, self.hi))
            self._ends = [[e ** k * D ** (n - 1 - k) for k in range(n)]
                          for e in (l, h)] + [D ** (n - 1)]
        los, his, den = self._ends
        low = high = 0
        for x, s, t in zip(a, los, his):
            if x > 0:
                low, high = low + x * s, high + x * t
            elif x:
                low, high = low + x * t, high + x * s
        return low, high, den

    def _refine(self, bits=1):
        """Narrow the interval that isolates theta to 2^-bits of its width
        by bits bisections of integer numerators over a doubling
        denominator, in one loop."""
        (l, h), D = _numerators((self.lo, self.hi))
        up = _peval(self.poly, h, D) > 0
        for _ in range(bits):
            l, h, D = 2 * l, 2 * h, 2 * D
            mid = (l + h) // 2
            if (_peval(self.poly, mid, D) > 0) == up:
                h = mid
            else:
                l = mid
        self.lo, self.hi, self._ends = Fraction(l, D), Fraction(h, D), None

    def sign(self, c):
        if self.is_zero(c):
            return 0
        a, bits = _numerators(self.norm(c))[0], 1
        while True:
            low, high, _ = self._bounds(a)
            if low > 0 or high < 0:
                return 1 if low > 0 else -1
            self._refine(bits)
            bits *= 2

    def rational(self, c):
        """The value of c as a Fraction when it is rational, else None.  A
        multiple q*c with integer coefficients is an algebraic integer, so
        it can only be the one integer its range is refined down to."""
        c = self.norm(c)
        if any(c[1:]) and self.n > 3:
            a, q = _numerators(c)
            low, high, den = self._bounds(a)
            while high - low >= den:
                self._refine((high - low).bit_length() - den.bit_length() + 1)
                low, high, den = self._bounds(a)
            k = Fraction(-(-low // den), q)
            return k if self.is_zero((c[0] - k,) + c[1:]) else None
        return None if any(c[1:]) else Fraction(c[0])

    def floats(self, q, cols):
        """The float nearest each value sum cols[k][i] theta^k / q of
        integer columns: the float both ends of its range round to, integer
        true division rounding correctly.  A field that may still split
        reads rational values first, as one on a rounding midpoint would
        never see its ends agree.  A pass bounds each theta-tail (the
        coefficients 1..n-1) once, and a value adds its rational one."""
        rows = list(zip(*cols))
        out = [None] * len(rows)
        if self.n > 3:
            out = [self.rational(tuple(Fraction(x, q) for x in row))
                   for row in rows]
        rows = [self.norm(row) for row in rows]
        todo = [i for i, x in enumerate(out) if x is None]
        while todo:
            left, bits, tails = [], 1, {}
            for i in todo:
                c, tail = rows[i][0], rows[i][1:]
                low, high, den = tails.get(tail) or tails.setdefault(
                    tail, self._bounds((0,) + tail))
                low, high = low + c * den, high + c * den  # den = D^(n-1)
                out[i] = low / (q * den)
                if out[i] != high / (q * den):
                    left.append(i)
                    # a range within 2^-55 of the value rounds to one
                    # float unless it holds a rounding midpoint
                    bits = max(bits, (high - low).bit_length() + 55 -
                               max(abs(low), abs(high)).bit_length())
            if left:
                self._refine(bits)
            todo = left
        return list(map(float, out))


def _numerators(c):
    """(a, q): integers a_k = c_k * q, q the least common denominator."""
    q = math.lcm(*(x.denominator for x in c))
    return [x.numerator * (q // x.denominator) for x in c], q


def _field(key, make):
    """The live field of key, or a new one from make()."""
    field = _FIELDS.get(key)
    if field is None:
        field = _FIELDS[key] = make()
    return field


def sqrt_field(d):
    """Q(sqrt d) for a square-free integer d > 1: x^2 - d, theta = sqrt d."""
    r = Fraction(math.isqrt(d))
    return _field((-d, 0, 1), lambda: NumberField((-d, 0, 1), r, r + 1))


def _largest_root(poly, lo):
    """The field of the largest real root of poly, a monic square-free
    integer polynomial of degree >= 3 without rational roots, when that
    root exceeds lo >= 0; else None.  Its interval is cut from (lo, B],
    B a Cauchy bound, by bisection with Sturm counts."""
    lo, hi = Fraction(lo), Fraction(1 + max(map(abs, poly)))
    while _roots_in(poly, lo, hi) > 1:
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if _roots_in(poly, mid, hi) else (lo, mid)
    if not _roots_in(poly, lo, hi):
        return None
    return _field(poly, lambda: NumberField(poly, lo, hi))


def _binary(name, exact):
    """The FieldElement operator name: exact(field, a, b) on coefficients
    of two elements of one field, an int or Fraction operand read as an
    element; any other operand, a float too, gives NotImplemented."""
    def op(self, o):
        f = self.field
        if type(o) is not FieldElement:
            if not isinstance(o, (int, Fraction)):
                return NotImplemented
            o = f(o)
        elif o.field is not f:
            raise TypeError("mixed fields %r and %r" % (f, o.field))
        return exact(f, self.c, o.c)
    op.__name__ = name
    return op


def _sub(f, a, b):
    return tuple(map(operator.sub, f.norm(a), f.norm(b)))


class FieldElement:
    """Element sum c[k] * theta^k of a NumberField, with Fraction c."""

    __slots__ = ("c", "field")

    def __init__(self, c, field):
        self.c, self.field = c, field

    __add__ = __radd__ = _binary("__add__", lambda f, a, b: FieldElement(
        tuple(map(operator.add, f.norm(a), f.norm(b))), f))
    __sub__ = _binary("__sub__", lambda f, a, b: FieldElement(
        _sub(f, a, b), f))
    __rsub__ = _binary("__rsub__", lambda f, a, b: FieldElement(
        _sub(f, b, a), f))
    __mul__ = __rmul__ = _binary(
        "__mul__", lambda f, a, b: FieldElement(f.mul(a, b), f))
    __truediv__ = _binary("__truediv__", lambda f, a, b: FieldElement(
        f.mul(a, f.inverse(b)), f))
    __rtruediv__ = _binary("__rtruediv__", lambda f, a, b: FieldElement(
        f.mul(b, f.inverse(a)), f))
    __eq__ = _binary("__eq__", lambda f, a, b: f.norm(a) == f.norm(b)
                     or f.n > 3 and f.is_zero(_sub(f, a, b)))
    __lt__ = _binary("__lt__", lambda f, a, b: f.sign(_sub(f, a, b)) < 0)
    __le__ = _binary("__le__", lambda f, a, b: f.sign(_sub(f, a, b)) <= 0)
    __gt__ = _binary("__gt__", lambda f, a, b: f.sign(_sub(f, a, b)) > 0)
    __ge__ = _binary("__ge__", lambda f, a, b: f.sign(_sub(f, a, b)) >= 0)

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        f, out = self.field, self.field(1)
        base = self if k >= 0 else FieldElement(f.inverse(self.c), f)
        for bit in bin(abs(k))[:1:-1]:
            if bit == "1":
                out = out * base
            base = base * base
        return out

    def __neg__(self):
        return FieldElement(tuple(-x for x in self.c), self.field)

    def __abs__(self):
        return -self if self.field.sign(self.c) < 0 else self

    def __bool__(self):
        return not self.field.is_zero(self.c)

    def __hash__(self):
        # as the Fraction of a rational value, equal to it; 0 as 0.0
        return hash(self.field.rational(self.c) or float(self))

    def __float__(self):
        a, q = _numerators(self.c)
        return self.field.floats(q, [[x] for x in a])[0]

    def __repr__(self):
        return "%r[%s]" % (self.field, ", ".join(
            map(str, self.field.norm(self.c))))


# ---------------------------------------------------------------------------
# dense linear algebra over an exact field (Fraction and elements mix with int)

def mat_mul(A, B):
    n, m, p = len(A), len(B), len(B[0])
    assert len(A[0]) == m
    return [[sum(A[i][k] * B[k][j] for k in range(m)) for j in range(p)]
            for i in range(n)]


def mat_vec(A, x):
    return [sum(row[j] * x[j] for j in range(len(x))) for row in A]


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def eliminate(rows, ncols):
    """Gauss-Jordan on the first ncols columns of rows, in place and
    without division: each other row with an entry in the pivot column is
    multiplied by the pivot and the pivot row, times that entry, subtracted,
    so integer rows stay integers.  Returns the pivot columns; rows[i] is
    the row of pivots[i], 0 in every other pivot column, and the rows
    after them are 0 on the first ncols columns."""
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        i = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if i is not None:
            rows[r], rows[i] = rows[i], rows[r]
            p = rows[r]
            rows[:] = [[p[c] * x - row[c] * y for x, y in zip(row, p)]
                       if row is not p and row[c] != 0 else row
                       for row in rows]
            pivots.append(c)
    return pivots


def solve_linear(A, b):
    """The unique solution of A x = b, or None when it has none or more
    than one: one `eliminate` of (A | b), whose pivots must be exactly the
    columns of A, and one division per pivot."""
    m = len(A[0])
    rows = [list(row) + [y] for row, y in zip(A, b)]
    if eliminate(rows, m + 1) != list(range(m)):
        return None
    return [Fraction(1) / row[c] * row[m] for c, row in enumerate(rows[:m])]


def _char_adj(A):
    """Faddeev-LeVerrier on an integer matrix A, whose traces divide exactly:
    [c_0, ..., c_n = 1] of det(xI - A), and the integer matrices M_1 = I,
    ..., M_n of the loop, with adj(xI - A) = sum of M_k x^(n-k)."""
    n = len(A)
    M, adj, coeffs = identity(n), [], [1]
    for k in range(1, n + 1):
        adj.append(M)
        AM = mat_mul(A, M)
        c = -sum(AM[i][i] for i in range(n)) // k
        coeffs.append(c)
        M = [[AM[i][j] + (c if i == j else 0) for j in range(n)] for i in range(n)]
    coeffs.reverse()  # now [c_0, ..., c_n=1]
    return coeffs, adj


# Dominant eigendata of a primitive nonnegative integer matrix: the root
# lam, a Fraction or a FieldElement, and exact positive eigenvectors.
PerronData = namedtuple("PerronData", "lam right left")


def _eigvec(vectors, lam):
    """sum of vectors[k] lam^(n-1-k), by Horner, divided by its last entry
    unless that is 0."""
    v = vectors[0]
    for w in vectors[1:]:
        v = [x * lam + y for x, y in zip(v, w)]
    return [x / v[-1] for x in v[:-1]] + [1] if v[-1] else v


def perron_data(A):
    """Exact dominant eigendata, in integers up to lam.  The integer roots of
    the characteristic polynomial chi lie within the largest row sum; each
    is divided out exactly, with multiplicity.  The rest p has no rational
    root: irreducible up to degree 3, else cut to its square-free part.
    lam is the largest integer root unless p has a larger real root, which
    then generates lam's field, Q(sqrt d) for a quadratic p.  lam = 1, the
    one-edge loop's, is refused: its path space is finite.  So is A unless
    column and row 0 of adj(lam I - A), eigenvectors, are positive and the
    gcd of n - k over the nonzero c_k of chi is 1: for irreducible A, its
    index of imprimitivity (Frobenius; Minc, Nonnegative Matrices, 1988)."""
    chi, adj = _char_adj(A)
    p, lam = chi, None
    bound = max(sum(row) for row in A)
    for r in range(-bound, bound + 1):
        while _peval(p, r) == 0:  # p / (x - r) by synthetic division
            p = list(accumulate(p[:0:-1], lambda q, c: c + r * q))[::-1]
            lam = Fraction(r)
    if len(p) > 4:
        dp = [k * c for k, c in enumerate(p)][1:]
        p = [int(c) for c in _pdivmod(p, _gcd(p, dp))[0]]
    if len(p) == 3 and p[1] * p[1] > 4 * p[0]:
        s, d = square_free(p[1] * p[1] - 4 * p[0])
        top = sqrt_field(d)(Fraction(-p[1], 2), Fraction(s, 2))
        lam = top if lam is None or top > lam else lam
    elif len(p) > 3:
        field = _largest_root(tuple(p), max(lam or 0, 0))
        lam = lam if field is None else field(0, 1)
    if lam == 1:
        raise PreconditionError("the Perron root is 1: the path space is "
                                "finite")
    right = _eigvec([[row[0] for row in M] for M in adj], lam)
    left = _eigvec([M[0] for M in adj], lam)
    if math.gcd(*(len(A) - k for k, c in enumerate(chi) if c)) != 1 or \
            not all(x > 0 for x in right + left):
        raise PreconditionError("the repeating matrix is not primitive")
    return PerronData(lam, right, left)
