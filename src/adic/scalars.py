"""Exact scalar arithmetic.

Stationary diagrams with a quadratic Perron root (the golden-mean diagram, for
one) need exact arithmetic in Q(sqrt(D)).  QuadExt holds a + b*sqrt(D) with
Fraction coefficients and supports field operations, exact comparisons and
float export.  On top of that this module provides generic dense linear
algebra over any such exact field (Fraction mixes freely) and the Perron data
of a nonnegative integer matrix: exact for sizes 1 and 2 and for larger
matrices with an integer dominant root, floating point otherwise.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


def square_free(n):
    """n = s*s*d with d square-free; returns (s, d). n must be positive."""
    if n <= 0:
        raise ValueError("square_free needs a positive integer")
    s, d, p = 1, 1, 2
    while p * p <= n:
        if n % (p * p) == 0:
            n //= p * p
            s *= p
        elif n % p == 0:
            n //= p
            d *= p
        else:
            p += 1
    return s, d * n


def _field_op(method):
    """A binary QuadExt method: a float operand gives the float result, as
    it does for Fraction; a QuadExt, int or Fraction operand reaches method
    as a QuadExt of the same field; anything else is NotImplemented."""
    name = method.__name__

    def op(self, other):
        if isinstance(other, QuadExt):
            if other.d != self.d:
                raise TypeError("mixed quadratic fields")
        elif isinstance(other, (int, Fraction)):
            other = QuadExt(other, 0, self.d)
        elif isinstance(other, float):
            return getattr(float(self), name)(other)
        else:
            return NotImplemented
        return method(self, other)
    op.__name__ = name
    return op


class QuadExt:
    """Element a + b*sqrt(d) of the real quadratic field Q(sqrt(d)).

    d is a square-free integer > 1, shared by both operands of any binary
    operation.  Comparisons are exact (sign analysis, no floats) unless the
    other operand is a float.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b, d):
        self.a = Fraction(a)
        self.b = Fraction(b)
        self.d = int(d)

    @_field_op
    def __add__(self, o):
        return QuadExt(self.a + o.a, self.b + o.b, self.d)

    __radd__ = __add__

    @_field_op
    def __sub__(self, o):
        return QuadExt(self.a - o.a, self.b - o.b, self.d)

    @_field_op
    def __rsub__(self, o):
        return QuadExt(o.a - self.a, o.b - self.b, self.d)

    @_field_op
    def __mul__(self, o):
        return QuadExt(self.a * o.a + self.b * o.b * self.d,
                       self.a * o.b + self.b * o.a, self.d)

    __rmul__ = __mul__

    def inverse(self):
        n = self.a * self.a - self.b * self.b * self.d
        if n == 0:
            raise ZeroDivisionError("division by zero in quadratic field")
        return QuadExt(self.a / n, -self.b / n, self.d)

    @_field_op
    def __truediv__(self, o):
        return self * o.inverse()

    @_field_op
    def __rtruediv__(self, o):
        return o * self.inverse()

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        base = self if k >= 0 else self.inverse()
        k = abs(k)
        out = QuadExt(1, 0, self.d)
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __neg__(self):
        return QuadExt(-self.a, -self.b, self.d)

    def __abs__(self):
        return -self if self._sign() < 0 else self

    def _sign(self):
        a, b = self.a, self.b
        if b == 0:
            return -1 if a < 0 else (0 if a == 0 else 1)
        if a == 0:
            return -1 if b < 0 else 1
        # compare a against -b*sqrt(d) exactly through squares
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        aa, bb = a * a, b * b * self.d
        if a > 0:  # b < 0
            return 1 if aa > bb else (0 if aa == bb else -1)
        return -1 if aa > bb else (0 if aa == bb else 1)

    @_field_op
    def __eq__(self, o):
        return self.a == o.a and self.b == o.b

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    @_field_op
    def __lt__(self, o):
        return (self - o)._sign() < 0

    @_field_op
    def __le__(self, o):
        return (self - o)._sign() <= 0

    @_field_op
    def __gt__(self, o):
        return (self - o)._sign() > 0

    @_field_op
    def __ge__(self, o):
        return (self - o)._sign() >= 0

    def __float__(self):
        return float(self.a) + float(self.b) * math.sqrt(self.d)

    def __repr__(self):
        return "QuadExt(%s, %s, %d)" % (self.a, self.b, self.d)


def as_float(x):
    return float(x)


def is_exact(x):
    return isinstance(x, (int, Fraction, QuadExt))


# ---------------------------------------------------------------------------
# dense linear algebra over an exact field (Fraction and QuadExt mix with int)

def mat_mul(A, B):
    n, m, p = len(A), len(B), len(B[0])
    assert len(A[0]) == m
    return [[sum(A[i][k] * B[k][j] for k in range(m)) for j in range(p)]
            for i in range(n)]


def mat_vec(A, x):
    return [sum(row[j] * x[j] for j in range(len(x))) for row in A]


def mat_pow(A, k):
    n = len(A)
    out = identity(n)
    base = [row[:] for row in A]
    while k:
        if k & 1:
            out = mat_mul(out, base)
        base = mat_mul(base, base)
        k >>= 1
    return out


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _rref(rows, ncols):
    """In-place reduced row echelon form; returns pivot column list."""
    pivots = []
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, len(rows)):
            if rows[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = rows[r][c]
        rows[r] = [x / inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def rank(A):
    if not A:
        return 0
    rows = [[Fraction(x) if isinstance(x, int) else x for x in row] for row in A]
    return len(_rref(rows, len(A[0])))


def solve_linear(A, b):
    """One exact solution of A x = b, or None if inconsistent."""
    n, m = len(A), len(A[0])
    rows = [[A[i][j] for j in range(m)] + [b[i]] for i in range(n)]
    rows = [[Fraction(x) if isinstance(x, int) else x for x in row] for row in rows]
    pivots = _rref(rows, m + 1)
    if m in pivots:
        return None
    x = [0] * m
    r = 0
    for c in pivots:
        x[c] = rows[r][m]
        r += 1
    return x


def nullspace(A):
    """Basis of the right kernel of A, exact."""
    if not A:
        return []
    n, m = len(A), len(A[0])
    rows = [[Fraction(A[i][j]) if isinstance(A[i][j], int) else A[i][j]
             for j in range(m)] for i in range(n)]
    pivots = _rref(rows, m)
    free = [c for c in range(m) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * m
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][fc]
        basis.append(v)
    return basis


def char_poly(A):
    """Monic characteristic polynomial coefficients [c_0, ..., c_{n-1}, 1]
    via Faddeev-LeVerrier over exact integers/rationals."""
    n = len(A)
    M = identity(n)
    coeffs = [Fraction(1)]
    for k in range(1, n + 1):
        AM = mat_mul(A, M)
        c = -Fraction(sum(AM[i][i] for i in range(n)), k)
        coeffs.append(c)
        M = [[AM[i][j] + (c if i == j else 0) for j in range(n)] for i in range(n)]
    coeffs.reverse()  # now [c_0, ..., c_n=1]
    return coeffs


class PerronData:
    """Dominant eigendata of a primitive nonnegative integer matrix.

    lam: dominant root (Fraction, QuadExt, or float).
    right/left: eigenvectors with positive entries, unnormalized.
    exact: whether scalars are exact field elements.
    """

    def __init__(self, lam, right, left, exact):
        self.lam = lam
        self.right = right
        self.left = left
        self.exact = exact


def _positive_eigvec(A, lam):
    n = len(A)
    M = [[A[i][j] - (lam if i == j else 0) for j in range(n)] for i in range(n)]
    ker = nullspace(M)
    if len(ker) != 1:
        return None
    v = ker[0]
    # orient positively
    ref = next((x for x in v if x != 0), None)
    if ref is not None and ref < 0:
        v = [-x for x in v]
    if any(x <= 0 for x in v):
        return None
    return v


def perron_data(A):
    """Exact dominant eigendata where available; float fallback otherwise."""
    n = len(A)
    if n == 1:
        lam = Fraction(A[0][0])
        return PerronData(lam, [Fraction(1)], [Fraction(1)], True)
    At = [[A[j][i] for j in range(n)] for i in range(n)]
    if n == 2:
        tr = A[0][0] + A[1][1]
        det = A[0][0] * A[1][1] - A[0][1] * A[1][0]
        disc = tr * tr - 4 * det
        if disc < 0:
            raise ValueError("complex eigenvalues in a nonnegative 2x2 matrix?")
        s, d = square_free(disc) if disc > 0 else (0, 1)
        if d == 1:  # rational roots
            lam = Fraction(tr + s, 2)
            return PerronData(lam, _positive_eigvec(A, lam),
                              _positive_eigvec(At, lam), True)
        lam = QuadExt(Fraction(tr, 2), Fraction(s, 2), d)
        return PerronData(lam, _positive_eigvec(A, lam),
                          _positive_eigvec(At, lam), True)
    # n >= 3: integer dominant root or floats
    ev = np.linalg.eigvals(np.array(A, dtype=float))
    lam_f = max(ev.real)
    near = round(lam_f)
    coeffs = char_poly(A)
    if near > 0 and sum(c * Fraction(near) ** k for k, c in enumerate(coeffs)) == 0:
        lam = Fraction(near)
        r = _positive_eigvec(A, lam)
        l = _positive_eigvec(At, lam)
        if r is not None and l is not None:
            return PerronData(lam, r, l, True)
    Af = np.array(A, dtype=float)
    w, v = np.linalg.eig(Af)
    i = int(np.argmax(w.real))
    r = np.abs(v[:, i].real)
    w2, v2 = np.linalg.eig(Af.T)
    j = int(np.argmax(w2.real))
    l = np.abs(v2[:, j].real)
    return PerronData(float(w[i].real), [float(x) for x in r],
                      [float(x) for x in l], False)
