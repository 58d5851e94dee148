"""The class tower (Q^V, A) of a stationary diagram and the invariant
distributions obstructing transfer equations, whose exact zeros are the
coboundary verdict.

Over the rationals, K_0 of the crossed product is the dimension group
lim (Q^V, A) of the repeating matrix A (Herman, Putnam and Skau 1992;
Giordano, Putnam and Skau 1995).  A cylinder function h of level m is read
at a level k >= m by its block sums, the sums of h over the level-k paths
into each vertex; one level up they are the incidence matrix of that level
times these.  They are summed on the integer columns over one denominator
that the function holds (`CylinderFunction.parts`, a finite float read as
the dyadic rational it stores), divided by it at the end.  On a diagram
with L materialized levels every step from level L - 1 on is A, so the
tower is A alone: the level k' at which the ranks of its powers stop
falling, and W, the eventual image.  The invariant distributions are the
traces tau_i on K_0 (x) Q, one set per tower, built once at the base level
b = max(k', L - 1): exact functionals of the block sums that factor through
the projection P onto W along the eventual kernel, Gram-orthogonalized
against the path counts of level b, the measure direction first.  They
read only A and the path structure, never the roof or the Perron root, so
they are rational on every diagram, and each level's rows are kept once,
as integer rows over one denominator (`vertex_functionals`).  A trace is
compatible across levels, so the functionals of level k + 1 are those of
level k times the Drazin inverse of A (the inverse of A on W, 0 on the
kernel), and a function reads the same values at every level it is lifted
to.  h is a coboundary exactly when P kills its block sums, which is when
every distribution numerator is 0; they then die under A within k' levels,
and `solver.solve` builds the solution at the first level at which every
block sum is 0, the certificate.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from operator import mul

from .diagrams import path_table
from .errors import LevelOverflowError
from .martingale import field_values
from .scalars import eliminate, identity, mat_mul, mat_vec, solve_linear


# ---------------------------------------------------------------------------
# tower and limit rank

class ClassTower(namedtuple("ClassTower", "diagram renorm map k_prime d "
                             "w_basis kernel_rows ranks")):
    """The tower of `limit_rank`: map is A, carrying the block sums of
    level k-1 to level k; w_basis the pivot columns of A^k', a basis of W;
    kernel_rows the reduced rows of A^k', 0 on the eventual kernel."""

    @cached_property
    def functionals(self):
        """The distribution functionals of the tower, built on first read
        at the base level b = max(k', L - 1).  Row i at level b is
        x -> <P x, b_i>_w on block sums, for the projection P onto W and
        the Gram basis b_i of W (P w, the measure direction, first)
        weighted by the path counts w of level b, the block sums of 1:
        positive integers, so all is rational.  P and the Drazin inverse
        A^D, which inverts A on W and is 0 on the eventual kernel, so that
        A^D A = P and rows times A^D read lifts of h as h, both come from
        the rank factorization of A^k' (`_on_w`)."""
        diagram, m = self.diagram, self.map
        base = max(self.k_prime, len(diagram.levels) - 1)
        proj = _on_w(self, identity(len(m)))
        w = [b - a for a, b in path_table(diagram, base).blocks()]
        pushed = self.w_basis  # A^(base - k') W, column by column
        for _ in range(base - self.k_prime):
            pushed = [mat_vec(m, v) for v in pushed]
        basis = _gram_schmidt([mat_vec(proj, w), *pushed], w)
        return Functionals(
            base=base, step=_on_w(self, m),
            norms=tuple(_dot(w, b, b) for b in basis),
            rows=[_integer_rows(mat_mul(
                [[wi * bi for wi, bi in zip(w, b)] for b in basis], proj))])


def _on_w(tower, mat):
    """W (R mat W)^-1 R for the basis columns W of the eventual image and
    the reduced rows R of A^k', whose kernel is the eventual kernel, so
    R W is invertible (Campbell and Meyer, Generalized Inverses of Linear
    Transformations, 1979): 0 on the eventual kernel and, for mat mapping
    W onto itself, the inverse of mat on W.  mat = I gives P, mat = A the
    Drazin inverse."""
    cols = [list(row) for row in zip(*tower.w_basis)]
    rw = mat_mul(tower.kernel_rows, mat_mul(mat, cols))
    return mat_mul(cols, [list(row) for row in zip(*(
        solve_linear(rw, col) for col in zip(*tower.kernel_rows)))])


def _reduced(power):
    """(power, its pivot columns, its rows after `eliminate`)."""
    rows = [list(row) for row in power]
    return power, eliminate(rows, len(power)), rows


def limit_rank(diagram, renorm):
    """The tower of the repeating matrix A, with the level k' at which the
    ranks of the powers of A stop falling, and W, the image of A^k'.  The
    rank falls at every step up to k', so k' <= dim.  Each power is
    eliminated once, and the elimination of A^k' is kept: its pivot columns
    are a basis of W and its nonzero rows vanish exactly on the eventual
    kernel."""
    m = tuple(tuple(row) for row in diagram.matrix(len(diagram.levels)))
    eye = identity(len(m))  # A^0, reduced already
    steps = [(eye, range(len(m)), eye), _reduced(m)]
    while len(steps[-1][1]) < len(steps[-2][1]):
        steps.append(_reduced(mat_mul(m, steps[-1][0])))
    power, pivots, rows = steps[-2]
    return ClassTower(diagram=diagram, renorm=renorm, map=m,
                      k_prime=len(steps) - 2, d=len(pivots),
                      w_basis=tuple(tuple(row[c] for row in power)
                                    for c in pivots),
                      kernel_rows=tuple(map(tuple, rows[:len(pivots)])),
                      ranks=tuple(len(step[1]) for step in steps))


# ---------------------------------------------------------------------------
# block sums and distributions

def block_sums(diagram, m, cols, k):
    """Per integer column of a level-m function (`parts`), its
    block sums at level k >= m: summed over each block of level m, then
    stepped up through the integer incidence matrices."""
    sums = [[sum(col[a:b]) for a, b in path_table(diagram, m).blocks()]
            for col in cols]
    for j in range(m + 1, k + 1):
        mat = diagram.matrix(j)
        sums = [mat_vec(mat, s) for s in sums]
    return sums


def birkhoff_cochain(diagram, h, k):
    """The block sums of h at level k: per vertex v of V_k, the sum of h
    over the level-k paths into v, the tower over v.  They are summed as
    integers over one denominator q (`block_sums` of h's columns), which
    divides them only at the end."""
    if k < h.level:
        raise ValueError("cochain level below the function level")
    q, cols, d = h.parts
    return tuple(field_values(q, block_sums(diagram, h.level, cols, k), d))


class DistributionValue(namedtuple("DistributionValue",
                                   "index value numerator exact_zero")):
    """One invariant distribution of h: value is a float, numerator the
    exact pairing before normalization."""
    __slots__ = ()


def _dot(w, x, y):
    total = 0
    for wi, xi, yi in zip(w, x, y):
        total = total + wi * xi * yi
    return total


def _gram_schmidt(vectors, w):
    """The w-weighted Gram basis of the span of vectors, in order: each
    vector less its part along those kept before, kept unless that is 0
    (w is positive, so it is 0 exactly on their span), with its first
    nonzero entry positive."""
    basis = []
    for v in vectors:
        cur = list(v)
        for b in basis:
            coef = _dot(w, cur, b) / _dot(w, b, b)
            cur = [c - coef * bb for c, bb in zip(cur, b)]
        lead = next((c for c in cur if c != 0), None)
        if lead is not None:
            basis.append(cur if lead > 0 else [-c for c in cur])
    return basis


class Functionals(namedtuple("Functionals", "base step norms rows")):
    """The h-independent part of the distributions of a tower: rows[j]
    holds the d vertex rows of level base + j as (den, integer rows over
    den), norms the Gram norms, and step the Drazin inverse of A, which
    carries the rows one level up."""
    __slots__ = ()


def _integer_rows(rows):
    """(den, integer rows over den) of rational rows, den the least common
    denominator."""
    den = math.lcm(*(x.denominator for row in rows for x in row))
    return den, [[x.numerator * (den // x.denominator) for x in row]
                 for row in rows]


def vertex_functionals(tower, m):
    """The trace on K_0 at level m >= base as (den, rows): the d vertex
    rows c_i of level m over one denominator, so that tau_i of a level-m
    cylinder into v is c_i(v) / den and the i-th distribution numerator of
    h is c_i times its block sums, over den.  The rows are kept per tower
    (`ClassTower.functionals`) and extended up to m on demand; a trace is
    compatible across levels, so the rows of level m + 1 are those of m
    times the Drazin inverse of A, and times A they are those of m."""
    fn = tower.functionals
    if m < fn.base:
        raise LevelOverflowError()
    while len(fn.rows) <= m - fn.base:
        den, rows = fn.rows[-1]
        fn.rows.append(_integer_rows(mat_mul(
            [[Fraction(x, den) for x in row] for row in rows], fn.step)))
    return fn.rows[m - fn.base]


def evaluation_level(tower, h):
    """The least level at which the distributions of h can be read: past
    k', past the level of h, and at least len(levels) - 1, the first level
    from which A carries the block sums of each level to the next."""
    return max(tower.k_prime, h.level, len(tower.diagram.levels) - 1)


def distributions(h, tower):
    """The d invariant-distribution values on h, measure direction first.

    Values are floats (the Gram normalizer is a square root); the exact
    pairing numerators decide vanishing one by one.  A call takes the block
    sums of h at its evaluation level and applies the vertex rows of that
    level (`vertex_functionals`), so h and every lift of h read the same
    values.  Both are integers over one denominator, the block sums of h's
    columns (`block_sums`) and the rows, so a numerator is one integer per
    column, read as a Fraction or field element once."""
    k_eval = evaluation_level(tower, h)
    den, rows = vertex_functionals(tower, k_eval)
    q, cols, nf = h.parts
    nums = field_values(den * q, [
        [sum(map(mul, row, sums)) for row in rows]
        for sums in block_sums(tower.diagram, h.level, cols, k_eval)], nf)
    return [DistributionValue(index=i + 1, numerator=num,
                              value=float(num) / math.sqrt(float(norm)),
                              exact_zero=num == 0) for i, (num, norm)
            in enumerate(zip(nums, tower.functionals.norms))]
