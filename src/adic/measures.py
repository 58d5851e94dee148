"""Tail-invariant measure vectors, the Perron/Lyapunov data and the tower
heights, for stationary diagrams.

Every quantity here is exact, in the field of the Perron root of the
repeating matrix A (`scalars.perron_data`): the cylinder weights are
xi_k = lam**-(k-k0) times an exact eigenvector.  The tower heights h_k over
V_k, in level-0 time units with xi_k . h_k = 1, follow one rule.  Let j be
the last level whose matrix is not A.  Level j has h_j = right / (xi_j .
right), and every level k > j has lam**(k-j) h_j.  A level k < j has the
unique solution of A_j ... A_(k+1) h = h_j, and reading it refuses with
PreconditionError where that product has a kernel or misses h_j.
`renorm_data` builds them into one cached record per diagram (`RenormData`,
with the xi vectors of the materialized levels), which `xi_vector` reads.
A non-stationary diagram has no repeating matrix to renormalize by:
`xi_vector` and `renorm_data` refuse it with NotStationaryError.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property

from .diagrams import owned
from .errors import LevelOverflowError, NotStationaryError, PreconditionError
from .scalars import identity, mat_mul, mat_vec, perron_data, solve_linear


class RenormData:
    """lambda_mu, the exact Perron multiplier; heights, the tower heights
    of levels 0..j, None where refused; xis, the exact xi vectors of levels
    0..L, L = len(levels).  Compared and hashed by identity, since the
    solenoid tables are keyed by it: `renorm_data` builds one per diagram,
    which no reader changes."""

    def __init__(self, lambda_mu, heights, xis):
        self.lambda_mu, self.heights, self.xis = lambda_mu, heights, xis

    def tower_heights(self, k):
        """The exact level-k tower heights, one per vertex of V_k."""
        if k < 0:
            raise LevelOverflowError()
        j = len(self.heights) - 1
        if k > j:
            scale = self.lambda_mu ** (k - j)
            return tuple(scale * h for h in self.heights[j])
        if self.heights[k] is None:
            raise PreconditionError(
                "the level-%d tower heights are not fixed by those of level "
                "%d, the last level that does not repeat" % (k, j))
        return self.heights[k]

    @property
    def roof(self):
        return self.tower_heights(0)

    @cached_property
    def lam_float(self):
        return float(self.lambda_mu)

    @cached_property
    def lam_inverse(self):
        return 1 / self.lambda_mu

    @cached_property
    def exponent(self):
        return math.log(self.lam_float)


def xi_vector(diagram, k):
    """Exact cylinder-measure weights over V_k: every level-k cylinder with
    range v has measure xi_k(v).  Past the materialized levels xi steps by
    1/lam per level."""
    if k < 0:
        raise LevelOverflowError()
    rd = renorm_data(diagram)
    L = len(diagram.levels)
    if k <= L:
        return list(rd.xis[k])
    scale = rd.lam_inverse ** (k - L)
    return [x * scale for x in rd.xis[L]]


@owned
def renorm_data(diagram):
    """The Perron data of a stationary diagram, one record per diagram:
    the Perron multiplier lambda_mu, the tower heights of levels 0..j and
    the xi vectors of levels 0..L."""
    if not diagram.stationary:
        raise NotStationaryError()
    L = len(diagram.levels)
    mats = [diagram.matrix(k) for k in range(1, L + 1)]
    pd = perron_data(mats[-1])  # the repeating matrix A
    xis = [list(pd.left)]
    for m in reversed(mats):
        xis.insert(0, mat_vec(list(zip(*m)), xis[0]))
    scale = Fraction(1) / sum(xis[0])
    xis = tuple(tuple(x * scale for x in v) for v in xis)
    j = max((k for k, m in enumerate(mats, 1) if m != mats[-1]), default=0)
    scale = Fraction(1) / sum(x * r for x, r in zip(xis[j], pd.right))
    top = tuple(r * scale for r in pd.right)
    heights, prod = [top], identity(len(top))  # prod = A_j ... A_(k+1)
    for m in reversed(mats[:j]):
        prod = mat_mul(prod, m)
        h = solve_linear(prod, top)
        heights.insert(0, h if h is None else tuple(h))
    return RenormData(pd.lam, tuple(heights), xis)
