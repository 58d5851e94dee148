"""Renormalization cocycle products, tail-invariant measure vectors, and
the Perron/Lyapunov data with the roof vector, for stationary diagrams.

Every quantity here is exact, in the field of the Perron root of the
repeating matrix (`scalars.perron_data`): the cylinder weights are
xi_k = lam**-(k-k0) times an exact eigenvector, and the roof is an exact
solution of its stationary system, a positive one where one is found, else
the exact minimum-norm least-squares solution.  `renorm_data` builds them
into one cached record per diagram (`RenormData`, with the xi vectors of
the materialized levels), which `xi_vector` reads.  A non-stationary
diagram has no repeating matrix to renormalize by: `xi_vector` and
`renorm_data` refuse it with NotStationaryError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .diagrams import owned
from .errors import NotStationaryError
from .scalars import mat_mul, mat_vec, perron_data, solve_linear


def cocycle_product(diagram, n):
    """A_n ... A_1 over exact integers, as a tuple of rows."""
    if n < 0:
        raise ValueError("need n >= 0")
    prod = [[1 if i == j else 0 for j in range(diagram.num_vertices(0))]
            for i in range(diagram.num_vertices(0))]
    for k in range(1, n + 1):
        prod = mat_mul(diagram.matrix(k), prod)
    return tuple(tuple(row) for row in prod)


# Compared and hashed by identity: the solenoid tables are keyed by it, and
# `renorm_data` hands one, frozen, to every reader of a diagram.
@dataclass(frozen=True, eq=False)
class RenormData:
    lambda_mu: object  # exact scalar
    roof: tuple
    certificates: dict
    xis: tuple  # exact xi vectors of levels 0..L, L = len(levels)

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
    rd = renorm_data(diagram)
    L = len(diagram.levels)
    if k <= L:
        return list(rd.xis[k])
    scale = rd.lam_inverse ** (k - L)
    return [x * scale for x in rd.xis[L]]


def _least_squares(P, u):
    """The minimum-norm least-squares solution of P x = u: x = P^T w for
    any w with (P P^T)^2 w = P P^T u, the normal equations of
    min |P P^T w - u|, which are consistent."""
    Pt = [list(col) for col in zip(*P)]
    M = mat_mul(P, Pt)
    return mat_vec(Pt, solve_linear(mat_mul(M, M), mat_vec(M, u)))


@owned
def renorm_data(diagram):
    """The Perron data of a stationary diagram, one record per diagram:
    the Perron multiplier lambda_mu, the roof vector l (normalized against
    the level-0 cylinder measures), and the xi vectors of levels 0..L."""
    if not diagram.stationary:
        raise NotStationaryError()
    L = len(diagram.levels)
    pd = perron_data(diagram.matrix(L + 1))  # the repeating matrix
    xis = [list(pd.left)]
    for k in range(L, 0, -1):
        xis.insert(0, mat_vec(list(zip(*diagram.matrix(k))), xis[0]))
    scale = Fraction(1) / sum(xis[0])
    xis = tuple(tuple(x * scale for x in v) for v in xis)
    # boundedness of lam**-k (A_(0..k) l) pins the direction of A_(0..L) l
    # to the right eigenvector of the repeating matrix
    P = [list(r) for r in cocycle_product(diagram, L)]
    right = list(pd.right)
    sol = solve_linear(P, right)
    if sol is not None and not all(x > 0 for x in sol):
        # a singular square P leaves a family of solutions; right * lam^-L
        # is a positive member whenever it solves the system
        scale = (1 / pd.lam) ** L
        sol = [x * scale for x in right]
        if len(sol) != len(P[0]) or mat_vec(P, sol) != right:
            sol = None
    if sol is None:
        sol = _least_squares(P, right)
    residual = [a - b for a, b in zip(mat_vec(P, sol), right)]
    scale = Fraction(1) / sum(si * x0 for si, x0 in zip(sol, xis[0]))
    cert = {"stationary_exact": all(r == 0 for r in residual),
            "roof_residual": math.sqrt(float(sum(r * r for r in residual)))}
    return RenormData(pd.lam, tuple(si * scale for si in sol), cert, xis)
