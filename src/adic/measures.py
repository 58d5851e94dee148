"""Renormalization cocycle products, tail-invariant measure vectors, and
the Perron/Lyapunov data with the roof vector, for stationary diagrams.

Every quantity here is exact when the Perron root of the repeating matrix is
rational or quadratic: the cylinder weights are xi_k = lam**-(k-k0) times an
exact eigenvector, and the roof normalization holds identically.  Other
Perron roots get floating-point estimates.  A non-stationary diagram has no
repeating matrix to renormalize by: `xi_vector` and `renorm_data` refuse it
with NotStationaryError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import NotStationaryError
from .scalars import as_float, mat_mul, mat_vec, perron_data, solve_linear


def cocycle_product(diagram, m, n):
    """A_n ... A_{m+1} over exact integers, as a tuple of rows."""
    if n < m:
        raise ValueError("need m <= n")
    prod = [[1 if i == j else 0 for j in range(diagram.num_vertices(m))]
            for i in range(diagram.num_vertices(m))]
    for k in range(m + 1, n + 1):
        prod = mat_mul(diagram.matrix(k), prod)
    return tuple(tuple(row) for row in prod)


# Diagrams whose stationary measure data is kept.
MEASURE_CACHE_SIZE = 512


@lru_cache(maxsize=MEASURE_CACHE_SIZE)
def _stationary_measure(diagram):
    """(lam, xi list for levels 0..L, pd) with L = len(levels), exact scalars
    when the Perron data is exact.  xi beyond L continues as lam**-1 steps."""
    if not diagram.stationary:
        raise NotStationaryError()
    A = diagram.matrix(len(diagram.levels) + 1)  # repeating matrix
    pd = perron_data(A)
    L = len(diagram.levels)
    if pd.exact and pd.left is not None and pd.right is not None:
        lam = pd.lam
        xiL = list(pd.left)
    else:
        lam = float(pd.lam)
        xiL = [float(x) for x in (pd.left if pd.left is not None
                                  else np.ones(len(A)))]
    xis = [None] * (L + 1)
    xis[L] = xiL
    for k in range(L, 0, -1):
        At = list(zip(*diagram.matrix(k)))  # transpose rows
        xis[k - 1] = mat_vec([list(r) for r in At], xis[k])
    total = sum(xis[0])
    one = Fraction(1)
    xis = [[(one * x) / total for x in v] for v in xis]
    return lam, xis, pd


def xi_vector(diagram, k):
    """Exact cylinder-measure weights over V_k: every level-k cylinder with
    range v has measure xi_k(v)."""
    lam, xis, _ = _stationary_measure(diagram)
    L = len(diagram.levels)
    if k <= L:
        return list(xis[k])
    scale = lam ** (-(k - L))
    return [x * scale for x in xis[L]]


@dataclass
class RenormData:
    lambda_mu: object  # exact scalar or float
    roof: list
    exponent: float
    exact: bool
    certificates: dict

    @property
    def lam_float(self):
        return as_float(self.lambda_mu)


def renorm_data(diagram):
    """Perron multiplier lambda_mu, roof vector l (normalized against the
    level-0 cylinder measures), and the growth exponent."""
    lam, xis, pd = _stationary_measure(diagram)
    L = len(diagram.levels)
    if pd.exact and pd.right is not None:
        # boundedness of lam**-k (A_(0..k) l) pins the direction of
        # A_(0..L) l to the right eigenvector of the repeating matrix
        P = [list(r) for r in cocycle_product(diagram, 0, L)]
        right = list(pd.right)
        sol = solve_linear(P, right)
        if sol is not None and not all(x > 0 for x in sol):
            # a singular P leaves a family of solutions; right * lam^-L
            # is a positive member whenever it solves the system
            sol = [x * lam ** (-L) for x in right]
            if mat_vec(P, sol) != right:
                sol = None
        if sol is not None:
            scale = sum(si * x0 for si, x0 in zip(sol, xis[0]))
            roof = [si / scale for si in sol]
            cert = {"stationary_exact": True, "roof_residual": 0.0}
            return RenormData(lam, roof, math.log(as_float(lam)), True,
                              cert)
    # inexact eigendata (or no positive exact roof): float estimates
    lamf = as_float(lam)
    P = np.array(cocycle_product(diagram, 0, L), dtype=float)
    uf = np.array([as_float(x) for x in (pd.right if pd.right is not None
                                         else np.ones(len(xis[-1])))])
    sol = np.linalg.lstsq(P, uf, rcond=None)[0]
    xif = [as_float(x) for x in xis[0]]
    scale = float(sum(s * x for s, x in zip(sol, xif)))
    roof = [float(s) / scale for s in sol]
    cert = {"stationary_exact": False,
            "roof_residual": float(np.linalg.norm(P @ sol - uf))}
    return RenormData(lam if pd.exact else lamf, roof, math.log(lamf),
                      False, cert)
