"""Diagram shift, renormalization cocycle products, tail-invariant measure
vectors, and the Perron/Lyapunov data with the roof vector.

For stationary diagrams every quantity here is exact: the Perron root of the
repeating matrix is rational or quadratic, the cylinder weights are
xi_k = lam**-(k-k0) times an exact eigenvector, and the roof normalization
holds identically.  Non-stationary diagrams get floating-point estimates by
cone contraction, with a Hilbert-metric diameter as the uniqueness
certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import CannotShiftError, UniqueErgodicityError
from .diagrams import OrderedDiagram, count_paths
from .scalars import as_float, mat_mul, mat_vec, perron_data, solve_linear


def shift(diagram):
    """Remove level 1, keeping orders (the diagram shift)."""
    if len(diagram.levels) > 1:
        return OrderedDiagram(diagram.levels[1:], diagram.stationary)
    if diagram.stationary:
        return diagram
    raise CannotShiftError()


@dataclass(frozen=True)
class CocycleProduct:
    m: int
    n: int
    matrix: tuple


def cocycle_product(diagram, m, n):
    """A_n ... A_{m+1} over exact integers."""
    if n < m:
        raise ValueError("need m <= n")
    prod = [[1 if i == j else 0 for j in range(diagram.num_vertices(m))]
            for i in range(diagram.num_vertices(m))]
    for k in range(m + 1, n + 1):
        prod = mat_mul(diagram.matrix(k), prod)
    return CocycleProduct(m, n, tuple(tuple(row) for row in prod))


def hilbert_diameter(columns):
    """Hilbert projective diameter of a finite set of positive vectors."""
    best = 0.0
    cols = [np.asarray(c, dtype=float) for c in columns]
    for i in range(len(cols)):
        for j in range(i + 1, len(cols)):
            x, y = cols[i], cols[j]
            if np.any(x <= 0) or np.any(y <= 0):
                return math.inf
            r = x / y
            best = max(best, math.log(r.max()) - math.log(r.min()))
    return best


# Diagrams whose stationary measure data is kept.
MEASURE_CACHE_SIZE = 512


@lru_cache(maxsize=MEASURE_CACHE_SIZE)
def _stationary_measure(diagram):
    """(lam, xi list for levels 0..L, pd) with L = len(levels), exact scalars
    when the Perron data is exact.  xi beyond L continues as lam**-1 steps."""
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
    if not diagram.stationary:
        mv = tail_measure(diagram, max(k, len(diagram.levels)))
        return mv.xi[k]
    lam, xis, _ = _stationary_measure(diagram)
    L = len(diagram.levels)
    if k <= L:
        return list(xis[k])
    scale = lam ** (-(k - L))
    return [x * scale for x in xis[L]]


@dataclass
class MeasureVectors:
    xi: dict
    normalization: dict
    cone_diameter: float
    exact: bool


def tail_measure(diagram, horizon, threshold=1e-8):
    if diagram.stationary:
        lam, xis, pd = _stationary_measure(diagram)
        xi = {k: xi_vector(diagram, k) for k in range(horizon + 1)}
        exact = pd.exact
        cols = [list(col) for col in
                zip(*cocycle_product(diagram, 0, max(horizon, 1)).matrix)]
        diam = hilbert_diameter([[as_float(x) for x in c] for c in cols])
        if not exact and diam > threshold:
            raise UniqueErgodicityError()
    else:
        H = len(diagram.levels)
        if horizon > H:
            horizon = H
        cols = [list(col) for col in zip(*cocycle_product(diagram, 0, H).matrix)]
        diam = hilbert_diameter([[float(x) for x in c] for c in cols])
        if diam > threshold:
            raise UniqueErgodicityError()
        xiH = np.ones(diagram.num_vertices(H), dtype=float)
        xi = {H: xiH}
        for k in range(H, 0, -1):
            At = np.array(diagram.matrix(k), dtype=float).T
            xi[k - 1] = At @ xi[k]
        scale = float(sum(xi[0]))
        xi = {k: [float(x) / scale for x in v] for k, v in xi.items()
              if k <= horizon}
        exact = False
    norm = {}
    for k, v in xi.items():
        heights = count_paths(diagram, 0, k)
        norm[k] = as_float(sum(h * x for h, x in zip(heights, v)))
    return MeasureVectors(xi=xi, normalization=norm, cone_diameter=diam,
                          exact=exact)


@dataclass
class RenormData:
    lambda_mu: object  # exact scalar or float
    roof: list
    exponent: float
    xi0: list
    exact: bool
    certificates: dict

    @property
    def lam_float(self):
        return as_float(self.lambda_mu)


def renorm_data(diagram, horizon=40):
    """Perron multiplier lambda_mu, roof vector l (normalized against the
    level-0 cylinder measures), and the growth exponent."""
    if diagram.stationary:
        lam, xis, pd = _stationary_measure(diagram)
        L = len(diagram.levels)
        xi0 = xis[0]
        if pd.exact and pd.right is not None:
            # boundedness of lam**-k (A_(0..k) l) pins the direction of
            # A_(0..L) l to the right eigenvector of the repeating matrix
            P = [list(r) for r in cocycle_product(diagram, 0, L).matrix]
            right = list(pd.right)
            sol = solve_linear(P, right)
            if sol is not None and not all(x > 0 for x in sol):
                # a singular P leaves a family of solutions; right * lam^-L
                # is a positive member whenever it solves the system
                sol = [x * lam ** (-L) for x in right]
                if mat_vec(P, sol) != right:
                    sol = None
            if sol is not None:
                scale = sum(si * x0 for si, x0 in zip(sol, xi0))
                roof = [si / scale for si in sol]
                cert = {"stationary_exact": True, "roof_residual": 0.0}
                return RenormData(lam, roof, math.log(as_float(lam)), xi0,
                                  True, cert)
        # inexact eigendata (or no positive exact roof): float estimates
        lamf = as_float(lam)
        P = np.array(cocycle_product(diagram, 0, L).matrix, dtype=float)
        uf = np.array([as_float(x) for x in (pd.right if pd.right is not None
                                             else np.ones(len(xis[-1])))])
        sol = np.linalg.lstsq(P, uf, rcond=None)[0]
        xi0f = [as_float(x) for x in xi0]
        scale = float(sum(s * x for s, x in zip(sol, xi0f)))
        roof = [float(s) / scale for s in sol]
        cert = {"stationary_exact": False,
                "roof_residual": float(np.linalg.norm(P @ sol - uf))}
        return RenormData(lam if pd.exact else lamf, roof, math.log(lamf),
                          xi0f, False, cert)
    # non-stationary: cone contraction estimates
    H = min(horizon, len(diagram.levels))
    v = np.ones(diagram.num_vertices(0), dtype=float)
    growth = []
    for k in range(1, H + 1):
        v = np.array(diagram.matrix(k), dtype=float) @ v
        growth.append(float(np.sum(v)))
        v = v / np.sum(v)
    lam_est = growth[-1]
    err = abs(growth[-1] - growth[-2]) if len(growth) > 1 else math.inf
    # roof direction: backward transpose iteration
    w = np.ones(diagram.num_vertices(H), dtype=float)
    for k in range(H, 0, -1):
        w = np.array(diagram.matrix(k), dtype=float).T @ w
        w = w / np.sum(w)
    mv = tail_measure(diagram, 0)
    xi0 = mv.xi[0]
    scale = float(sum(wi * x for wi, x in zip(w, xi0)))
    roof = [float(wi) / scale for wi in w]
    cert = {"stationary_exact": False, "error_bar": err}
    if err > 1e-9:
        cert["warning"] = "Lyapunov estimate unconverged"
    return RenormData(lam_est, roof, math.log(lam_est), xi0, False, cert)


def condition1_report(diagram, horizon):
    ks = list(range(0, horizon + 1))
    sizes = [diagram.num_vertices(k) for k in ks]
    logs = np.log(np.array(sizes, dtype=float))
    rate = float(np.polyfit(ks, logs, 1)[0]) if len(ks) > 1 else 0.0
    if abs(rate) < 1e-12:
        rate = 0.0
    return {"levels": ks, "sizes": sizes, "rate": rate,
            "verdict": "bounded" if max(sizes) == min(sizes) else
            ("subexponential" if rate < 0.05 else "exponential")}
