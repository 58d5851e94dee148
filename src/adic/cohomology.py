"""The class tower (Q^V, A) of a stationary diagram, the invariant
distributions obstructing transfer equations, and the exact coboundary
verdict.

Over the rationals, K_0 of the crossed product is the dimension group
lim (Q^V, A) of the repeating matrix A (Herman, Putnam and Skau 1992;
Giordano, Putnam and Skau 1995).  A cylinder function h of level m is read
at a level k >= m by its block sums, the sums of h over the level-k paths
into each vertex; one level up they are the incidence matrix of that level
times these.  On a diagram with L materialized levels every step from level
L - 1 on is A, so the tower is A alone: the level k' at which the ranks of
its powers stop falling, and W, the eventual image.  The invariant
distributions are the traces tau_i on K_0 (x) Q: exact functionals of the
block sums that factor through the projection onto W along the eventual
kernel, Gram-orthogonalized against the tower lengths of the vertices, the
measure direction first.  h is a coboundary exactly when that projection of
its block sums is 0; they then die under A within k' levels, and the first
level at which every block sum is 0 is the certificate that `solver.solve`
builds the solution from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .diagrams import path_table
from .errors import InsufficientStabilizationError
from .martingale import constant_function
from .scalars import as_float, is_exact, mat_mul, mat_pow, mat_vec, \
    nullspace, rank, solve_linear
from .solenoid import tower_lengths


def is_exact_zero(x):
    return is_exact(x) and x == 0


# ---------------------------------------------------------------------------
# tower and limit rank

@dataclass
class ClassTower:
    diagram: object
    renorm: object
    map: tuple        # A, carrying the block sums of level k-1 to level k
    k_prime: int
    d: int
    w_basis: tuple    # vectors spanning W at level k_prime
    ranks: tuple
    # level -> Functionals, filled by `level_functionals` on first use
    functionals: dict = field(default_factory=dict, repr=False,
                              compare=False)


def _column_space(m):
    cols = [tuple(row[j] for row in m) for j in range(len(m[0]))]
    basis = []
    for c in cols:
        test = basis + [list(c)]
        if rank([list(b) for b in test]) > len(basis):
            basis.append(list(c))
    return tuple(tuple(b) for b in basis)


def limit_rank(diagram, renorm):
    """The tower of the repeating matrix A, with the level k' at which the
    ranks of the powers of A stop falling and the image W there.  The rank
    falls at every step up to k', so k' <= dim."""
    m = tuple(tuple(row) for row in diagram.matrix(len(diagram.levels)))
    ranks, power = [len(m), rank(m)], m
    while ranks[-1] < ranks[-2]:
        power = mat_mul(m, power)
        ranks.append(rank(power))
    k_prime = len(ranks) - 2
    return ClassTower(diagram=diagram, renorm=renorm, map=m,
                      k_prime=k_prime, d=ranks[-1],
                      w_basis=_column_space(mat_pow(m, k_prime)),
                      ranks=tuple(ranks))


# ---------------------------------------------------------------------------
# block sums and distributions

def birkhoff_cochain(diagram, h, k):
    """The block sums of h at level k: per vertex v of V_k, the sum of h
    over the level-k paths into v, the tower over v.  They are summed at
    the level of h and stepped up through the incidence matrices."""
    if k < h.level:
        raise ValueError("cochain level below the function level")
    vals = []
    for a, b in path_table(diagram, h.level).blocks():
        total = 0
        for x in h.values[a:b]:
            total = total + x
        vals.append(total)
    for j in range(h.level + 1, k + 1):
        vals = mat_vec(diagram.matrix(j), vals)
    return tuple(vals)


@dataclass(frozen=True)
class DistributionValue:
    index: int
    value: float
    numerator: object  # exact pairing before normalization when available
    exact_zero: bool


def _dot(w, x, y):
    total = 0
    for wi, xi, yi in zip(w, x, y):
        total = total + wi * xi * yi
    return total


def _gram_schmidt(vectors, w):
    basis = []
    for v in vectors:
        cur = list(v)
        for b in basis:
            coef = _dot(w, cur, b) / _dot(w, b, b)
            cur = [c - coef * bb for c, bb in zip(cur, b)]
        if all(is_exact_zero(c) if is_exact(c) else abs(c) < 1e-12
               for c in cur):
            continue
        lead = next(c for c in cur if not (is_exact_zero(c) if is_exact(c)
                                           else abs(c) < 1e-12))
        if as_float(lead) < 0:
            cur = [-c for c in cur]
        basis.append(cur)
    return basis


def _projection(tower, k):
    """The projection onto W along the eventual kernel of A, as a rational
    dim x dim matrix, with the spanning vectors of W pushed to level k."""
    m = tower.map
    dim = len(m)
    w_vecs = [mat_vec(mat_pow(m, k - tower.k_prime), v)
              for v in tower.w_basis]
    kern = [list(v) for v in nullspace([list(r)
                                        for r in mat_pow(m, dim)])]
    cols = w_vecs + kern
    mat = [[cols[j][i] for j in range(len(cols))] for i in range(dim)]
    proj = [[0] * dim for _ in range(dim)]
    for c in range(dim):
        # W and the eventual kernel split Q^V, so mat is invertible
        sol = solve_linear(mat, [1 if i == c else 0 for i in range(dim)])
        for j in range(len(w_vecs)):
            for i in range(dim):
                proj[i][c] = proj[i][c] + sol[j] * w_vecs[j][i]
    return proj, w_vecs


@dataclass(frozen=True)
class Functionals:
    """The h-independent part of the distributions at one level: row i is
    the exact trace x -> <P x, b_i>_w on block sums, for the projection P
    onto W and the w-weighted Gram basis b_i of the measure direction and
    W; norms[i] = <b_i, b_i>_w."""
    rows: tuple
    norms: tuple


FUNCTIONALS_PER_TOWER = 16


def level_functionals(tower, k):
    """The distribution functionals of `tower` at level k, built on first
    use and kept on the tower for the last FUNCTIONALS_PER_TOWER levels
    built.  The measure direction is the block sums of the constant 1, and
    the weights are the tower lengths of the vertices."""
    found = tower.functionals.get(k)
    if found is not None:
        return found
    if len(tower.functionals) >= FUNCTIONALS_PER_TOWER:
        del tower.functionals[next(iter(tower.functionals))]
    proj, w_vecs = _projection(tower, k)
    one = constant_function(tower.diagram, Fraction(1), 0)
    mu = birkhoff_cochain(tower.diagram, one, k)
    w = tower_lengths(tower.diagram, tower.renorm, k)
    basis = _gram_schmidt([list(mu)] + w_vecs, w)
    rows = []
    for b in basis:
        wb = [wi * bi for wi, bi in zip(w, b)]
        rows.append(tuple(sum(wb[i] * proj[i][j] for i in range(len(wb)))
                          for j in range(len(proj))))
    found = tower.functionals[k] = Functionals(
        rows=tuple(rows), norms=tuple(_dot(w, b, b) for b in basis))
    return found


def evaluation_level(tower, h):
    """The least level at which the distributions of h can be read: past
    k', past the level of h, and at least len(levels) - 1, the first level
    from which A carries the block sums of each level to the next."""
    return max(tower.k_prime, h.level, len(tower.diagram.levels) - 1)


def distributions(h, tower, at_level=None):
    """The d invariant-distribution values on h, measure direction first.

    Values are floats (the Gram normalizer is a square root); the exact
    pairing numerators decide vanishing one by one.  A call takes the block
    sums of h and applies the level's cached `level_functionals`, at the
    evaluation level or at a higher at_level."""
    k_eval = evaluation_level(tower, h)
    if at_level is not None:
        if at_level < k_eval:
            raise InsufficientStabilizationError(
                "insufficient stabilization level")
        k_eval = at_level
    sums = birkhoff_cochain(tower.diagram, h, k_eval)
    fn = level_functionals(tower, k_eval)
    out = []
    for i, (row, den) in enumerate(zip(fn.rows, fn.norms)):
        num = 0
        for f, x in zip(row, sums):
            num = num + f * x
        val = as_float(num) / math.sqrt(as_float(den))
        out.append(DistributionValue(index=i + 1, value=val, numerator=num,
                                     exact_zero=is_exact_zero(num)))
    return out


def certificate(h, tower):
    """The first level from the evaluation level on at which every block sum
    of h is exactly 0, as {"level"}; None when there is none.  Block sums
    one level up are A times these, so they stay 0, and h is a coboundary.
    The eventual kernel of A is the kernel of A^k', so the search ends k'
    levels up: a certificate exists exactly when the block sums lie in the
    eventual kernel, i.e. when their projection onto W is 0.  That is the
    exact joint verdict; it is rational, so it needs no roof and no Perron
    root, and float values never pass it."""
    k_eval = evaluation_level(tower, h)
    sums = birkhoff_cochain(tower.diagram, h, k_eval)
    for level in range(k_eval, k_eval + tower.k_prime + 1):
        if level > k_eval:
            sums = mat_vec(tower.map, sums)
        if all(is_exact_zero(x) for x in sums):
            return {"level": level}
    return None


def is_coboundary_class(h, tower):
    """Exact obstruction test with a constructive certificate: the joint
    verdict (a certificate exists), the distributions, and the certificate
    level."""
    dvals = distributions(h, tower)
    cert = certificate(h, tower)
    return {
        "is_coboundary": cert is not None,
        "distributions": dvals,
        "certificate": cert,
    }
