"""First cohomology of the graph approximants, the induced tower map, the
limit rank, and the invariant distributions obstructing transfer equations.

Edge cochains assign a scalar to each tower edge; vertex cochains live on
the glued endpoint classes.  H1 is presented by the non-forest edges of a
spanning forest of the class graph, all arithmetic exact.  The pullback of
an edge cochain under the wrapping map sums the cochain over each wrapped
word, which on matrices is the level's incidence matrix acting on cochain
vectors; descended to H1 this yields the tower whose stabilized image
carries the distributions.  On a stationary diagram with L materialized
levels the complexes of levels L - 1 and up share their gluing and the
wrapping words between them repeat, so every H1 from level L - 1 on has one
dimension and one induced map, that of level L, carries each to the next.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .diagrams import path_table
from .errors import (GluingInconsistencyError, InsufficientStabilizationError,
                     ParseError, RankNotStabilizedError)
from .martingale import constant_function, lift
from .scalars import as_float, is_exact, mat_mul, mat_pow, mat_vec, \
    nullspace, rank, solve_linear
from .solenoid import build_complex


@dataclass(frozen=True)
class CochainSpace:
    complex: object
    level: int
    tree_edges: tuple     # forest edges of the class graph
    basis_edges: tuple    # non-forest edges, presenting H1
    component: tuple      # class index -> component id
    d_matrix: tuple       # per edge: row over classes, +1 at end, -1 at start

    @property
    def dim_h1(self):
        return len(self.basis_edges)

    @property
    def num_classes(self):
        return len(self.complex.classes)


def cohomology_basis(cx):
    n = cx.num_edges
    classes = len(cx.classes)
    adj = [[] for _ in range(classes)]
    for e in range(n):
        a, b = cx.start_class[e], cx.end_class[e]
        adj[a].append((b, e))
        adj[b].append((a, e))
    comp = [None] * classes
    tree = []
    in_tree = set()
    cid = 0
    for root in range(classes):
        if comp[root] is not None:
            continue
        comp[root] = cid
        queue = [root]
        while queue:
            c = queue.pop()
            for nb, e in adj[c]:
                if comp[nb] is None:
                    comp[nb] = cid
                    tree.append(e)
                    in_tree.add(e)
                    queue.append(nb)
        cid += 1
    basis = tuple(e for e in range(n) if e not in in_tree)
    d_rows = []
    for e in range(n):
        row = [0] * classes
        row[cx.end_class[e]] += 1
        row[cx.start_class[e]] -= 1
        d_rows.append(tuple(row))
    space = CochainSpace(complex=cx, level=cx.level, tree_edges=tuple(tree),
                         basis_edges=basis, component=tuple(comp),
                         d_matrix=tuple(d_rows))
    assert space.dim_h1 == n - classes + cid
    return space


def reduce_cochain(space, cochain):
    """(H1 coordinates on the basis edges, potential beta).

    beta is the vertex cochain with d(beta) matching the cochain on every
    forest edge (zero on component roots); the coordinates are the values of
    cochain - d(beta) on the basis edges, so they vanish exactly when the
    cochain is a coboundary."""
    cx = space.complex
    beta = [None] * len(cx.classes)
    children = {}
    for e in space.tree_edges:
        children.setdefault(cx.start_class[e], []).append((cx.end_class[e],
                                                           e, 1))
        children.setdefault(cx.end_class[e], []).append((cx.start_class[e],
                                                         e, -1))
    for root in range(len(cx.classes)):
        if beta[root] is not None:
            continue
        beta[root] = 0
        stack = [root]
        while stack:
            c = stack.pop()
            for nb, e, sign in children.get(c, ()):
                if beta[nb] is None:
                    beta[nb] = beta[c] + sign * cochain[e]
                    stack.append(nb)
    coords = tuple(cochain[e] - (beta[cx.end_class[e]] -
                                 beta[cx.start_class[e]])
                   for e in space.basis_edges)
    return coords, tuple(beta)


def is_exact_zero(x):
    return is_exact(x) and x == 0


# ---------------------------------------------------------------------------
# induced maps

def _class_image(space_lo, wm, cx_hi):
    """Class map of the wrapping: each glued class of the finer complex must
    land in a single class of the coarser one."""
    lo = space_lo.complex
    image = []
    for members in cx_hi.classes:
        targets = set()
        for sign, edge in members:
            word = wm.words[edge]
            if sign == "-":
                targets.add(lo.start_class[word[0]])
            else:
                targets.add(lo.end_class[word[-1]])
        if len(targets) != 1:
            raise GluingInconsistencyError()
        image.append(targets.pop())
    return tuple(image)


def induced_map(diagram, renorm, k):
    """Matrix of the pullback H1(level k-1) -> H1(level k) on basis edges.

    Checks, exactly: consecutive word letters meet in glued classes, the
    class map is single-valued, and pullback commutes with d."""
    from .solenoid import wrapping
    lo = cohomology_basis(build_complex(diagram, renorm, k - 1))
    hi = cohomology_basis(build_complex(diagram, renorm, k))
    wm = wrapping(diagram, renorm, k)
    cxl, cxh = lo.complex, hi.complex
    for v in range(cxh.num_edges):
        word = wm.words[v]
        for a, b in zip(word, word[1:]):
            if cxl.end_class[a] != cxl.start_class[b]:
                raise GluingInconsistencyError()
    cls_map = _class_image(lo, wm, cxh)
    pull = tuple(tuple(sum(1 for w in wm.words[v] if w == e)
                       for e in range(cxl.num_edges))
                 for v in range(cxh.num_edges))
    for c in range(len(cxl.classes)):
        beta = [1 if i == c else 0 for i in range(len(cxl.classes))]
        db = [sum(r * b for r, b in zip(row, beta)) for row in lo.d_matrix]
        lhs = mat_vec(pull, db)
        vb = [1 if cls_map[i] == c else 0 for i in range(len(cxh.classes))]
        rhs = [sum(r * b for r, b in zip(row, vb)) for row in hi.d_matrix]
        if list(lhs) != list(rhs):
            raise GluingInconsistencyError()
    cols = []
    for b in lo.basis_edges:
        cochain = [pull[v][b] for v in range(cxh.num_edges)]
        coords, _ = reduce_cochain(hi, cochain)
        cols.append(coords)
    dim_hi, dim_lo = hi.dim_h1, lo.dim_h1
    return tuple(tuple(cols[j][i] for j in range(dim_lo))
                 for i in range(dim_hi))


# ---------------------------------------------------------------------------
# tower and limit rank

@dataclass
class ClassTower:
    diagram: object
    renorm: object
    max_level: int
    spaces: tuple     # spaces[k]: H1 presentation of level k
    map: tuple        # H1(k-1) -> H1(k) for every k >= len(levels)
    k_prime: int
    d: int
    w_basis: tuple    # coordinate vectors spanning W at level k_prime
    ranks: tuple
    stabilized: bool
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


def limit_rank(diagram, renorm, max_level=8):
    """The H1 spaces of levels 0..max_level and the induced map of the first
    repeating level, with the level k' at which the ranks of its powers
    stop falling and the image W there."""
    if max_level < 0:
        raise ParseError("max level must be >= 0, got %d" % max_level)
    spaces = tuple(cohomology_basis(build_complex(diagram, renorm, k))
                   for k in range(max_level + 1))
    m = induced_map(diagram, renorm, len(diagram.levels))
    dim = len(m)
    ranks = [dim]
    k_prime = 0
    power = mat_pow(m, 0)
    while True:
        nxt = mat_mul(m, power)
        r = rank([list(row) for row in nxt])
        ranks.append(r)
        if r == ranks[k_prime]:
            break
        k_prime += 1
        power = nxt
        if k_prime > dim:
            raise RankNotStabilizedError()
    w_basis = _column_space(mat_pow(m, k_prime)) if k_prime else \
        tuple(tuple(1 if i == j else 0 for j in range(dim))
              for i in range(dim))
    return ClassTower(diagram=diagram, renorm=renorm, max_level=max_level,
                      spaces=spaces, map=m, k_prime=k_prime,
                      d=ranks[k_prime], w_basis=w_basis, ranks=tuple(ranks),
                      stabilized=True)


# ---------------------------------------------------------------------------
# Birkhoff cochains and distributions

def birkhoff_cochain(diagram, h, k):
    """Tower sums of h: the cochain whose value on a level-k edge is the sum
    of h over the paths climbing that tower."""
    if k < h.level:
        raise ValueError("cochain level below the function level")
    hv = lift(diagram, h, k).values
    vals = []
    for a, b in path_table(diagram, k).blocks():
        total = 0
        for x in hv[a:b]:
            total = total + x
        vals.append(total)
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
    """The projection onto the pushed stabilized image W along the eventual
    kernel of the induced map, as a dim x dim matrix, with the spanning
    vectors of W at level k."""
    m = tower.map
    dim = len(m)
    shift = k - tower.k_prime
    w_vecs = [mat_vec(mat_pow(m, shift), list(v)) if shift else list(v)
              for v in tower.w_basis]
    kern = [list(v) for v in nullspace([list(r)
                                        for r in mat_pow(m, dim)])]
    cols = w_vecs + kern
    mat = [[cols[j][i] for j in range(len(cols))] for i in range(dim)]
    proj = [[0] * dim for _ in range(dim)]
    for c in range(dim):
        sol = solve_linear(mat, [1 if i == c else 0 for i in range(dim)])
        if sol is None:
            raise GluingInconsistencyError()
        for j in range(len(w_vecs)):
            for i in range(dim):
                proj[i][c] = proj[i][c] + sol[j] * w_vecs[j][i]
    return proj, w_vecs


@dataclass(frozen=True)
class Functionals:
    """The h-independent part of the distributions at one level: row i is
    the exact linear functional x -> <W-component of x, b_i>_w on H1
    coordinates, for the w-weighted Gram basis b_i of the measure direction
    and W, and norms[i] = <b_i, b_i>_w."""
    rows: tuple
    norms: tuple


def level_functionals(tower, k):
    """The distribution functionals of `tower` at level k, built on first
    use and kept on the tower (one entry per level, so at most
    max_level + 1)."""
    found = tower.functionals.get(k)
    if found is not None:
        return found
    space = tower.spaces[k]
    proj, w_vecs = _projection(tower, k)
    one = constant_function(tower.diagram, Fraction(1), 0)
    mu_coords, _ = reduce_cochain(space, birkhoff_cochain(tower.diagram,
                                                          one, k))
    w = tuple(space.complex.lengths[e] for e in space.basis_edges)
    basis = _gram_schmidt([list(mu_coords)] + w_vecs, w)
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
    from which every H1 space has the same dimension."""
    k_eval = max(tower.k_prime, h.level, len(tower.diagram.levels) - 1)
    if k_eval > tower.max_level:
        raise InsufficientStabilizationError("insufficient stabilization level")
    return k_eval


def distributions(h, tower, at_level=None):
    """The d invariant-distribution values on h, measure direction first.

    Values are floats (the Gram normalizer is a square root); the exact
    pairing numerators decide vanishing.  A call reduces the tower sums of
    h to H1 coordinates and applies the level's cached `level_functionals`."""
    k_eval = evaluation_level(tower, h)
    if at_level is not None:
        if not k_eval <= at_level <= tower.max_level:
            raise InsufficientStabilizationError(
                "insufficient stabilization level")
        k_eval = at_level
    coords, _ = reduce_cochain(tower.spaces[k_eval],
                               birkhoff_cochain(tower.diagram, h, k_eval))
    fn = level_functionals(tower, k_eval)
    out = []
    for i, (row, den) in enumerate(zip(fn.rows, fn.norms)):
        num = 0
        for f, x in zip(row, coords):
            num = num + f * x
        val = as_float(num) / math.sqrt(as_float(den))
        out.append(DistributionValue(index=i + 1, value=val, numerator=num,
                                     exact_zero=is_exact_zero(num)))
    return out


def certificate(h, tower):
    """The potential beta at the first level from the evaluation level on
    where the tower sums of h are exactly a coboundary on the class graph,
    as {"level", "beta"}; None when there is none up to max_level.  A
    certificate makes h a coboundary, so every distribution vanishes on it;
    when all distributions vanish, the reduced class dies within dim + 1
    induced-map steps."""
    k_eval = evaluation_level(tower, h)
    dim = len(tower.map)
    for level in range(k_eval, min(k_eval + dim + 2, tower.max_level + 1)):
        coords, beta = reduce_cochain(tower.spaces[level],
                                      birkhoff_cochain(tower.diagram, h,
                                                       level))
        if all(is_exact_zero(x) for x in coords):
            return {"level": level, "beta": beta}
    return None


def is_coboundary_class(h, tower):
    """Exact obstruction test with a constructive certificate.

    When every distribution vanishes, the reduced class dies under finitely
    many induced-map steps; the certificate is the potential beta at the
    first level where the pushed cochain is exactly a coboundary."""
    dvals = distributions(h, tower)
    flag = all(dv.exact_zero for dv in dvals)
    cert = certificate(h, tower) if flag else None
    return {
        "is_coboundary": flag and cert is not None,
        "distributions": dvals,
        "certificate": cert,
    }
