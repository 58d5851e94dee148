"""First cohomology of the graph approximants, the induced tower maps, the
limit rank, and the invariant distributions obstructing transfer equations.

Edge cochains assign a scalar to each tower edge; vertex cochains live on
the glued endpoint classes.  H1 is presented by the non-forest edges of a
spanning forest of the class graph, all arithmetic exact.  The pullback of
an edge cochain under the wrapping map sums the cochain over each wrapped
word, which on matrices is the level's incidence matrix acting on cochain
vectors; descended to H1 this yields the tower whose stabilized image
carries the distributions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .diagrams import enumerate_paths, path_range
from .errors import (GluingInconsistencyError, InsufficientStabilizationError,
                     RankNotStabilizedError)
from .martingale import constant_function
from .measures import cocycle_product
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
    spaces: tuple
    maps: tuple       # maps[k-1]: H1(k-1) -> H1(k)
    k_prime: int
    d: int
    w_basis: tuple    # coordinate vectors spanning W at level k_prime
    ranks: tuple
    stabilized: bool


def _column_space(m):
    cols = [tuple(row[j] for row in m) for j in range(len(m[0]))]
    basis = []
    for c in cols:
        test = basis + [list(c)]
        if rank([list(b) for b in test]) > len(basis):
            basis.append(list(c))
    return tuple(tuple(b) for b in basis)


def limit_rank(diagram, renorm, max_level=8):
    spaces = tuple(cohomology_basis(build_complex(diagram, renorm, k))
                   for k in range(max_level + 1))
    maps = tuple(induced_map(diagram, renorm, k)
                 for k in range(1, max_level + 1))
    if diagram.stationary:
        m = maps[0]
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
        return ClassTower(diagram=diagram, renorm=renorm,
                          max_level=max_level, spaces=spaces, maps=maps,
                          k_prime=k_prime, d=ranks[k_prime],
                          w_basis=w_basis, ranks=tuple(ranks),
                          stabilized=True)
    # non-stationary diagrams cannot reach here: their complexes already
    # refuse to glue
    raise RankNotStabilizedError()


# ---------------------------------------------------------------------------
# Birkhoff cochains and distributions

def birkhoff_cochain(diagram, h, k):
    """Tower sums of h: the cochain whose value on a level-k edge is the sum
    of h over the paths climbing that tower."""
    if k < h.level:
        raise ValueError("cochain level below the function level")
    vals = [0] * diagram.num_vertices(k)
    for p in enumerate_paths(diagram, 0, k):
        v = path_range(diagram, p)
        vals[v] = vals[v] + h.evaluate(diagram, p)
    return tuple(vals)


@dataclass(frozen=True)
class DistributionValue:
    index: int
    value: float
    numerator: object  # exact pairing before normalization when available
    exact_zero: bool


def _weights(space):
    return tuple(space.complex.lengths[e] for e in space.basis_edges)


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


def _fitting_split(tower, k_eval, coords):
    """Component of coords in the pushed stabilized image W, where the
    complement is the eventual kernel of the induced map."""
    m = tower.maps[0]
    dim = len(m)
    shift = k_eval - tower.k_prime
    w_vecs = [mat_vec(mat_pow(m, shift), list(v)) if shift else list(v)
              for v in tower.w_basis]
    kern = [list(v) for v in nullspace([list(r)
                                        for r in mat_pow(m, dim)])]
    cols = w_vecs + kern
    if not cols:
        return [0] * dim, w_vecs
    mat = [[cols[j][i] for j in range(len(cols))] for i in range(dim)]
    sol = solve_linear(mat, list(coords))
    if sol is None:
        raise GluingInconsistencyError()
    x_w = [0] * dim
    for j in range(len(w_vecs)):
        for i in range(dim):
            x_w[i] = x_w[i] + sol[j] * w_vecs[j][i]
    return x_w, w_vecs


def evaluation_level(tower, h):
    k_eval = max(tower.k_prime, h.level)
    if k_eval > tower.max_level:
        raise InsufficientStabilizationError("insufficient stabilization level")
    return k_eval


def distributions(h, tower, at_level=None):
    """The d invariant-distribution values on h, measure direction first.

    Values are floats (the Gram normalizer is a square root); the exact
    pairing numerators decide vanishing."""
    diagram = tower.diagram
    k_eval = evaluation_level(tower, h) if at_level is None else at_level
    if at_level is not None and (at_level < max(h.level, tower.k_prime)
                                 or at_level > tower.max_level):
        raise InsufficientStabilizationError("insufficient stabilization level")
    space = tower.spaces[k_eval]
    c = birkhoff_cochain(diagram, h, k_eval)
    coords, _ = reduce_cochain(space, c)
    x_w, w_vecs = _fitting_split(tower, k_eval, coords)
    one = constant_function(diagram, Fraction(1), 0)
    mu_coords, _ = reduce_cochain(space, birkhoff_cochain(diagram, one,
                                                          k_eval))
    w = _weights(space)
    basis = _gram_schmidt([list(mu_coords)] + w_vecs, w)
    out = []
    for i, b in enumerate(basis):
        num = _dot(w, x_w, b)
        den = _dot(w, b, b)
        val = as_float(num) / math.sqrt(as_float(den))
        out.append(DistributionValue(index=i + 1, value=val, numerator=num,
                                     exact_zero=is_exact_zero(num)))
    return out


def is_coboundary_class(h, tower):
    """Exact obstruction test with a constructive certificate.

    When every distribution vanishes, the reduced class dies under finitely
    many induced-map steps; the certificate is the potential beta at the
    first level where the pushed cochain is exactly a coboundary."""
    diagram = tower.diagram
    dvals = distributions(h, tower)
    flag = all(dv.exact_zero for dv in dvals)
    cert = None
    if flag:
        k_eval = evaluation_level(tower, h)
        dim = len(tower.maps[0]) if tower.maps else 0
        for t in range(dim + 2):
            level = k_eval + t
            if level > tower.max_level:
                break
            space = tower.spaces[level]
            c = birkhoff_cochain(diagram, h, level)
            coords, beta = reduce_cochain(space, c)
            if all(is_exact_zero(x) for x in coords):
                cert = {"level": level, "beta": beta}
                break
    return {
        "is_coboundary": flag and cert is not None,
        "distributions": dvals,
        "certificate": cert,
    }
