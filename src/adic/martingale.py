"""Cylinder functions, conditional expectations, Hoelder norms, and the
weighted norms of bump-smoothed level components.

A CylinderFunction of level m >= 1 assigns a value to every path prefix in
E_{0,m}, keyed by the edge tuple; a level-0 function is keyed by the source
vertex.  Values may be Fractions, quadratic-field elements, or floats, and
projection/difference operations stay in the same field.  The bump profile
used for smoothing is the fixed polynomial c*(1 - (5t/tau)^2)^3, whose
integral is exactly one and whose derivative sup-norms have closed forms; it
is C^2 at the support boundary (u, u', u'' vanish there) while its third
derivative is bounded but jumps there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .diagrams import (LazyPath, FinitePath, enumerate_paths, materialize,
                       eventual_image, min_source_map, max_source_map,
                       extreme_min_lazy, extreme_max_lazy, path_range,
                       path_source, step, step_tables)
from .errors import BumpSmoothnessError, NotProperlyOrderedError
from .measures import xi_vector
from .scalars import as_float


def cylinder_key(diagram, edges, k):
    """Canonical dict key of the level-k cylinder containing a path with the
    given edge tuple: the first k edges, or the source vertex when k == 0."""
    if k == 0:
        if not edges:
            raise ValueError("need at least one edge to locate the source")
        return diagram.level(1).source(edges[0])
    return tuple(edges[:k])


def _path_key(diagram, p, k):
    if k == 0:
        return path_source(diagram, p)
    return p.edges[:k]


@dataclass
class CylinderFunction:
    level: int
    values: dict  # level-k edge tuple (or vertex when level == 0) -> scalar

    def evaluate(self, diagram, x):
        if isinstance(x, LazyPath):
            key = _path_key(diagram,
                            materialize(diagram, x, max(self.level, 1)),
                            self.level)
        elif isinstance(x, FinitePath):
            if len(x.edges) < self.level or x.start != 0:
                raise ValueError("path too short for this cylinder function")
            key = _path_key(diagram, x, self.level)
        else:
            key = cylinder_key(diagram, tuple(x), self.level)
        return self.values[key]

    def __add__(self, other):
        return _pointwise(self, other, lambda a, b: a + b)

    def __sub__(self, other):
        return _pointwise(self, other, lambda a, b: a - b)

    def __mul__(self, other):
        if isinstance(other, CylinderFunction):
            return _pointwise(self, other, lambda a, b: a * b)
        return CylinderFunction(self.level,
                                {k: v * other for k, v in self.values.items()})

    def __rmul__(self, other):
        return self.__mul__(other)

    def __neg__(self):
        return CylinderFunction(self.level,
                                {k: -v for k, v in self.values.items()})

    def sup_norm(self):
        return max((abs(as_float(v)) for v in self.values.values()),
                   default=0.0)

    def is_zero(self):
        return all(v == 0 for v in self.values.values())


def constant_function(diagram, value, level=0):
    vals = {_path_key(diagram, p, level): value
            for p in enumerate_paths(diagram, 0, level)}
    return CylinderFunction(level, vals)


def _pointwise(a, b, op):
    if a.level != b.level:
        raise ValueError("align levels with lift() before combining")
    if set(a.values) != set(b.values):
        raise ValueError("cylinder supports differ")
    return CylinderFunction(a.level, {k: op(a.values[k], b.values[k])
                                      for k in a.values})


def from_vector(diagram, level, vec):
    paths = enumerate_paths(diagram, 0, level)
    if len(vec) != len(paths):
        raise ValueError("expected %d values, got %d" % (len(paths), len(vec)))
    return CylinderFunction(level, {_path_key(diagram, p, level): v
                                    for p, v in zip(paths, vec)})


def as_vector(diagram, h):
    return [h.values[_path_key(diagram, p, h.level)]
            for p in enumerate_paths(diagram, 0, h.level)]


def lift(diagram, h, k):
    """Re-key h on level-k prefixes (k >= h.level)."""
    if k < h.level:
        raise ValueError("lift goes to finer levels only")
    if k == h.level:
        return h
    vals = {}
    for p in enumerate_paths(diagram, 0, k):
        vals[_path_key(diagram, p, k)] = h.values[_path_key(diagram, p,
                                                            h.level)]
    return CylinderFunction(k, vals)


def nu_mean(diagram, h):
    """Integral against the unique tail-invariant probability measure."""
    xi = xi_vector(diagram, h.level)
    total = 0
    for p in enumerate_paths(diagram, 0, h.level):
        total = total + xi[path_range(diagram, p)] * \
            h.values[_path_key(diagram, p, h.level)]
    return total


def project(diagram, h, k):
    """Conditional expectation onto level-k cylinders (exact in the field)."""
    if k >= h.level:
        return lift(diagram, h, k)
    xi_m = xi_vector(diagram, h.level)
    xi_k = xi_vector(diagram, k)
    acc = {}
    for p in enumerate_paths(diagram, 0, h.level):
        key = _path_key(diagram, p, k)
        w = xi_m[path_range(diagram, p)] * h.values[_path_key(diagram, p,
                                                              h.level)]
        acc[key] = acc.get(key, 0) + w
    out = {}
    for q in enumerate_paths(diagram, 0, k):
        out[_path_key(diagram, q, k)] = \
            acc[_path_key(diagram, q, k)] / xi_k[path_range(diagram, q)]
    return CylinderFunction(k, out)


def delta(diagram, h, k):
    """Martingale difference between consecutive projections; the projection
    below level 0 is zero, so delta at 0 is the level-0 projection itself."""
    pk = project(diagram, h, min(k, h.level))
    if k == 0:
        return pk
    pk1 = lift(diagram, project(diagram, h, min(k - 1, h.level)), pk.level)
    return pk - pk1


def holder_norm(diagram, h, alpha, lam):
    """Exact-attained Hoelder data of a cylinder function.

    The seminorm sup |h(x)-h(y)| / d(x,y)^alpha is attained on pairs of
    level-m cylinders; per disagreement level j the extremal spread is found
    with a prefix tree (top-2 bookkeeping avoids same-subtree pairs)."""
    if h.level == 0:
        h = lift(diagram, h, 1)
    m = h.level
    lamf = as_float(lam)
    semi = 0.0
    groups = {(): [(k if isinstance(k, tuple) else (), v)
                   for k, v in h.values.items()]}
    for j in range(1, m + 1):
        best = 0.0
        nxt = {}
        for pref, items in groups.items():
            per_child = {}
            for edges, v in items:
                per_child.setdefault(edges[j - 1], []).append((edges, v))
                nxt.setdefault(edges[:j], []).append((edges, v))
            if len(per_child) > 1:
                stats = []
                for ch, its in per_child.items():
                    vals = [as_float(v) for _, v in its]
                    stats.append((min(vals), max(vals), ch))
                lo = sorted(stats, key=lambda t: t[0])
                hi = sorted(stats, key=lambda t: -t[1])
                if lo[0][2] != hi[0][2]:
                    spread = hi[0][1] - lo[0][0]
                else:
                    spread = max(
                        hi[0][1] - (lo[1][0] if len(lo) > 1 else hi[0][1]),
                        (hi[1][1] if len(hi) > 1 else lo[0][0]) - lo[0][0])
                best = max(best, spread)
        if best > 0:
            semi = max(semi, best * lamf ** ((j - 1) * alpha))
        groups = nxt
    sup = h.sup_norm()
    return {"sup": sup, "seminorm": semi, "norm": sup + semi}


# ---------------------------------------------------------------------------
# bump profile and weighted norms

_INT_FACTOR = Fraction(32, 35)  # integral of (1-s^2)^3 over [-1, 1]


@dataclass
class BumpProfile:
    tau: object  # exact scalar or float; support radius is tau/5

    @property
    def height(self):
        # c with integral c * (tau/5) * 32/35 == 1
        return Fraction(175, 32) / self.tau

    def deriv_sup(self, j):
        """Closed-form sup |u^{(j)}| for j <= 3."""
        c = as_float(self.height)
        s = 5.0 / as_float(self.tau)
        if j == 0:
            return c
        if j == 1:
            return c * s * 96.0 / (25.0 * math.sqrt(5.0))
        if j == 2:
            return c * s * s * 6.0
        if j == 3:
            return c * s ** 3 * 48.0
        raise BumpSmoothnessError()

    def cr_norm(self, r):
        if r > 3:
            raise BumpSmoothnessError()
        return sum(self.deriv_sup(j) for j in range(r + 1))

    def integral_exact(self):
        return self.height * (self.tau / 5) * _INT_FACTOR

    def value(self, t):
        tf, tauf = as_float(t), as_float(self.tau)
        s = 5.0 * tf / tauf
        if abs(s) >= 1.0:
            return 0.0
        return as_float(self.height) * (1.0 - s * s) ** 3


def bump_from_roof(renorm):
    """Support radius tied to the shortest level-0 edge."""
    tau = renorm.roof[0]
    for x in renorm.roof[1:]:
        if x < tau:
            tau = x
    return BumpProfile(tau)


@dataclass
class LevelComponent:
    level: int
    peak: float  # max |delta_k h| over level-k cylinders
    bump: BumpProfile = None

    def cr_norm(self, r, lam):
        lamf = as_float(lam)
        return sum(lamf ** (j * self.level) * self.bump.deriv_sup(j)
                   for j in range(r + 1)) * self.peak


def decompose(diagram, h, renorm, bump=None):
    """Level components of the bump-smoothed martingale expansion of h."""
    if bump is None:
        bump = bump_from_roof(renorm)
    comps = []
    for k in range(h.level + 1):
        d = delta(diagram, h, k)
        peak = max((abs(as_float(v)) for v in d.values.values()), default=0.0)
        comps.append(LevelComponent(level=k, peak=peak, bump=bump))
    return comps


def weighted_norms(components, r, alpha, epsilon, lam):
    lamf = as_float(lam)
    vals = [(c.level, c.cr_norm(r, lam)) for c in components]
    return {
        "sum_norm": sum(lamf ** (alpha * k) * v for k, v in vals),
        "sup_norm": max((lamf ** ((alpha - epsilon) * k) * v
                         for k, v in vals), default=0.0),
    }


# ---------------------------------------------------------------------------
# composition with the adic map

def phi_transient(diagram, direction=1):
    """(T, v*) for the min (direction=1) or max (direction=-1) in-edge source
    map of a stationary diagram: T is the least t with image(map^t) a single
    vertex v*.  Raises when the eventual image is not a single vertex."""
    if not diagram.stationary:
        raise NotProperlyOrderedError("composition needs a stationary diagram")
    ld = diagram.level(len(diagram.levels) + 1)
    fmap = (min_source_map if direction == 1 else max_source_map)(ld)
    ev = eventual_image(fmap)
    if len(ev) != 1:
        raise NotProperlyOrderedError()
    cur = set(range(len(fmap)))
    t = 0
    while len(cur) > 1:
        cur = {fmap[v] for v in cur}
        t += 1
    return t, ev[0]


def compose_phi(diagram, h, power=1):
    """h composed with phi^power exactly, as a cylinder function of level
    L = max(h.level + |power| * T, 1), T the transient of the min (or, for
    negative powers, max) in-edge source map.

    One pass: every level-L path is stepped |power| times by the carry
    kernel, and a prefix whose edges are all extreme wraps to the extreme
    path.  After j steps its first L - j*T edges agree with phi^j of every
    point of the cylinder, since extreme chains reach v* within T levels;
    this needs the relevant extreme path to be unique, else the composition
    is not transversally locally constant."""
    if power == 0:
        return h
    direction = 1 if power > 0 else -1
    T, _ = phi_transient(diagram, direction)
    m = h.level
    L = max(m + abs(power) * T, 1)
    ext = (extreme_min_lazy if direction == 1 else extreme_max_lazy)(diagram)
    wrapped = materialize(diagram, ext, L).edges
    tables = step_tables(diagram, L, direction)
    vals = {}
    for p in enumerate_paths(diagram, 0, L):
        digits = list(p.edges)
        for _ in range(abs(power)):
            if not step(tables, digits):
                digits = list(wrapped)
        vals[p.edges] = h.values[cylinder_key(diagram, digits, m)]
    return CylinderFunction(L, vals)
