"""Constructive transfer-equation solver and orbit-sum instrumentation.

The solver turns the certificate of a cylinder class into an explicit
solution of  h = g o phi - g.  At the certificate level every block sum of
h, its sum over the paths of one tower, is exactly 0.  There is one exactly
when the block sums project to 0 on W, the eventual image of the repeating
matrix A, where the invariant distributions are read: the traces tau_i on
K_0 (x) Q = lim (Q^V, A).  g is then read off cylinder by cylinder as the
partial sum of h over the predecessors of that cylinder inside its tower,
so it is 0 at every tower floor.  Interior steps telescope by construction,
and a step out of the ceiling of a tower into the floor of the next one
gives 0 - (block sum - h) = h.  The residual is therefore zero exactly, not
to within a tolerance, and is verified as such.  h's integer columns over
one denominator are read once per function (`CylinderFunction.parts`, a
finite float as the dyadic rational it stores): the certificate, partial
sums, gauge totals and residual check run on integers, and g is built from
its own columns (`CylinderFunction.of_parts`), its values only when read.

Regularity bookkeeping is deliberately two-sided: exact attained Hoelder
norms of h and g give an empirical ratio, while the assembled theoretical
constant is the product of three factors computed from the diagram data
(bump profile, graph diameter, scale gaps), never asserted a priori.

Orbit sums are read from tower tables, not stepped.  The forward orbit of a
path x is the rest of its level-m block, then, for each level k > m, the
level-(k-1) towers over the sources of the in-edges after x_k, cut at the
checkpoints down to ranges: a schedule of tower heights that every function
of level m walks (`_orbit_schedule`, kept with the diagram).  A range of level-m cylinders
is summarized off one prefix column of h's exact values as (height, sum,
max prefix sum, min prefix sum), so every sum is exact, and a tower by the
fold (n1, s1, M1, mu1) . (n2, s2, M2, mu2) = (n1+n2, s1+s2, max(M1, s1+M2),
min(mu1, s1+mu2)).  When every remaining edge of x is maximal the orbit
wraps to the minimal path, phi(max) = min.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate
from operator import add, mul
from fractions import Fraction

from .cohomology import block_sums, distributions, evaluation_level
from .diagrams import (FinitePath, PathWalker, extreme, owned, path_index,
                       path_table)
from .errors import ObstructedError, PreconditionError
from .martingale import (CylinderFunction, bump_from_roof, field_values,
                         float_values, gather, holder_norm, integer_parts,
                         one_field, padded, residual_rows, weighted)
from .measures import xi_vector
from .scalars import mat_vec
from .solenoid import build_complex, diameter


@dataclass(frozen=True)
class TransferSolution:
    """The solution of `solve`.  The one dataclass of the package: the
    benchmark's self-test bends a solution with `dataclasses.replace`."""
    g: object            # CylinderFunction at the certificate level
    gauge: object        # additive constant removed (nu-mean of the raw g)
    residual: object     # exact sup norm of h - (g o phi - g)
    level: int
    norms: object        # {"h_norm","g_norm","k_ratio"} when alpha was given


def _residual(diagram, h, g):
    """sup |h - (g o phi - g)|, exactly.  h, g o phi and g are read at one
    level through the stored rows of `residual_rows`, each distinct index
    triple once, which leaves the sup as it is.  The differences are taken
    on the integer columns (`CylinderFunction.parts`) of h and of g, a
    missing coefficient column being 0, over the denominator of both; a
    float g is the dyadic rational it stores, so they are exact too.  The
    residual is the int 0 only when every difference is 0, and otherwise
    their largest absolute value in the field."""
    ih, iphi, ig = residual_rows(diagram, h.level, g.level)
    (hq, hcols, hd), (gq, gcols, gd) = h.parts, g.parts
    width = max(len(hcols), len(gcols))
    diffs = [[p[a] * gq - (r[b] - r[c]) * hq for a, b, c in zip(ih, iphi, ig)]
             for p, r in zip(padded(hcols, width), padded(gcols, width))]
    if not any(map(any, diffs)):
        return 0
    return max(map(abs, field_values(hq * gq, diffs, hd or gd)))


@owned
def _xi(diagram, level):
    """The cylinder weights xi of a level (`measures.xi_vector`) as integer
    columns (D, cols, field), kept with the diagram: past the materialized
    levels each build raises 1/lambda to a power."""
    return integer_parts(xi_vector(diagram, level))


def _gauged(level, q, runs, totals, d, xq, xcols, xd):
    """(gauge, g): the gauge xi . totals / q, and g of the integer columns
    over G = D q of runs / q - gauge.  Column k of xi (`_xi`) dot
    column j of the totals adds to theta^(k+j), reduced mod the field's
    polynomial: the gauge is the one scalar built."""
    field = one_field((d, xd))
    num = [0] * (len(xcols) + len(totals) - 1)
    for k, x in enumerate(xcols):
        for j, t in enumerate(totals):
            num[k + j] += sum(map(mul, x, t))
    num = [[c] for c in (field.reduce(num) if field else num)]
    width = max(len(runs), len(num))
    return field_values(xq * q, num, field)[0], CylinderFunction.of_parts(
        level, xq * q, [[r * xq - c for r in run] for run, (c,) in
                        zip(padded(runs, width), padded(num, width))], field)


def solve(h, tower, alpha=None, epsilon=Fraction(1, 4)):
    """Solve h = g o phi - g, gauge-fixed to nu-mean 0.

    h's integer columns over one denominator q (`CylinderFunction.parts`)
    feed the certificate search, the partial sums of h along each tower
    and the residual check, all on integers.  The certificate is the first
    level from the evaluation level on at which every block sum of h is 0;
    A carries them up a level, and the eventual kernel of A is the kernel
    of A^k', so the search ends k' levels up.  The gauge is xi's integer
    columns (`_xi`) times the integer tower totals of the partial sums,
    over q (`_gauged`), and g is built from its own integer columns
    (`CylinderFunction.of_parts`).  Only when the certificate search finds
    none are the distributions computed, for the ObstructedError they
    carry.  The returned residual is computed, not assumed.  The exponent
    alpha - 2 - epsilon of g's norm must be positive, and is checked first;
    then the minimal path must be unique (`diagrams.extreme`), as g o phi
    needs phi whatever h is."""
    if alpha is not None:
        _need_alpha(alpha, epsilon)
    diagram = tower.diagram
    extreme(diagram, 1)
    q, cols, d = h.parts
    level = evaluation_level(tower, h)
    top = level + tower.k_prime
    sums = block_sums(diagram, h.level, cols, level)
    while any(map(any, sums)):
        if level == top:
            raise ObstructedError([dv.value for dv in distributions(h, tower)])
        sums, level = [mat_vec(tower.map, s) for s in sums], level + 1
    idx = gather(diagram, h.level, 0, level)
    blocks = list(path_table(diagram, level).blocks())
    runs = []
    for col in cols:
        lifted = [col[i] for i in idx]
        runs.append([x for a, b in blocks
                     for x in accumulate(lifted[a:b - 1], initial=0)])
    totals = [[sum(run[a:b]) for a, b in blocks] for run in runs]
    gauge, g = _gauged(level, q, runs, totals, d, *_xi(diagram, level))
    norms = None
    if alpha is not None:
        norms = solution_norms(
            diagram, tower.renorm,
            CylinderFunction(h.level, float_values(q, cols, d)),
            CylinderFunction(level, float_values(*g.parts)), alpha, epsilon)
    return TransferSolution(g=g, gauge=gauge,
                            residual=_residual(diagram, h, g),
                            level=level, norms=norms)


def _need_alpha(alpha, epsilon):
    if not float(alpha) - 2 - float(epsilon) > 0:
        raise PreconditionError("need alpha > 2 + epsilon, got alpha %s and "
                                "epsilon %s" % (alpha, epsilon))


def solution_norms(diagram, renorm, h, g, alpha, epsilon):
    lam = renorm.lam_float
    hn = holder_norm(diagram, h, alpha, lam)["norm"]
    gn = holder_norm(diagram, g, float(alpha) - 2.0 - float(epsilon),
                     lam)["norm"]
    return {"h_norm": hn, "g_norm": gn,
            "k_ratio": 0.0 if hn == 0.0 else gn / hn}


def chained_constant(diagram, renorm, alpha, epsilon):
    """The theoretical norm-loss constant, assembled from computed pieces.

    Three factors, with the regularity budget epsilon split evenly across
    the three estimates that consume it: a bump factor (C^1 data of the
    canonical bump against the scale gap), a mean-variation factor (one
    graph diameter, since every approximant here is isometric to the base),
    and a return-restriction factor."""
    _need_alpha(alpha, epsilon)
    lam = renorm.lam_float
    a = float(alpha)
    eps = float(epsilon)
    e = eps / 3.0
    u = bump_from_roof(renorm)
    diam = float(diameter(build_complex(diagram, renorm, 0)))
    c_bump = weighted(2.0, lam, a, alpha) * u.cr_norm(1) / (
        (lam - 1.0) * (1.0 - lam ** (-e)))
    c_mean = diam
    c_return = 1.0 + diam / (1.0 - lam ** (2.0 + eps - a))
    constant = weighted(c_bump * c_mean * c_return, alpha=alpha)
    return {"bump_factor": c_bump, "mean_variation_factor": c_mean,
            "return_factor": c_return, "constant": constant}


# ---------------------------------------------------------------------------
# orbit sums

class BirkhoffReport(namedtuple("BirkhoffReport", "n_total checkpoints "
                                "sup_abs mean_rate exponent r_squared "
                                "claimed")):
    """The orbit sums of `birkhoff`: checkpoints, (n, S_n) pairs, S_n exact
    when h is exact; sup_abs, max |S_n| over 1 <= n <= n_total; mean_rate,
    S_N / N as a float; exponent, the fitted log-log slope, or None;
    claimed, whether the fit is accepted: >= 3 points and R^2 >= 0.9."""
    __slots__ = ()


def _fit_exponent(points, n_total):
    """Least squares of log|S_n| on log n over the top two decades."""
    def total(terms):  # left to right, as sum() adds floats before 3.12
        return reduce(add, terms, 0)
    pts = [(math.log(n), math.log(abs(float(s))))
           for n, s in points
           if 100 * n >= n_total and float(s) != 0.0]
    if len(pts) < 3:
        return None, None, False
    mx = total(x for x, _ in pts) / len(pts)
    my = total(y for _, y in pts) / len(pts)
    sxx = total((x - mx) ** 2 for x, _ in pts)
    if sxx == 0.0:
        return None, None, False
    slope = total((x - mx) * (y - my) for x, y in pts) / sxx
    icept = my - slope * mx
    ss_res = total((y - slope * x - icept) ** 2 for x, y in pts)
    ss_tot = total((y - my) ** 2 for _, y in pts)
    r2 = 1.0 if ss_res <= 1e-18 else 1.0 - ss_res / ss_tot
    return slope, r2, r2 >= 0.9


class _Towers:
    """Summaries of one quantity along towers, built upward on demand.
    Depth 0 names ranges (a, b) of level-m cylinders; depth j >= 1 holds,
    per vertex v of V_(m+j-1), the tower of level-(m+j-1) paths into v:
    `leaf(a, b)` of the block of v at level m for j = 1, and otherwise the
    depth-(j-1) towers over the sources of the in-edges of v, in the
    in-order, folded in plain loops by the rule of the module docstring."""

    def __init__(self, diagram, m, leaf):
        self.diagram, self.m = diagram, m
        self.offsets = offsets = path_table(diagram, m).offsets
        self.depths = [None, [leaf(*key) for key in zip(offsets, offsets[1:])]]

    def grow(self, j):
        while len(self.depths) <= j:
            ld = self.diagram.level(self.m + len(self.depths) - 1)
            below, level = self.depths[-1], []
            for order in ld.in_order:
                n, s, hi, lo = 0, 0, 0, 0
                for e in order:
                    rn, rs, rhi, rlo = below[ld.edges[e][0]]
                    top, bottom = s + rhi, s + rlo
                    hi = top if not n or top > hi else hi
                    lo = bottom if not n or bottom < lo else lo
                    n, s = n + rn, s + rs
                level.append((n, s, hi, lo))
            self.depths.append(level)
        return self.depths

    def parts(self, j, key):
        """The runs of depth j - 1 that make up a tower, in orbit order."""
        if j == 1:
            return [(0, (self.offsets[key], self.offsets[key + 1]))]
        ld = self.diagram.level(self.m + j - 1)
        return [(j - 1, ld.source(e)) for e in ld.in_order[key]]


def _orbit_runs(diagram, start, towers):
    """The forward orbit of `start` as consecutive runs (depth, key) of
    `towers`: the rest of its level-m block as one range, then at each level
    k > m the nonempty level-(k-1) towers over the sources of the in-edges
    after x_k.  When no path follows (the walker state repeats with no tower
    between), the orbit goes on from the minimal path: phi(max) = min."""
    m, offsets, x = towers.m, towers.offsets, start
    while True:
        w = PathWalker(diagram, x)
        cell = FinitePath(tuple(w.advance()[1] for _ in range(m)))
        yield 0, (path_index(diagram, cell, m), offsets[w.vertex + 1])
        seen = set()
        while True:
            st = w.state()
            if st is not None:
                if st in seen:
                    break
                seen.add(st)
            k, e = w.advance()
            ld, tall = diagram.level(k), towers.grow(k - m)[k - m]
            order = ld.in_order[ld.range(e)]
            for f in order[ld.order_pos[e] + 1:]:
                if tall[ld.source(f)][0]:
                    seen.clear()
                    yield k - m, ld.source(f)
        x = extreme(diagram, 1)[2]


@owned
def _orbit_schedule(diagram, start, m, n_total):
    """(deepest depth, ((n, runs), ...)): the runs of the orbit of `start`
    up to each checkpoint n from the one before, flat as ints (depth, a, b):
    a range (a, b) at depth 0, the tower over vertex a (b = 0) above."""
    heights = _Towers(diagram, m, lambda a, b: (b - a,) * 4)  # heights only
    runs, depths = _orbit_runs(diagram, start, heights), heights.depths
    n, out, stack = 0, [], []
    for stop in [1 << i for i in range((n_total - 1).bit_length())] + \
            [n_total]:
        flat = []
        while n < stop:
            j, key = stack.pop() if stack else next(runs)
            if not j and n + key[1] - key[0] > stop:
                # a range that a checkpoint cuts: the rest waits on the stack
                a, b = key
                key = a, a + stop - n
                stack.append((0, (key[1], b)))
            size = depths[j][key][0] if j else key[1] - key[0]
            if n + size > stop:  # a cut tower: its parts one level down
                stack.extend(reversed(heights.parts(j, key)))
                continue
            flat.extend((j, key, 0) if j else (j, *key))
            n += size
        out.append((n, tuple(flat)))
    return max(max(flat[::3]) for _, flat in out), tuple(out)


def birkhoff(diagram, h, start, n_total):
    """S_n = sum_{j<n} h(phi^j start) at n = 1, 2, 4, ... below n_total
    and at n_total, with an exponent fit.

    The orbit is a sequence of whole towers and ranges of level-m cylinders
    (`_orbit_runs`), cut at the checkpoints into a schedule that no value of
    h changes (`_orbit_schedule`, cached).  The sums are read along it from
    per-level tables (`_Towers`) of each tower's height, sum and extreme
    prefix sums, about log n levels, so a call costs O(levels * in-degree)
    per checkpoint plus the ranges it reads, not one step per iterate.
    sup_abs is read off the extreme prefix sums, so it is exact.  Every
    range is read off one prefix column of h's exact values (`parts`): the
    integer column over q of rational or float h (a finite float is the
    dyadic rational it stores), or the field values of h in Q(lambda).
    Float input reports the float nearest each exact sum, rational input
    its Fraction; their fit and mean_rate read acc / q, correctly rounded.
    NaN, an infinity or two fields raise PreconditionError, as in `solve`."""
    if n_total < 1:
        raise ValueError("need at least one iterate")
    q, cols, field = h.parts
    if field is None:
        floats = any(issubclass(t, float) for t in set(map(type, h.values)))
        table, inexact = cols[0], (lambda a: a / q)
        exact = inexact if floats else (lambda a: Fraction(a, q))
    else:
        table, exact = field_values(q, cols, field), (lambda a: a)
        inexact = exact
    m = max(h.level, 1)
    if not h.level:
        table = [table[i] for i in path_table(diagram, 1).parent]
    col = list(accumulate(table, initial=0))

    def leaf(a, b):
        base, rest = col[a], col[a + 1:b + 1]
        return (b - a, col[b] - base, max(rest, default=base) - base,
                min(rest, default=base) - base)
    towers = _Towers(diagram, m, leaf)
    deepest, schedule = _orbit_schedule(diagram, start, m, n_total)
    depths, acc, sup, out = towers.grow(deepest), 0, 0, []
    for n, flat in schedule:
        for j, a, b in zip(*[iter(flat)] * 3):
            if j:
                _, s, hi, lo = depths[j][a]
                top, bottom, acc = acc + hi, -(acc + lo), acc + s
            else:  # a range, read off the prefix column
                base, rest = acc - col[a], col[a + 1:b + 1]
                top, bottom = base + max(rest), -(base + min(rest))
                acc = base + col[b]
            sup = top if top > sup else sup
            sup = bottom if bottom > sup else sup
        out.append((n, acc))
    points = [(n, inexact(s)) for n, s in out]
    slope, r2, ok = _fit_exponent(points, n_total)
    return BirkhoffReport(n_total=n_total,
                          checkpoints=tuple((n, exact(s)) for n, s in out),
                          sup_abs=exact(sup),
                          mean_rate=float(points[-1][1]) / n_total,
                          exponent=slope, r_squared=r2, claimed=ok)
