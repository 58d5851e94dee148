"""Constructive transfer-equation solver and orbit-sum instrumentation.

The solver turns the vanishing certificate of a cylinder class into an
explicit solution of  h = g o phi - g.  At the certificate level the tower
sums of h form an exact vertex-potential coboundary on the class graph; g is
then read off cylinder by cylinder as the partial sum of h over the
predecessors of that cylinder inside its tower, anchored by the potential at
the tower floor.  Interior steps telescope by construction, and tower exits
are absorbed by the boundary gluing, which identifies the ceiling class of
each tower with the floor class of every tower the successor map can land
in.  The residual is therefore zero exactly, not to within a tolerance, and
is verified as such.

Regularity bookkeeping is deliberately two-sided: exact attained Hoelder
norms of h and g give an empirical ratio, while the assembled theoretical
constant is the product of three factors computed from the diagram data
(bump profile, graph diameter, scale gaps), never asserted a priori.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .cohomology import is_coboundary_class
from .diagrams import (FinitePath, LazyPath, Tail, enumerate_paths,
                       materialize, path_table, step, step_tables, successor)
from .errors import ObstructedError
from .martingale import (CylinderFunction, bump_from_roof, compose_phi,
                         holder_norm, lift, nu_mean)
from .scalars import as_float
from .solenoid import build_complex, diameter


@dataclass(frozen=True)
class TransferSolution:
    g: object            # CylinderFunction at the certificate level
    gauge: object        # additive constant removed (nu-mean of the raw g)
    residual: object     # exact sup norm of h - (g o phi - g)
    level: int
    norms: object        # {"h_norm","g_norm","k_ratio"} when alpha was given


def _sup_abs(values):
    out = 0
    for v in values:
        a = -v if v < 0 else v
        if a > out:
            out = a
    return out


def _residual(diagram, h, g):
    gphi = compose_phi(diagram, g, 1)
    top = max(h.level, g.level, gphi.level, 1)
    diff = lift(diagram, h, top) - (lift(diagram, gphi, top) -
                                    lift(diagram, g, top))
    return _sup_abs(diff.values)


def solve(h, tower, alpha=None, epsilon=Fraction(1, 4)):
    """Solve h = g o phi - g, gauge-fixed to nu-mean 0.

    Requires the class of h to vanish; otherwise ObstructedError carries the
    distribution values.  The returned residual is computed, not assumed."""
    diagram = tower.diagram
    verdict = is_coboundary_class(h, tower)
    if not verdict["is_coboundary"]:
        raise ObstructedError([dv.value for dv in verdict["distributions"]])
    level = verdict["certificate"]["level"]
    beta = verdict["certificate"]["beta"]
    cx = tower.spaces[level].complex
    hv = lift(diagram, h, level).values
    vals = []
    for v, (a, b) in enumerate(path_table(diagram, level).blocks()):
        anchor = beta[cx.start_class[v]]
        run = 0
        for x in hv[a:b]:
            vals.append(anchor + run)
            run = run + x
    gauge = nu_mean(diagram, CylinderFunction(level, vals))
    g = CylinderFunction(level, [x - gauge for x in vals])
    norms = None
    if alpha is not None:
        norms = solution_norms(diagram, tower.renorm, h, g, alpha, epsilon)
    return TransferSolution(g=g, gauge=gauge,
                            residual=_residual(diagram, h, g),
                            level=level, norms=norms)


def solution_norms(diagram, renorm, h, g, alpha, epsilon):
    lam = renorm.lam_float
    hn = holder_norm(diagram, h, as_float(alpha), lam)["norm"]
    gn = holder_norm(diagram, g,
                     as_float(alpha) - 2.0 - as_float(epsilon), lam)["norm"]
    return {"h_norm": hn, "g_norm": gn,
            "k_ratio": 0.0 if hn == 0.0 else gn / hn}


def chained_constant(diagram, renorm, alpha, epsilon):
    """The theoretical norm-loss constant, assembled from computed pieces.

    Three factors, with the regularity budget epsilon split evenly across
    the three estimates that consume it: a bump factor (C^1 data of the
    canonical bump against the scale gap), a mean-variation factor (one
    graph diameter, since every approximant here is isometric to the base),
    and a return-restriction factor."""
    lam = renorm.lam_float
    a = as_float(alpha)
    eps = as_float(epsilon)
    if not a - 2.0 - eps > 0.0:
        raise ValueError("need alpha > 2 + epsilon")
    e = eps / 3.0
    u = bump_from_roof(renorm)
    diam = as_float(diameter(build_complex(diagram, renorm, 0)))
    c_bump = 2.0 * lam ** a * u.cr_norm(1) / ((lam - 1.0) *
                                              (1.0 - lam ** (-e)))
    c_mean = diam
    c_return = 1.0 + diam / (1.0 - lam ** (2.0 + eps - a))
    return {"bump_factor": c_bump, "mean_variation_factor": c_mean,
            "return_factor": c_return,
            "constant": c_bump * c_mean * c_return}


def regularity_report(diagram, renorm, h, g, alpha, epsilon_grid):
    """Per-epsilon table: exact Hoelder norms of both sides, the empirical
    ratio (0 by convention when h vanishes), and the chained constant."""
    lam = renorm.lam_float
    hn = holder_norm(diagram, h, as_float(alpha), lam)["norm"]
    rows = []
    for eps in epsilon_grid:
        gn = holder_norm(diagram, g,
                         as_float(alpha) - 2.0 - as_float(eps), lam)["norm"]
        theory = chained_constant(diagram, renorm, alpha, eps)
        rows.append({"epsilon": as_float(eps),
                     "h_norm": hn,
                     "g_norm": gn,
                     "empirical_k": 0.0 if hn == 0.0 else gn / hn,
                     "theoretical_k": theory["constant"]})
    return rows


# ---------------------------------------------------------------------------
# orbit sums

@dataclass(frozen=True)
class BirkhoffReport:
    n_total: int
    checkpoints: tuple   # (n, S_n) pairs; S_n exact when h is exact
    sup_abs: object      # max |S_n| over 1 <= n <= n_total
    mean_rate: float     # S_N / N as a float
    exponent: object     # fitted log-log slope, or None
    r_squared: object
    claimed: bool        # fit accepted: >= 3 points and R^2 >= 0.9


def _geometric_checkpoints(n_total):
    out = []
    c = 1
    while c < n_total:
        out.append(c)
        c *= 2
    out.append(n_total)
    return out


def _fit_exponent(points, n_total):
    """Least squares of log|S_n| on log n over the top two decades."""
    pts = [(math.log(n), math.log(abs(as_float(s))))
           for n, s in points
           if 100 * n >= n_total and as_float(s) != 0.0]
    if len(pts) < 3:
        return None, None, False
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    if sxx == 0.0:
        return None, None, False
    slope = sum((x - mx) * (y - my) for x, y in pts) / sxx
    icept = my - slope * mx
    ss_res = sum((y - slope * x - icept) ** 2 for x, y in pts)
    ss_tot = sum((y - my) ** 2 for _, y in pts)
    r2 = 1.0 if ss_res <= 1e-18 else 1.0 - ss_res / ss_tot
    return slope, r2, r2 >= 0.9


def birkhoff(diagram, h, start, n_total, checkpoints=None):
    """S_n = sum_{j<n} h(phi^j start) at checkpoints, with an exponent fit.

    The orbit is driven by the carry kernel `diagrams.step` on a finite
    window of digits, moved in place.  When every edge of the window is
    maximal, the step is delegated to the lazy successor, which is exact and
    rare, and the window grows to the new path's prefix.  Rational inputs
    are accumulated as integers against a common denominator, so every
    reported S_n is exact."""
    if n_total < 1:
        raise ValueError("need at least one iterate")
    hh = h if h.level >= 1 else lift(diagram, h, 1)
    m = hh.level
    rational = all(isinstance(v, (int, Fraction)) for v in hh.values)
    if rational:
        q = 1
        for v in hh.values:
            d = Fraction(v).denominator
            q = q * d // math.gcd(q, d)
        table = [int(v * q) for v in hh.values]
    else:
        q = None
        table = hh.values
    single = m == 1
    keyed = {(p.edges[0] if single else p.edges): v
             for p, v in zip(enumerate_paths(diagram, 0, m), table)}

    base = start
    digits = list(materialize(diagram, base,
                              max(m, len(start.prefix.edges), 4)).edges)
    tables = step_tables(diagram, len(digits))

    def rotated(tail, consumed):
        if tail.kind != "PERIODIC":
            return tail
        s = consumed % len(tail.word)
        return Tail("PERIODIC", tail.word[s:] + tail.word[:s])

    def wrap():
        nonlocal base, digits, tables
        here = LazyPath(FinitePath(tuple(digits)),
                        rotated(base.tail,
                                len(digits) - len(base.prefix.edges)))
        base = successor(diagram, here, 1)
        digits = list(materialize(
            diagram, base,
            max(len(digits), len(base.prefix.edges), m)).edges)
        tables = step_tables(diagram, len(digits))

    cps = sorted(set(int(c) for c in (checkpoints
                                      if checkpoints is not None
                                      else _geometric_checkpoints(n_total))))
    if cps and (cps[0] < 1 or cps[-1] > n_total):
        raise ValueError("checkpoints out of range")
    acc, sup, ci, out = 0, 0, 0, []
    for n in range(1, n_total + 1):
        acc = acc + keyed[digits[0] if single else tuple(digits[:m])]
        mag = -acc if acc < 0 else acc
        if mag > sup:
            sup = mag
        if ci < len(cps) and n == cps[ci]:
            out.append((n, Fraction(acc, q) if q else acc))
            ci += 1
        if n < n_total and not step(tables, digits):
            wrap()
    final = Fraction(acc, q) if q else acc
    slope, r2, ok = _fit_exponent(out, n_total)
    return BirkhoffReport(n_total=n_total, checkpoints=tuple(out),
                          sup_abs=Fraction(sup, q) if q else sup,
                          mean_rate=as_float(final) / n_total,
                          exponent=slope, r_squared=r2, claimed=ok)
