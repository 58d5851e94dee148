"""Crossed-product elements with Hoelder cylinder coefficients.

An element is a finitely supported map k -> cylinder function standing for
the formal sum of a(k) u^k, with u the shift unitary of the adic map.  It
is stored as the bare columns the kernels read: (q, {k: (level, cols)}),
the integer columns of every coefficient over one common denominator q
(`martingale.CylinderFunction.parts`, read once and rescaled by
`element`), so floats are read as the dyadic rationals they store, and
the one field of the values.  Shifts come out ascending.  Two kernels
work on these columns: `_product` convolves and the n-ary `_sum` adds;
every operation returns their result as the element it stores, and the
coefficients a(k) are cylinder functions built from the columns
(`CylinderFunction.of_parts`) only when read.  Products and
involutions read coefficients through cached index gathers
(`martingale.gather`): composing with a power of the map and lifting to a
finer level move indices, never field elements.  A composition
with phi^k raises the cylinder level by the transient T of the extreme
source map, and by more only while the tower over its fixed vertex holds
fewer than |k| paths, so levels grow like log|k| (not at all on the
odometers, where T = 0); all of that is computed exactly, and a level past
the path budget raises LevelOverflowError instead of silent truncation.

The distortion constant of the adic map enters every weighted norm, and it
is only ever available as a certified lower bound from a finite pair sweep.
The sweep is exact: cylinder representatives with minimal tails are sorted
once per direction, and each run of them that shares a prefix is scored by
the common prefix of its least and greatest image; no pair is walked, since
images that agree past the scan depth cannot raise the bound.  Norm
weights switch between the exponential regime (powers of the distortion
estimate) and the polynomial regime (the estimate says isometry) and the
estimate itself is reported rather than extrapolated.

The tail seminorms use the projection convention P_{-1} = 0, so the
supremum starts one index below the support; this is the convention under
which both comparison inequalities between the graded norms and the tail
seminorms are theorems rather than near-misses at concentrated supports.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from itertools import groupby
from os.path import commonprefix

from .cohomology import distributions, evaluation_level
from .diagrams import (LazyPath, TAIL_MIN, count_paths, enumerate_paths,
                       materialize, owned, successor)
from .errors import (InsufficientStabilizationError, LevelOverflowError,
                     NormTooLargeError, NotProperlyOrderedError, NumericError,
                     PreconditionError)
from .martingale import (CylinderFunction, compose_level, constant_function,
                         float_values, gather, holder_norm, nu_mean,
                         one_field, rand_function, weighted)

# the default distortion sweep climbs past level 3 only through levels of
# at most this many paths.  The sweep costs one successor per path and
# direction, not a pair table; the cap fixes the level of every default
# estimate
TRIANGLE_PATHS = 512


class AlgebraElement:
    """An element stored as the bare columns the kernels read: cols maps
    each shift k, ascending, all-zero shifts dropped, to (level, integer
    columns of a(k)) over the one denominator q, and field is the number
    field of the values, None unless some shift has more than one column
    (one column is rational, as in `CylinderFunction.of_parts`).  lam is
    the metric base of the coefficient Hoelder space and alpha its
    exponent.  The columns are not reduced, so elements compare with
    `equal_elements`, not ==."""

    def __init__(self, diagram, lam, alpha, q, cols, field):
        self.diagram, self.lam, self.alpha = diagram, lam, alpha
        self.q, self.cols = q, cols
        self.field = field if field is not None and any(
            len(c) > 1 for _, c in cols.values()) else None

    @cached_property
    def coeffs(self):
        """{k: a(k)}, each a CylinderFunction built from its columns."""
        return {k: self.coeff(k) for k in self.cols}

    def support(self):
        return tuple(self.cols)

    def coeff(self, k):
        """a(k), built from the columns of shift k alone."""
        if k not in self.cols:
            return constant_function(self.diagram, Fraction(0), 0)
        level, cols = self.cols[k]
        return CylinderFunction.of_parts(level, self.q, cols, self.field)


def element(diagram, lam, alpha, coeffs):
    """The element sum_k coeffs[k] u^k, each coefficient's integer columns
    (`CylinderFunction.parts`) read once and rescaled to their least
    common denominator.  Values of two fields, or of no exact field, raise
    PreconditionError."""
    out = {int(k): f for k, f in coeffs.items()}
    out = {k: f for k, f in sorted(out.items()) if any(map(any, f.parts[1]))}
    q = math.lcm(*(f.parts[0] for f in out.values()))
    return AlgebraElement(diagram, lam, alpha, q, {
        k: (f.level, _times(f.parts[1], q // f.parts[0]))
        for k, f in out.items()}, one_field(f.parts[2] for f in out.values()))


def unit(diagram, lam, alpha):
    return element(diagram, lam, alpha,
                   {0: constant_function(diagram, Fraction(1), 0)})


def _compatible(a, b):
    """The one field of a and b, which must live on the same algebra."""
    if a.diagram is not b.diagram or a.lam != b.lam or a.alpha != b.alpha:
        raise PreconditionError("elements live on different algebras")
    return one_field((a.field, b.field))


def _like(a, out, field):
    """The element of a's algebra with the bare columns out = (q, cols)."""
    return AlgebraElement(a.diagram, a.lam, a.alpha, *out, field)


def add(a, b):
    """a + b on columns (`_sum`)."""
    return _like(a, _sum(a.diagram, (a.q, a.cols), (b.q, b.cols)),
                 _compatible(a, b))


def _times(cols, m):
    """The integer columns cols times m."""
    return cols if m == 1 else [[m * v for v in c] for c in cols]


def _scaled(fa, num, den=1):
    """The bare columns fa times num / den."""
    q, cols = fa
    return q * den, {k: (level, _times(c, num))
                     for k, (level, c) in cols.items()}


def _sum(diagram, *operands):
    """The sum of bare columns, over the lcm of their denominators.  Each
    shift is summed once, over its terms in operand order and as the left
    fold of pairwise sums would: the running sum is read through the
    gathers of power 0 at the highest level among the terms since it last
    cancelled to zero (a rational term's missing columns read as zeros),
    and a shift whose sum is all zero is dropped."""
    q = math.lcm(*(qx for qx, _ in operands))
    terms = {}
    for qx, fx in operands:
        for k, (level, cols) in fx.items():
            terms.setdefault(k, []).append((level, _times(cols, q // qx)))
    out = {}
    for k in sorted(terms):
        acc = None
        for level, cols in terms[k]:
            if acc is None:
                top, acc = level, cols
                continue
            if level != top:
                high = max(top, level)
                acc, cols = ([[c[u] for u in gather(diagram, lx, 0, high)]
                              for c in cx] if lx != high else cx
                             for lx, cx in ((top, acc), (level, cols)))
                top = high
            s = [[x + y for x, y in zip(xc, yc)] for xc, yc in zip(acc, cols)]
            s += (acc if len(acc) > len(cols) else cols)[len(s):]
            acc = s if any(map(any, s)) else None
        if acc is not None:
            out[k] = (top, acc)
    return q, out


def scale(a, c):
    """c a for a rational c (an int or a Fraction)."""
    return _like(a, _scaled((a.q, a.cols), c.numerator, c.denominator)
                 if c else (1, {}), a.field)


def subtract(a, b):
    return add(a, scale(b, -1))


def equal_elements(a, b):
    return not subtract(a, b).cols


def convolve(a, b):
    """a b on columns (`_product`)."""
    field = _compatible(a, b)
    return _like(a, _product(a.diagram, (a.q, a.cols), (b.q, b.cols),
                             field), field)


def _product(diagram, fa, fb, field):
    """(a b)(k) = sum_i a(i) * (b(k - i) o phi^{-i}) on bare columns, over
    the product of their denominators.  The terms of one output shift are
    read at the highest level among them through cached index gathers, so
    composing with phi^{-i} and lifting move indices, not field elements;
    they are summed as integers, and an all-zero sum is dropped.  A level
    past the path budget raises LevelOverflowError (`diagrams.path_table`).

    Rational values have one column.  In a number field of degree n the
    columns are the theta^k coefficients, a function with fewer columns
    having zeros in the rest; column i times column j lands on
    theta^(i+j), which the field's integer table `powers` spreads over the
    n columns."""
    (qa, ca), (qb, cb) = fa, fb
    terms = {}
    for i, (la, xa) in ca.items():
        for j, (lb, xb) in cb.items():
            top = compose_level(diagram, lb, -i)
            if top < la:
                top = la
            t = terms.setdefault(i + j, [top])
            if top > t[0]:
                t[0] = top
            t.append((i, la, xa, lb, xb))
    out = {}
    for k in sorted(terms):
        top, *txy = terms[k]
        acc = None
        for i, la, xa, lb, xb in txy:
            gb = gather(diagram, lb, -i, top)
            if field is None and la == top:
                (x,), (y,) = xa, xb
                acc = [a * y[v] for a, v in zip(x, gb)] if acc is None \
                    else [p + a * y[v] for p, a, v in zip(acc, x, gb)]
                continue
            ga = gather(diagram, la, 0, top)
            if field is None:
                (x,), (y,) = xa, xb
                acc = [x[u] * y[v] for u, v in zip(ga, gb)] if acc is None \
                    else [p + x[u] * y[v] for p, u, v in zip(acc, ga, gb)]
                continue
            acc = acc or [[0] * len(ga) for _ in range(field.n)]
            for i2, x in enumerate(xa):
                for j2, y in enumerate(xb):
                    prod = [x[u] * y[v] for u, v in zip(ga, gb)]
                    for m, w in enumerate(field.powers[i2 + j2]):
                        if w:
                            acc[m] = [p + w * r for p, r in zip(acc[m], prod)]
        cols = acc if field else [acc]
        if any(map(any, cols)):
            out[k] = (top, cols)
    return qa * qb, out


def involution(a):
    """a*(k) = a(-k) o phi^{-k}; coefficients are real, so conjugation is
    the identity.  The composition reads each shift's columns through a
    cached index gather."""
    diagram, out = a.diagram, {}
    for k, (level, cols) in sorted(a.cols.items(), reverse=True):
        top = compose_level(diagram, level, k)
        idx = gather(diagram, level, k, top)
        out[-k] = (top, [[col[x] for x in idx] for col in cols])
    return AlgebraElement(diagram, a.lam, a.alpha, a.q, out, a.field)


def power(a, n):
    """a^n for n >= 0: a chain of `_product`s on bare columns from a."""
    if n < 0:
        raise PreconditionError("negative powers need neumann_invert")
    if n == 0:
        return unit(a.diagram, a.lam, a.alpha)
    out = fa = a.q, a.cols
    for _ in range(1, n):
        out = _product(a.diagram, out, fa, a.field)
    return _like(a, out, a.field)


def project_support(a, n):
    """P_n a: the coefficients with |k| <= n."""
    return _like(a, (a.q, {k: x for k, x in a.cols.items() if abs(k) <= n}),
                 a.field)


def complement_support(a, n):
    """(1 - P_n) a: the coefficients with |k| > n."""
    return _like(a, (a.q, {k: x for k, x in a.cols.items() if abs(k) > n}),
                 a.field)


# ---------------------------------------------------------------------------
# distortion estimate

TriangleEstimate = namedtuple("TriangleEstimate", "value level")


@owned
def triangle_phi(diagram, L, lam):
    """Certified lower bound for the bi-Lipschitz distortion of the adic
    map, from the exhaustive sweep of level-L cylinder pairs (minimal-tail
    representatives, both directions): lam to the largest c - c' over
    pairs whose representatives share their first c edges and whose images
    their first c', clipped at 0.  Nondecreasing in L because the
    representative set refines; exactly 1 at every L for isometries.

    Distinct representatives split before level L, so their rows are their
    level-L edges; the images are read to level L + 8.  Sorted by
    representative row, the pairs sharing their first c edges form runs,
    and the least c' of a run is the common prefix of its least and
    greatest image.  c = 0 scores at most 0, and images that agree through
    level L + 8 score at most -9 or are equal (ratio 0), so neither moves
    the bound.  Representatives whose image is undefined (an extreme path
    of a not properly ordered diagram) are skipped."""
    paths, best = enumerate_paths(diagram, L), 0
    for direction in (1, -1):
        rows = []
        for p in paths:
            try:
                image = successor(diagram, LazyPath(p, TAIL_MIN), direction)
            except NotProperlyOrderedError:
                continue
            rows.append((p.edges, materialize(diagram, image, L + 8).edges))
        rows.sort()
        for c in range(1, L):
            for _, run in groupby(rows, key=lambda row: row[0][:c]):
                best = max(best, c - len(commonprefix([x for _, x in run])))
    return TriangleEstimate(value=float(lam) ** best, level=L)


def default_triangle(diagram, lam):
    """The distortion estimate that the norms default to: `triangle_phi`
    at L = max(3, len(levels) + 2), so that the sweep runs two levels past
    the materialized ones, prefix levels included.  Past L = 3 it climbs
    only through levels of at most TRIANGLE_PATHS paths and stops below
    the first larger one; the estimate is nondecreasing in L, so it stays
    a lower bound."""
    L = 3
    while L < len(diagram.levels) + 2:
        try:
            if sum(count_paths(diagram, L + 1)) > TRIANGLE_PATHS:
                break
        except LevelOverflowError:
            break
        L += 1
    return triangle_phi(diagram, L, float(lam)).value


# ---------------------------------------------------------------------------
# norms and seminorms

def norms(a, s, q, triangle=None):
    """{l1_alpha, s_alpha, mu_q} of a finitely supported element.

    The weight regime follows the distortion estimate: powers of the
    estimate when it exceeds 1, polynomial in the index otherwise.  The
    tail supremum runs over N = -1 .. max support index (P_{-1} = 0), so
    concentrated supports still see one nonzero tail term.  The Hoelder
    norms and s_alpha come from `_weighted_norms` on the coefficients'
    columns."""
    tri = default_triangle(a.diagram, a.lam) if triangle is None \
        else float(triangle)
    by_k, s_alpha = _weighted_norms(a, s, tri)
    l1 = weighted(sum(by_k.values(), 0.0), alpha=a.alpha)
    expo, qf, af = tri > 1.0, float(q), float(a.alpha)
    n_max = max((abs(k) for k in a.cols), default=0)
    mu = 0.0
    for n in range(-1, n_max + 1):
        tail = sum(nk for k, nk in by_k.items() if abs(k) > n)
        mu = max(mu, weighted(tail, tri, (af + qf) * (n + 1), a.alpha)
                 if expo else weighted(tail, n + 1.0, qf, a.alpha))
    return {"l1_alpha": l1, "s_alpha": s_alpha, "mu_q": mu,
            "triangle": tri, "regime": "exponential" if expo
            else "polynomial"}


def _weighted_norms(a, s, tri):
    """(by_k, s_alpha) of the element a: by_k maps each shift, ascending,
    to the alpha-Hoelder norm of its coefficient, whose floats are read
    off the columns (`martingale.float_values`), and s_alpha sums by_k
    weighted by the estimate tri ** ((alpha + s) |k|) when tri > 1, by
    (1 + |k|) ** s otherwise.  Summing in ascending shift order keeps the
    float sums independent of the order the cols dict was built in."""
    alpha, af, sf = a.alpha, float(a.alpha), float(s)
    # every value before any weight: a value beyond the floats is no alpha's
    fns = {k: CylinderFunction(level, float_values(a.q, cols, a.field))
           for k, (level, cols) in sorted(a.cols.items())}
    by_k = {k: holder_norm(a.diagram, f, alpha, float(a.lam))["norm"]
            for k, f in fns.items()}
    return by_k, weighted(sum((
        weighted(nk, tri, (af + sf) * abs(k), alpha) if tri > 1.0
        else weighted(nk, 1.0 + abs(k), sf, alpha)
        for k, nk in by_k.items()), 0.0), alpha=alpha)


def lemma_constant(triangle, alpha, q):
    """The comparison constant dominating the graded norm by the tail
    seminorm at doubled weight; only meaningful in the exponential
    regime."""
    tri, af, qf = float(triangle), float(alpha), float(q)
    if tri <= 1.0:
        raise PreconditionError("comparison constant needs distortion > 1")
    x = af + qf
    gap = 1.0 - tri ** (-x)
    if not gap > 0.0:
        raise PreconditionError("comparison constant needs t^-(alpha + q) "
                                "< 1, got alpha + q = %r" % x)
    return weighted(2.0, tri, 2.0 * x, alpha) / gap


# ---------------------------------------------------------------------------
# Neumann inversion

class NeumannInverse(namedtuple("NeumannInverse", "element residual terms")):
    """The inverse of `neumann_invert`: residual is the certified
    ||h . inverse - 1|| in the l1 norm, terms the highest power of (1 - h)
    included."""
    __slots__ = ()


NEUMANN_MAX_TERMS = 200


def neumann_invert(h, tol=1e-10):
    """Partial geometric series 1 + f + ... + f^M for h^{-1}, f = 1 - h,
    when ||f|| < 1/2 in the alpha-weighted norm (s_alpha at s = alpha).

    Each power f^k is built on bare columns, and its norm n_k is read off
    them (`_weighted_norms`).  The series stops at the first M with
    n_M ||f|| / (1 - ||f||) <= tol, at most NEUMANN_MAX_TERMS.  The bound
    is the l1 product inequality that `check_trial` tests (`l1_product`):
    l1(f a) <= s_alpha(f at s = 0) l1(a), and for alpha > 0 every weight
    is >= 1 and grows with s, so s_alpha(f at s = 0) <= ||f|| and
    l1(f^M) <= n_M.  Hence
    l1(f^(M + j)) <= ||f||^j n_M: the tail sum_(k > M) l1(f^k) is at most
    n_M ||f|| / (1 - ||f||), and the residual h . inverse - 1 = -f^(M + 1)
    at most n_M ||f||.  The residual is computed by direct multiplication,
    and one above tol, where the distortion estimate is too low for the
    inequality or the term cap was hit, raises NumericError.  tol must be
    a finite number > 0."""
    if not 0 < tol < math.inf:
        raise PreconditionError("tol must be finite and > 0, got %r"
                                % (tol,))
    tri = default_triangle(h.diagram, h.lam)
    d, one = h.diagram, unit(h.diagram, h.lam, h.alpha)
    f = subtract(one, h)
    fc = f.q, f.cols
    small = _weighted_norms(f, h.alpha, tri)[1]
    if not small < 0.5:
        raise NormTooLargeError()
    terms, n = [fc], small
    while n * small / (1.0 - small) > tol and \
            len(terms) < NEUMANN_MAX_TERMS:
        terms.append(_product(d, terms[-1], fc, f.field))
        n = _weighted_norms(_like(h, terms[-1], f.field), h.alpha, tri)[1]
    terms = [t for t in terms if t[1]]
    inv = _like(h, _sum(d, (one.q, one.cols), *terms), f.field)
    residual = _like(h, _product(d, (h.q, h.cols), (inv.q, inv.cols),
                                 h.field), h.field)
    res = norms(subtract(residual, one), 0, 1, triangle=tri)["l1_alpha"]
    if res > tol:
        raise NumericError("Neumann residual %r above tol %r" % (res, tol))
    return NeumannInverse(element=inv, residual=res, terms=len(terms))


# ---------------------------------------------------------------------------
# traces

def trace(a, tower, at_level=None):
    """tau_i(a) = D_i(a(0)): the d distribution values of the zero-shift
    coefficient.  The distributions read the same values at every level,
    so traces of different elements compare as they are; an at_level below
    the evaluation level of a(0) is refused, and it has no other effect."""
    h = a.coeff(0)
    if at_level is not None and at_level < evaluation_level(tower, h):
        raise InsufficientStabilizationError(
            "insufficient stabilization level")
    return distributions(h, tower)


# ---------------------------------------------------------------------------
# randomized property suite, run by `adic algebra check`, acceptance
# criterion 09 and the algebra tests

# Relative slack of the comparisons of float norms.
SLACK = 1e-9


def le(x, y):
    """x <= y up to SLACK relative to max(1, |y|)."""
    return x <= y + SLACK * max(1.0, abs(y))


def rand_element(rng, diagram, lam, alpha, shape=(2, 2, 3)):
    """A random element of shape (max level, window, max support): 1 to
    max support distinct shifts in [-window, window], each coefficient a
    `rand_function` of a random level up to max level."""
    max_level, window, max_support = shape
    ks = rng.sample(range(-window, window + 1),
                    k=rng.randint(1, max_support))
    return element(diagram, lam, alpha,
                   {k: rand_function(rng, diagram, rng.randint(0, max_level))
                    for k in ks})


def jolissaint_holds(f, n, big):
    """Whether f^n = P^n + sum_(k<n) P^k Q f^(n-1-k) exactly, with
    P = P_big f and Q = (1 - P_big) f."""
    p, q = project_support(f, big), complement_support(f, big)
    total = power(p, n)
    for k in range(n):
        total = add(total, convolve(power(p, k),
                                    convolve(q, power(f, n - 1 - k))))
    return equal_elements(total, power(f, n))


def check_trial(rng, diagram, lam, alpha, tri, tower, shape=(2, 2, 3)):
    """One trial of the property suite: yields (check name, holds) for
    random elements a and b of the given shape and smaller c and f.  The
    algebra identities and the traces are exact: `trace_commutator`
    compares the D_i, which are signed, and `trace_positive` the measure
    trace nu((a* a)(0)) (`martingale.nu_mean`); the norm inequalities at
    the distortion estimate tri are compared with `le`."""
    a = rand_element(rng, diagram, lam, alpha, shape)
    b = rand_element(rng, diagram, lam, alpha, shape)
    c = rand_element(rng, diagram, lam, alpha, (1, 1, 2))
    ab = convolve(a, b)
    yield "associativity", equal_elements(convolve(ab, c),
                                          convolve(a, convolve(b, c)))
    yield "involution_antihom", equal_elements(
        involution(ab), convolve(involution(b), involution(a)))
    yield "involution_squared", equal_elements(involution(involution(a)), a)
    s, q = rng.choice((0, 1, 2)), rng.choice((1, 2))
    af = float(alpha)
    na_shift = norms(a, s + af, q, triangle=tri)["s_alpha"]
    nb = norms(b, s, q, triangle=tri)
    nab = norms(ab, s, q, triangle=tri)
    yield "product_norm", le(nab["s_alpha"], na_shift * nb["s_alpha"])
    yield "involution_norm", le(
        norms(involution(a), s, q, triangle=tri)["s_alpha"], na_shift)
    yield "l1_product", le(nab["l1_alpha"], norms(
        a, 0, q, triangle=tri)["s_alpha"] * nb["l1_alpha"])
    nq = norms(a, q, q, triangle=tri)
    yield "tail_le_norm", le(nq["mu_q"], nq["s_alpha"])
    if tri > 1.0:
        yield "norm_le_tail", le(nq["s_alpha"], lemma_constant(tri, af, q)
                                 * norms(a, q, 2 * q + af,
                                         triangle=tri)["mu_q"])
    f = rand_element(rng, diagram, lam, alpha, (1, 1, 3))
    for n in (1, 2):
        yield "jolissaint_n%d" % n, jolissaint_holds(f, n, 1)
    ta, tb = trace(ab, tower), trace(convolve(b, a), tower)
    yield "trace_commutator", all(x.numerator == y.numerator
                                  for x, y in zip(ta, tb))
    yield "trace_positive", \
        nu_mean(diagram, convolve(involution(a), a).coeff(0)) >= 0
