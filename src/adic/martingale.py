"""Cylinder functions, conditional expectations, Hoelder norms, and the
level components of the bump-smoothed martingale expansion.

A CylinderFunction of level m >= 0 is the vector of its values on the
level-m cylinders, in the order of `enumerate_paths(diagram, m)`; at
level 0 that is the vertex order of V_0.  Lifts, projections, means and
compositions act on these vectors through the per-level parent tables and
block offsets of `diagrams.path_table`.  Values may be Fractions,
elements of the Perron field (`scalars.FieldElement`), or floats.  Means
and projections read them exactly, a finite float as the dyadic rational
it stores, and stay in the field of the values and the weights; NaN and
+-inf raise PreconditionError there.  `gather` keeps the index maps of
composition and lift with the diagram's other tables (`diagrams.owned`),
freed with the diagram, and so does `residual_rows` for the residual
check; the Hoelder sweep reads the sibling runs of the path tables.  A function also holds its values as integer columns over one
denominator, one per coefficient of the field (`CylinderFunction.parts`),
so block sums, the solver and `algebra.convolve` add integers; values are
never written once built.  The bump profile used for smoothing is the
fixed polynomial c*(1 - (5t/tau)^2)^3, whose integral is exactly one and
whose derivative sup-norms have closed forms; it is C^2 at the support
boundary (u, u', u'' vanish there) while its third derivative is bounded
but jumps there.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from operator import sub

from .diagrams import count_paths, extreme, owned, path_table
from .errors import AlphaOverflowError, NumericError, PreconditionError
from .measures import xi_vector
from .scalars import FieldElement


class CylinderFunction:
    """values, one scalar per level-m path in enumerate_paths order, or
    parts, their (q, cols, field) from `integer_parts`: each form is built
    from the other on first read and kept, so values is never written.  A
    record with no arithmetic: callers combine values at one level."""

    def __init__(self, level, values):
        self.level, self.values = level, values

    @classmethod
    def of_parts(cls, level, q, cols, field):
        """The function of columns (q, cols, field): one column is rational."""
        f = cls.__new__(cls)
        f.level, f.parts = level, (q, cols, field if len(cols) > 1 else None)
        return f

    @cached_property
    def values(self):
        return field_values(*self.parts)

    @cached_property
    def parts(self):
        return integer_parts(self.values)

    def sup_norm(self):
        return max((abs(float(v)) for v in self.values), default=0.0)


def constant_function(diagram, value, level=0):
    return CylinderFunction(level,
                            [value] * path_table(diagram, level).offsets[-1])


def integer_parts(values):
    """(q, cols, field): the values as integer columns over one common
    denominator q.  When some value lies in a number field, cols[k] holds
    the theta^k coefficients c_k * q of the values sum c_k theta^k, a
    rational value having c_0 only; otherwise field is None and cols[0]
    holds the values times q.  A finite float is read as the dyadic
    rational it stores.  Values of two fields, or of no exact field, raise
    PreconditionError."""
    field = one_field(v.field for v in values if isinstance(v, FieldElement))
    cols = [values]
    if field is not None:
        zeros = (0,) * (field.n - 1)
        cols = list(zip(*(field.norm(v.c) if isinstance(v, FieldElement)
                          else (v,) + zeros for v in values)))
    try:
        ratios = [[x.as_integer_ratio() for x in col] for col in cols]
    except (AttributeError, ValueError, OverflowError):
        raise PreconditionError("values lie in no exact field") from None
    q = math.lcm(*(den for col in ratios for _, den in col))
    return (q, [[num * (q // den) for num, den in col] for col in ratios],
            field)


def one_field(fields):
    """The one field among fields (None when there is none); two raise
    PreconditionError."""
    fields = set(fields) - {None}
    if len(fields) > 1:
        raise PreconditionError("values of mixed fields %s"
                                % ", ".join(sorted(map(repr, fields))))
    return fields.pop() if fields else None


def padded(cols, n):
    """The integer columns cols, all-zero ones appended up to n columns:
    the missing theta^k coefficients of a value are 0."""
    return cols + [[0] * len(cols[0])] * (n - len(cols))


def field_values(q, cols, field):
    """The values that `integer_parts` reads as (q, cols, field):
    Fractions when there is one column, whatever field says, or else
    elements of field."""
    if field is None or len(cols) == 1:
        # values repeat, and equal values share one Fraction
        memo = {a: Fraction(a, q) for a in set(cols[0])}
        return list(map(memo.__getitem__, cols[0]))
    return [FieldElement(tuple(Fraction(a, q) for a in row), field)
            for row in zip(*cols)]


def float_values(q, cols, field):
    """The correctly rounded floats of the values of (q, cols, field),
    read off the integer columns: integer true division rounds correctly,
    so a / q is float(Fraction(a, q)), and `NumberField.floats` rounds
    field values the same way.  One column is rational, as in
    `field_values`."""
    if field is None or len(cols) == 1:
        return [a / q for a in cols[0]]
    return field.floats(q, cols)


def from_vector(diagram, level, vec):
    n = path_table(diagram, level).offsets[-1]
    if len(vec) != n:
        raise ValueError("expected %d values, got %d" % (n, len(vec)))
    return CylinderFunction(level, list(vec))


def rand_function(rng, diagram, level):
    """A random function of the given level, its values quarters in
    [-2, 2] (constant at level 0): the draws of the algebra property suite
    and of the acceptance tests."""
    if level == 0:
        return constant_function(diagram, Fraction(rng.randint(-8, 8), 4), 0)
    return from_vector(diagram, level, [
        Fraction(rng.randint(-8, 8), 4)
        for _ in range(path_table(diagram, level).offsets[-1])])


def as_vector(diagram, h):
    return list(h.values)


def lift(diagram, h, k):
    """h on the level-k cylinders (k >= h.level): every path takes the
    value of its parent, one level at a time."""
    if k < h.level:
        raise ValueError("lift goes to finer levels only")
    if k == h.level:
        return h
    vals = h.values
    for j in range(h.level + 1, k + 1):
        vals = [vals[i] for i in path_table(diagram, j).parent]
    return CylinderFunction(k, vals)


def nu_mean(diagram, h):
    """Integral against the unique tail-invariant probability measure: every
    cylinder of a block has its vertex's weight, so each block is summed
    before the weight multiplies it.  The values are read exactly
    (`integer_parts`), so a float is the dyadic rational it stores."""
    xi, values = xi_vector(diagram, h.level), field_values(*h.parts)
    total = 0
    for x, (a, b) in zip(xi, path_table(diagram, h.level).blocks()):
        total = total + x * sum(values[a:b])
    return total


def project(diagram, h, k):
    """Conditional expectation onto level-k cylinders (exact in the field):
    the xi-weighted values of each level-k cylinder's descendants, summed
    into it through their ancestor indices (`gather`) and divided by its
    own weight.  h is read exactly, as in `nu_mean`."""
    h = CylinderFunction.of_parts(h.level, *h.parts)
    if k >= h.level:
        return lift(diagram, h, k)
    m = h.level
    anc = gather(diagram, k, 0, m)
    top, low = path_table(diagram, m), path_table(diagram, k)
    acc = [0] * low.offsets[-1]
    for x, (a, b) in zip(xi_vector(diagram, m), top.blocks()):
        for i in range(a, b):
            acc[anc[i]] = acc[anc[i]] + x * h.values[i]
    out = []
    for x, (a, b) in zip(xi_vector(diagram, k), low.blocks()):
        out.extend(w / x for w in acc[a:b])
    return CylinderFunction(k, out)


def delta(diagram, h, k):
    """Martingale difference between consecutive projections; the projection
    below level 0 is zero, so delta at 0 is the level-0 projection itself."""
    pk = project(diagram, h, min(k, h.level))
    if k == 0:
        return pk
    pk1 = lift(diagram, project(diagram, h, min(k - 1, h.level)), pk.level)
    return CylinderFunction(pk.level, list(map(sub, pk.values, pk1.values)))


def weighted(value, base=1.0, exponent=0, alpha=None):
    """value * base ** exponent, each weight lam^e, t^e or (1 + |k|)^s of
    the float norms, or with no base a sum of weighted terms.  A power or
    result beyond the floats (or NaN) raises AlphaOverflowError(alpha), or
    NumericError with no alpha: a norm is finite or refused."""
    try:
        out = value * base ** exponent
        if math.isfinite(out):
            return out
    except OverflowError:
        pass
    if alpha is None:
        raise NumericError("a value overflows a float")
    raise AlphaOverflowError(alpha)


def holder_norm(diagram, h, alpha, lam):
    """Exact-attained Hoelder data of a cylinder function.

    Paths first differing at edge j lie at distance lam^-(j-1), so for
    alpha >= 0 and lam >= 1 the seminorm sup |h(x)-h(y)| / d(x,y)^alpha is
    the largest lam^((j-1) alpha) times the oscillation max - min of h on a
    level-(j-1) cylinder, level 0 being the whole space: a pair first
    differing deeper has a weight no smaller, and float subtraction and
    multiplication round monotonically.  The value ranges of the paths into
    a vertex s of V_(j-1) are the elementwise min and max of its sibling
    runs, the slices [u, u + n) of the level-j ranges for u in
    `path_table(diagram, j).runs[s]`, n the block size of s, or the empty
    range (+inf, -inf) when s has no out-edges.  alpha < 0, lam < 1 and a
    value that is not finite raise PreconditionError.  Beyond the floats
    (`weighted`), the norm at alpha = 0, sup + (max - min), raises
    NumericError, and a weighted oscillation or norm AlphaOverflowError.

    The sweep goes down from level m and stops once the seminorm so far is
    positive and at least span = max - min, which bounds every oscillation,
    times lam^((j-2) alpha), the largest weight left.  No weight is computed
    before a positive oscillation, and the bound reads no weight above one
    already computed, so it overflows nowhere the full sweep would not."""
    if not (alpha >= 0 and lam >= 1):
        raise PreconditionError("the Hoelder norm needs alpha >= 0 and "
                                "lam >= 1, got alpha %s and lam %s"
                                % (alpha, lam))
    if h.level == 0:
        h = lift(diagram, h, 1)
    af, lamf, semi = float(alpha), float(lam), 0.0
    lo = hi = list(map(float, h.values))
    if not all(map(math.isfinite, lo)):
        raise PreconditionError("the Hoelder norm needs finite values")
    sup = max(map(abs, lo), default=0.0)
    span = max(lo, default=0.0) - min(lo, default=0.0)
    weighted(sup + span)  # the norm at alpha = 0: a value overflow
    for j in range(h.level, 0, -1):
        best = span
        if j > 1:
            below = path_table(diagram, j - 1).offsets
            runs = zip(path_table(diagram, j).runs, below, below[1:])
            los, his, lo, hi = lo, hi, [], []
            for us, a, b in runs:
                # a lone run is repeated, so that min and max compare two
                ls = [los[u:u + b - a] for u in us]
                hs = [his[u:u + b - a] for u in us]
                lo += map(min, *ls, ls[0]) if us else repeat(math.inf, b - a)
                hi += map(max, *hs, hs[0]) if us else repeat(-math.inf, b - a)
            best = max(map(sub, hi, lo), default=0.0)
        if best > 0:
            semi = max(semi, weighted(best, lamf, (j - 1) * af, alpha))
        if semi > 0 and span * lamf ** ((j - 2) * af) <= semi:
            break
    return {"sup": sup, "seminorm": semi,
            "norm": weighted(sup + semi, alpha=alpha)}


# ---------------------------------------------------------------------------
# bump profile and level components

class BumpProfile(namedtuple("BumpProfile", "tau")):
    """The bump of support radius tau/5, tau an exact positive scalar."""
    __slots__ = ()

    @property
    def height(self):
        # c with integral c * (tau/5) * 32/35 == 1
        return Fraction(175, 32) / self.tau

    def deriv_sup(self, j):
        """Closed-form sup |u^{(j)}| for j = 0 or 1, else ValueError."""
        if j not in (0, 1):
            raise ValueError("no closed form of sup |u^(%s)|" % (j,))
        c = float(self.height)
        if j == 0:
            return c
        s = 5.0 / float(self.tau)
        return c * s * 96.0 / (25.0 * math.sqrt(5.0))

    def cr_norm(self, r):
        return sum(self.deriv_sup(j) for j in range(r + 1))


def bump_from_roof(renorm):
    """Support radius tied to the shortest level-0 edge, which must be
    positive."""
    tau = min(renorm.roof)
    if not tau > 0:
        raise PreconditionError("the bump needs a positive roof, got a "
                                "shortest level-0 edge of %s" % (tau,))
    return BumpProfile(tau)


class LevelComponent(namedtuple("LevelComponent", "level peak bump")):
    """The level-k component of `decompose`: peak is max |delta_k h| over
    level-k cylinders, bump the BumpProfile."""
    __slots__ = ()

    def cr_norm(self, r, lam):
        """The C^r norm for r = 0 or 1, `weighted` with no alpha."""
        return weighted(sum(weighted(self.bump.deriv_sup(j), float(lam),
                                     j * self.level)
                            for j in range(r + 1)) * self.peak)


def decompose(diagram, h, renorm):
    """Level components of the bump-smoothed martingale expansion of h."""
    bump = bump_from_roof(renorm)
    return [LevelComponent(level=k, peak=delta(diagram, h, k).sup_norm(),
                           bump=bump) for k in range(h.level + 1)]


# ---------------------------------------------------------------------------
# composition with the adic map

def compose_phi(diagram, h, power=1):
    """h composed with phi^power exactly, as a cylinder function of level
    L = max(min(m + n*T, T + max(m, n*)), 1).  Here n = |power|; T and v*
    come from `diagrams.extreme` (the min in-edge source map, or the max
    one for negative powers); m is h.level, raised to the first repeating
    level of the diagram when that is deeper; n* is the least level whose
    tower over v* holds at least n paths.

    On level-L paths phi is the next path in the block of its range vertex
    (the tower order that `diagrams.successor` follows), and the last path
    of a block goes to the level-L prefix of the extreme path, the first (for
    negative powers, the last) path of block w = v*: L is at least the last
    level that does not repeat, and from there on that path stays at v*.
    So n steps shift an index inside its block, and an index that runs off
    the block goes on from the extreme path, cycling through block w.
    After j steps the first L - j*T edges agree with phi^j of every point of
    the cylinder, since extreme chains of repeating levels reach v* within
    T levels; this needs the relevant extreme path to be unique, else the
    composition is not transversally locally constant.  That gives
    L = m + n*T.

    At L = T + max(m, n*) one carry is all there is.  Within n steps a
    level-L path carries past level L at most once; its first L - T edges
    are then the extreme chain into v*, and the remaining steps stay inside
    the tower over v* at level L - T, whose height is at least n.  Those
    paths, extended by the extreme chain, are the first (last) paths of
    block w, so the same shift reads them and never wraps.  So the level
    grows like log n, not like n."""
    if power == 0:
        return h
    direction = 1 if power > 0 else -1
    n, L = abs(power), compose_level(diagram, h.level, power)
    table, w = path_table(diagram, L), extreme(diagram, direction)[1]
    wa, wb = table.offsets[w], table.offsets[w + 1]
    idx = []
    for a, b in table.blocks():
        if direction == 1:
            idx.extend(range(a + n, b))
            idx.extend(wa + (i + n - b) % (wb - wa)
                       for i in range(max(a, b - n), b))
        else:
            idx.extend(wb - 1 - (a + n - 1 - i) % (wb - wa)
                       for i in range(a, min(a + n, b)))
            idx.extend(range(a, b - n))
    vals = lift(diagram, h, L).values
    return CylinderFunction(L, [vals[i] for i in idx])


@owned
def compose_level(diagram, m, power):
    """The level of h o phi^power for h of level m, as in `compose_phi`."""
    if power == 0:
        return m
    T, v, _ = extreme(diagram, 1 if power > 0 else -1)
    n, m = abs(power), max(m, len(diagram.levels) - 1)
    j = m
    while T + j < m + n * T and count_paths(diagram, j)[v] < n:
        j += 1
    return max(min(m + n * T, T + j), 1)


@owned
def gather(diagram, m, power, k):
    """The indices into a level-m vector that read h o phi^power lifted to
    level k >= compose_level(diagram, m, power), for every h of level m:
    composition and lift applied once to the indices themselves."""
    ident = CylinderFunction(m, list(range(path_table(diagram, m)
                                           .offsets[-1])))
    return tuple(lift(diagram, compose_phi(diagram, ident, power), k).values)


@owned
def residual_rows(diagram, h_level, g_level):
    """(ih, iphi, ig): the indices that read h of level h_level, and g o phi
    and g of level g_level, on the level-top cylinders, top = max(h_level,
    compose_level(diagram, g_level, 1)), each distinct triple once, read
    off `gather`'s builder, which keeps nothing, so only these rows are
    kept."""
    top = max(h_level, compose_level(diagram, g_level, 1))
    build = gather.__wrapped__
    return tuple(zip(*dict.fromkeys(zip(build(diagram, h_level, 0, top),
                                        build(diagram, g_level, 1, top),
                                        build(diagram, g_level, 0, top)))))
