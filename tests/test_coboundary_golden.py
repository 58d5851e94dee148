"""The coboundary path, frozen to the repr: distributions, certificate,
solve (with its gauge, residual and Hoelder norms) and Birkhoff sums on the
diagrams of `test_cohomology._dump_diagrams`.

`coboundary_golden.json` holds `record()` as computed with the Gram basis
of the distributions weighted by path counts.  Regenerate it only for a
declared change of output, with

    PYTHONPATH=src python tests/test_coboundary_golden.py --write
"""

import json
import os
import random
import sys
from fractions import Fraction

from test_cohomology import _dump_diagrams

from adic.catalog import builtin_diagram
from adic.cohomology import distributions, limit_rank
from test_step import coboundary, path_range

from adic.diagrams import enumerate_paths, extreme
from adic.errors import ObstructedError
from adic.martingale import CylinderFunction, compose_phi, from_vector, lift
from adic.measures import renorm_data, xi_vector
from adic.solver import birkhoff, solve

GOLDEN = os.path.join(os.path.dirname(__file__), "coboundary_golden.json")
ALPHA = 3
STEPS = 100


def _function(d, m, value):
    """The level-m function with value(path) on each path."""
    return from_vector(d, m, [value(p) for p in enumerate_paths(d, m)])


def _inputs(d, r):
    """(name, h): per level 0..3 a random rational function, mostly
    obstructed, and a rational coboundary g0 o phi - g0; on fib the same
    with values in Q(sqrt 5) from xi_vector."""
    out = []
    for m in range(4):
        def quarter(p):
            return Fraction(r.randint(-8, 8), 4)
        out.append(("rational-%d" % m, _function(d, m, quarter)))
        out.append(("coboundary-%d" % m,
                    coboundary(d, _function(d, m, quarter))))
        if d == builtin_diagram("fib"):
            xi = xi_vector(d, m)

            def quad(p):
                return xi[path_range(d, p)] * \
                    r.randint(-3, 3) + Fraction(r.randint(-8, 8), 4)
            out.append(("quad-%d" % m, _function(d, m, quad)))
            out.append(("quad-coboundary-%d" % m,
                        coboundary(d, _function(d, m, quad))))
    return out


def _path(d, tower, h):
    """The reprs of everything the coboundary path returns for h."""
    rec = {"distributions": [[repr(dv.numerator), repr(dv.value),
                              dv.exact_zero]
                             for dv in distributions(h, tower)]}
    try:
        sol = solve(h, tower, alpha=ALPHA)
    except ObstructedError as exc:
        rec["certificate"] = None
        rec["obstructed"] = repr(exc.distribution_values)
    else:
        rec["certificate"] = sol.level
        rec["solve"] = {"level": sol.level, "g": repr(sol.g.values),
                        "gauge": repr(sol.gauge),
                        "residual": repr(sol.residual),
                        "norms": repr(sol.norms)}
    rec["birkhoff"] = _birkhoff(d, h)
    return rec


def _birkhoff(d, h):
    return repr(birkhoff(d, h, extreme(d, 1)[2], STEPS))


def _as_floats(h):
    return CylinderFunction(h.level, [float(v) for v in h.values])


def record():
    r = random.Random(1508)
    out = []
    for i, d in enumerate(_dump_diagrams()):
        tower = limit_rank(d, renorm_data(d))
        for name, h in _inputs(d, r):
            rec = {"diagram": i, "input": name}
            rec.update(_path(d, tower, h))
            if name.startswith(("rational", "coboundary")):
                # the same values as floats: the orbit sums report floats;
                # the rest reads them exactly (test below)
                rec["float_birkhoff"] = _birkhoff(d, _as_floats(h))
            out.append(rec)
    return out


def test_coboundary_path_matches_golden():
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    got = record()
    assert len(got) == len(golden)
    for want, have in zip(golden, got):
        assert have == want, (want["diagram"], want["input"])


def test_float_values_read_as_the_rationals_they_store():
    # distributions and solve read a finite float as the
    # dyadic rational it stores, so float h gives what its rational twin
    # gives; the orbit sums alone report floats (`float_birkhoff` above)
    r = random.Random(1508)
    for d in _dump_diagrams():
        tower = limit_rank(d, renorm_data(d))
        for name, h in _inputs(d, r):
            if name.startswith(("rational", "coboundary")):
                want = _path(d, tower, h)
                got = _path(d, tower, _as_floats(h))
                del want["birkhoff"], got["birkhoff"]
                assert got == want, name


def test_residual_is_the_exact_sup_of_the_equation():
    # h - (g o phi - g) recomputed exactly, a float of g read as the dyadic
    # rational it stores: a residual whose floats round to 0.0 is not 0
    r = random.Random(1508)
    for d in _dump_diagrams():
        tower = limit_rank(d, renorm_data(d))
        for name, h in _inputs(d, r):
            try:
                sol = solve(h, tower)
            except ObstructedError:
                continue
            g = CylinderFunction(sol.g.level, [
                Fraction(v) if isinstance(v, float) else v
                for v in sol.g.values])
            gphi = compose_phi(d, g, 1)
            top = max(h.level, gphi.level)
            gap = [a - (b - c) for a, b, c in zip(lift(d, h, top).values,
                                                  lift(d, gphi, top).values,
                                                  lift(d, g, top).values,
                                                  strict=True)]
            assert max(map(abs, gap)) == sol.residual, name


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_coboundary_golden.py --write")
    with open(GOLDEN, "w") as fh:
        json.dump(record(), fh, indent=0, sort_keys=True)
        fh.write("\n")
