"""The exact approximant diameter, frozen to the repr: `solenoid.diameter`
of the level 0-12 complexes of the diagrams of
`test_cohomology._dump_diagrams` and of 60 seeded `_random_diagram` draws
and their `_prefixed` forms, with the error type where a complex or its
diameter is refused.

`diameter_golden.json` holds `record()` as computed by the vertex
enumeration of a lifted LP, before the closed form.  Regenerate it only for
a declared change of output, with

    PYTHONPATH=src python tests/test_diameter_golden.py --write
"""

import json
import os
import random
import sys

from test_cohomology import _dump_diagrams
from test_step import _prefixed, _random_diagram

from adic.errors import AdicError
from adic.measures import renorm_data
from adic.solenoid import build_complex, diameter

GOLDEN = os.path.join(os.path.dirname(__file__), "diameter_golden.json")
LEVELS = 13


def cases():
    """The diagrams of `_dump_diagrams()`, then 30 seeded draws on 2 and 3
    vertices, each followed by its `_prefixed` form."""
    out = list(_dump_diagrams())
    r = random.Random(1901)
    for i in range(30):
        d = _random_diagram(r, 2 + i % 2, 6)
        out += [d, _prefixed(d)]
    return out


def _diameter(d, rd, k):
    try:
        return repr(diameter(build_complex(d, rd, k)))
    except AdicError as exc:
        return type(exc).__name__


def record():
    out = []
    for i, d in enumerate(cases()):
        rd = renorm_data(d)
        out.append({"diagram": i,
                     "diameters": [_diameter(d, rd, k)
                                   for k in range(LEVELS)]})
    return out


def test_diameter_matches_golden():
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    got = record()
    assert len(got) == len(golden)
    for want, have in zip(golden, got):
        assert have == want, want["diagram"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_diameter_golden.py --write")
    with open(GOLDEN, "w") as fh:
        json.dump(record(), fh, indent=0, sort_keys=True)
        fh.write("\n")
