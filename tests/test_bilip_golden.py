"""The float metric comparison of acceptance criterion 08, frozen to the
repr: `solenoid.bilip_check` on every pair (with repetition) of level-4
paths of odo2, fib and pisot31, the last thinned to 32 paths spread over
the path order, at depth margins 2 and 4.

`bilip_golden.json` holds `record()` as computed from per-level reach rows
and float coordinates, before the per-point level tables.  Regenerate it
only for a declared change of output, with

    PYTHONPATH=src python tests/test_bilip_golden.py --write
"""

import json
import os
import sys
from itertools import combinations_with_replacement

from adic.catalog import builtin_diagram
from adic.diagrams import enumerate_paths
from adic.measures import renorm_data
from adic.solenoid import bilip_check

GOLDEN = os.path.join(os.path.dirname(__file__), "bilip_golden.json")
LEVEL = 4
PATHS = 32
EPSILON = 0.25


def record():
    out = []
    for name in ("odo2", "fib", "pisot31"):
        d = builtin_diagram(name)
        rd = renorm_data(d)
        ps = enumerate_paths(d, LEVEL)
        ps = ps[::max(1, len(ps) // PATHS)]
        pairs = list(combinations_with_replacement(ps, 2))
        for margin in (2, 4):
            rep = bilip_check(d, rd, pairs, EPSILON, margin)
            out.append({"diagram": name, "margin": margin,
                        **{key: repr(rep[key]) for key in (
                            "pairs_checked", "lower_constant",
                            "worst_upper_slack")}})
    return out


def test_bilip_check_matches_golden():
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    assert record() == golden


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_bilip_golden.py --write")
    with open(GOLDEN, "w") as fh:
        json.dump(record(), fh, indent=0, sort_keys=True)
        fh.write("\n")
