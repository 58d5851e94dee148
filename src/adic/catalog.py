"""Canonical stationary test diagrams with fixed edge orders.

odo2 / odo3: one vertex per level, 2 (resp. 3) loop edges in counting order.
fib: two vertices a=0, b=1 with transition matrix [[1,1],[1,0]]; edges
  0: a->a, 1: b->a, 2: a->b; in-orders a: (0,1), b: (2,).  The min in-edge
  chains give a unique minimal path, the max chains a 2-cycle: two maximal
  paths, so phi^-1 of the minimal path and `adic algebra check` are refused.
pisot31: two vertices with matrix [[3,1],[1,3]], properly ordered (unique
  extreme paths through vertex 0 on the min side and vertex 1 on the max).
"""

from .diagrams import OrderedDiagram, make_level
from .errors import ParseError


def _odometer(n):
    level = make_level(1, 1, [(0, 0)] * n, [list(range(n))])
    return OrderedDiagram((level,), stationary=True)


def builtin_diagram(name):
    if name == "odo2":
        return _odometer(2)
    if name == "odo3":
        return _odometer(3)
    if name == "fib":
        level = make_level(2, 2, [(0, 0), (1, 0), (0, 1)], [[0, 1], [2]])
        return OrderedDiagram((level,), stationary=True)
    if name == "pisot31":
        edges = [(0, 0), (0, 0), (0, 0), (1, 0), (0, 1), (1, 1), (1, 1), (1, 1)]
        level = make_level(2, 2, edges, [[0, 1, 2, 3], [4, 5, 6, 7]])
        return OrderedDiagram((level,), stationary=True)
    raise ParseError("unknown builtin diagram %r" % (name,))


BUILTIN_NAMES = ("odo2", "odo3", "fib", "pisot31")


def resolve_diagram(ref):
    """A builtin name or a JSON file path."""
    if ref in BUILTIN_NAMES:
        return builtin_diagram(ref)
    from .diagrams import load_diagram
    return load_diagram(ref)
