"""Exact dynamics on ordered Bratteli diagrams: Vershik maps, invariant
measures, solenoid approximants, martingale decompositions, invariant
distributions, a constructive coboundary solver, and the crossed-product
trace algebra."""

from .catalog import BUILTIN_NAMES, builtin_diagram, resolve_diagram
from .diagrams import (FinitePath, LazyPath, OrderedDiagram, TAIL_MAX,
                       TAIL_MIN, enumerate_paths, load_diagram, successor,
                       validate)
from .martingale import CylinderFunction, constant_function, decompose
from .measures import renorm_data
from .cohomology import distributions, limit_rank
from .solver import birkhoff, chained_constant, solve

__version__ = "0.1.0"

__all__ = [
    "BUILTIN_NAMES", "CylinderFunction", "FinitePath", "LazyPath",
    "OrderedDiagram", "TAIL_MAX", "TAIL_MIN", "birkhoff", "builtin_diagram",
    "chained_constant", "constant_function", "decompose", "distributions",
    "enumerate_paths", "limit_rank", "load_diagram", "renorm_data",
    "resolve_diagram", "solve", "successor", "validate", "__version__",
]
