import random

import pytest
from hypothesis import settings

from adic.catalog import builtin_diagram
from adic.diagrams import OrderedDiagram, make_level

# One hypothesis profile for every run: examples from a fixed seed, a
# bounded number of them, and no deadline for the slower exact examples.
settings.register_profile("adic", derandomize=True, max_examples=50,
                          deadline=None)
settings.load_profile("adic")


@pytest.fixture(scope="session")
def odo2():
    return builtin_diagram("odo2")


@pytest.fixture(scope="session")
def odo3():
    return builtin_diagram("odo3")


@pytest.fixture(scope="session")
def fib():
    return builtin_diagram("fib")


@pytest.fixture(scope="session")
def pisot31():
    return builtin_diagram("pisot31")


@pytest.fixture(scope="session")
def golden2():
    """A properly ordered diagram with an irrational Perron root: one level
    on a, b with matrix [[2,1],[1,1]], so lambda = phi^2 in Q(sqrt 5).  Its
    edges are 0, 1: a->a, 2: b->a, 3: a->b, 4: b->b."""
    edges = [(0, 0), (0, 0), (1, 0), (0, 1), (1, 1)]
    level = make_level(2, 2, edges, [[2, 0, 1], [4, 3]])
    return OrderedDiagram((level,), stationary=True)


def rng(seed):
    return random.Random(seed)
