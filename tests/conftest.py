import random

import pytest
from hypothesis import settings

from adic.catalog import builtin_diagram

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


def rng(seed):
    return random.Random(seed)
