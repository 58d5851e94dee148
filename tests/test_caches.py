"""Every module-level cache of the package is bounded, and the benchmark
empties every one of them.

A cache keyed by diagrams, levels or complexes that has no bound grows for
the life of the process.  The scan imports each module of the package and
reads `cache_parameters()` off every module-level function that has one:
each is bounded by its maxsize, or is a member of the table store of
`diagrams`, which is bounded by `STORE_BUDGET` integers.  No module-level
dict whose name contains "cache" stands in for one.  The benchmark times
its set-up from cold caches, so `cache_resets` of `bench/run.py` must reach
each cache the scan finds, and leave the store empty with a charge of 0.
Emptying the store changes no output."""

import functools
import importlib
import importlib.util
import os
import pkgutil
import random
import types

import pytest
from test_coboundary_golden import _inputs, _path
from test_step import _prefixed

import adic
from adic import diagrams, martingale
from adic.algebra import convolve, element, rand_element
from adic.catalog import builtin_diagram
from adic.cohomology import limit_rank
from adic.martingale import rand_function
from adic.measures import renorm_data

BENCH_RUN = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "bench", "run.py")


def module_caches(module):
    """{name: maxsize} of the module-level functools caches of a module."""
    return {name: value.cache_parameters()["maxsize"]
            for name, value in vars(module).items()
            if callable(getattr(value, "cache_parameters", None))}


def test_scan_finds_an_unbounded_cache():
    fake = types.ModuleType("fake")
    fake.bounded = functools.lru_cache(maxsize=4)(abs)
    fake.unbounded = functools.lru_cache(maxsize=None)(abs)
    fake.plain = functools.cache(abs)
    assert module_caches(fake) == {"bounded": 4, "unbounded": None,
                                   "plain": None}


def package_modules():
    # __main__ runs the command line when imported
    return [importlib.import_module("adic." + info.name)
            for info in pkgutil.iter_modules(adic.__path__)
            if info.name != "__main__"]


def test_package_caches_are_bounded():
    modules = package_modules()
    found = {m.__name__: module_caches(m) for m in modules}
    assert "path_table" in found["adic.diagrams"]
    store = set(map(id, diagrams.STORE))
    unbounded = {m.__name__: sorted(n for n, size in found[m.__name__].items()
                                    if size is None
                                    and id(getattr(m, n)) not in store)
                 for m in modules}
    assert {name: names for name, names in unbounded.items() if names} == {}
    assert diagrams.STORE == [diagrams.path_table, martingale.gather,
                              martingale.residual_rows]
    assert diagrams.STORE_BUDGET == 4 * diagrams.PATH_BUDGET


def bench_run():
    spec = importlib.util.spec_from_file_location("bench_run", BENCH_RUN)
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run, {m: importlib.import_module("adic." + m) for m in run.MODULES}


def _fill_store():
    odo2 = builtin_diagram("odo2")
    martingale.gather(odo2, 1, 1, 4)
    martingale.residual_rows(odo2, 1, 2)
    assert diagrams.store_charge > 0
    assert all(m.cache_info().currsize for m in diagrams.STORE)


def test_benchmark_resets_every_cache():
    run, package = bench_run()
    reached = {id(reset.__self__) for reset in run.cache_resets(package)}
    caches = {"%s.%s" % (m.__name__, name): value
              for m in package_modules() for name, value in vars(m).items()
              if callable(getattr(value, "cache_parameters", None))}
    assert "adic.martingale.gather" in caches
    assert "adic.solenoid.cached_point" in caches
    assert sorted(name for name, value in caches.items()
                  if id(value) not in reached) == []


def test_package_has_no_dict_caches():
    assert [(m.__name__, name) for m in package_modules()
            for name, value in vars(m).items()
            if isinstance(value, dict) and "cache" in name.lower()] == []


def test_every_reset_empties_the_store():
    # a stale charge left by one member's reset would empty the store early
    for member in diagrams.STORE:
        _fill_store()
        member.cache_clear()
        assert diagrams.store_charge == 0
        assert [m.cache_info().currsize for m in diagrams.STORE] == [0] * 3
    run, package = bench_run()
    _fill_store()
    for reset in run.cache_resets(package):
        reset()
    assert diagrams.store_charge == 0
    assert [m.cache_info().currsize for m in diagrams.STORE] == [0] * 3


def test_warm_holder_norm_adds_nothing_to_the_store(fib):
    # the sweep slices the runs of the path tables, and holds no plan of
    # its own in the store
    r = random.Random(41)
    diagrams.clear_store()
    for level in range(5):
        h = rand_function(r, fib, level)
        for k in range(max(level, 1) + 1):
            diagrams.path_table(fib, k)
        charge = diagrams.store_charge
        for alpha in (0.0, 3.0):
            martingale.holder_norm(fib, h, alpha, 1.6)
        assert diagrams.store_charge == charge, level
    diagrams.clear_store()


def test_residual_rows_stores_no_gathers(odo2, fib):
    # the three index maps of the residual are built unstored: only the
    # deduplicated rows are charged to the store
    for d, levels in ((odo2, (1, 2)), (fib, (3, 2)), (fib, (0, 1))):
        diagrams.clear_store()
        martingale.residual_rows(d, *levels)
        assert martingale.gather.cache_info().currsize == 0
        assert martingale.residual_rows.cache_info().currsize == 1
    diagrams.clear_store()


def _outputs(d):
    """Distributions, solve, Birkhoff sums and products on d, as values."""
    r = random.Random(2811)
    tower = limit_rank(d, renorm_data(d))
    out = [_path(d, tower, h) for _, h in _inputs(d, r)[:6]]
    lam = renorm_data(d).lam_float
    for _ in range(3):
        # shifts of a <= 0: fib composes with nonnegative powers only
        a = element(d, lam, 3, {-k: rand_function(r, d, r.randint(0, 3))
                                for k in range(3)})
        b = rand_element(r, d, lam, 3, (3, 2, 3))
        out.append({k: (f.level, f.values)
                    for k, f in sorted(convolve(a, b).coeffs.items())})
    return out


@pytest.mark.parametrize("name", ["odo2", "fib", "pisot31",
                                  "prefixed-pisot31"])
def test_store_eviction_changes_no_output(monkeypatch, name):
    d = builtin_diagram(name.split("-")[-1])
    if name.startswith("prefixed"):
        d = _prefixed(d)
    diagrams.clear_store()
    want = _outputs(d)
    # a budget of one integer: every build empties the store first
    monkeypatch.setattr(diagrams, "STORE_BUDGET", 1)
    diagrams.clear_store()
    assert _outputs(d) == want
    diagrams.clear_store()
