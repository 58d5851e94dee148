"""Every module-level cache of the package is bounded, and the benchmark
empties every one of them.

A cache keyed by diagrams, levels or complexes that has no bound grows for
the life of the process.  The scan imports each module of the package and
reads `cache_parameters()` off every module-level function that has one.
A module-level dict whose name contains "cache" must come with an int
`<NAME>_SIZE` (its name without leading underscores), and stays within it
when filled past a small bound.  The benchmark times its set-up from cold
caches, so `cache_resets` of `bench/run.py` must reach each cache the scan
finds."""

import functools
import importlib
import importlib.util
import os
import pkgutil
import types

import pytest

import adic
from adic import catalog, diagrams, measures, solenoid

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
    unbounded = {name: sorted(n for n, size in caches.items() if size is None)
                 for name, caches in found.items()}
    assert {name: names for name, names in unbounded.items() if names} == {}


def test_benchmark_resets_every_cache():
    spec = importlib.util.spec_from_file_location("bench_run", BENCH_RUN)
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    package = {m: importlib.import_module("adic." + m) for m in run.MODULES}
    reached = {id(reset.__self__) for reset in run.cache_resets(package)}
    caches = {"%s.%s" % (m.__name__, name): value
              for m in package_modules() for name, value in vars(m).items()
              if callable(getattr(value, "cache_parameters", None))
              or name in dict_caches(m)}
    assert "adic.martingale.gather" in caches
    assert "adic.solenoid._POINT_CACHE" in caches
    assert sorted(name for name, value in caches.items()
                  if id(value) not in reached) == []


def dict_caches(module):
    """{name: size} of the module-level dicts of a module whose name
    contains "cache"; size is the int <NAME>_SIZE, or None without one."""
    out = {}
    for name, value in vars(module).items():
        if isinstance(value, dict) and "cache" in name.lower():
            size = getattr(module, name.lstrip("_") + "_SIZE", None)
            out[name] = size if isinstance(size, int) else None
    return out


def _fill_complexes(n):
    d = catalog.builtin_diagram("odo2")
    rd = measures.renorm_data(d)
    for k in range(n):
        solenoid.cached_complexes(d, rd, k)


def _fill_points(n):
    d = catalog.builtin_diagram("odo2")
    rd = measures.renorm_data(d)
    paths = diagrams.enumerate_paths(d, 0, 4)
    solenoid.bilip_check(d, rd, list(zip(paths[:n], paths[1:n + 1])),
                         0.25, 1)


# How to put n distinct keys into each dict cache of the package.
FILLERS = {"adic.solenoid._COMPLEX_CACHE": _fill_complexes,
           "adic.solenoid._POINT_CACHE": _fill_points}


def overfilled(module, name, fill, size=3):
    """Length of the cache after size + 4 distinct keys, with its bound
    set to size."""
    cache = getattr(module, name)
    cache.clear()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, name.lstrip("_") + "_SIZE", size)
        fill(size + 4)
    got = len(cache)
    cache.clear()
    return got


def _fake_module(evict):
    fake = types.ModuleType("fake")
    fake._FAKE_CACHE = {}
    fake.FAKE_CACHE_SIZE = 16
    fake.other_cache = {}

    def fill(n):
        for key in range(n):
            fake._FAKE_CACHE[key] = key
            if evict and len(fake._FAKE_CACHE) > fake.FAKE_CACHE_SIZE:
                del fake._FAKE_CACHE[next(iter(fake._FAKE_CACHE))]
    return fake, fill


def test_dict_scan_finds_a_missing_bound_and_an_unbounded_fill():
    bounded, fill = _fake_module(evict=True)
    assert dict_caches(bounded) == {"_FAKE_CACHE": 16, "other_cache": None}
    assert overfilled(bounded, "_FAKE_CACHE", fill) == 3
    unbounded, fill = _fake_module(evict=False)
    assert overfilled(unbounded, "_FAKE_CACHE", fill) == 7


def test_package_dict_caches_are_bounded():
    found = {"%s.%s" % (m.__name__, name): (m, name, size)
             for m in package_modules()
             for name, size in dict_caches(m).items()}
    assert sorted(found) == sorted(FILLERS)
    for key, (module, name, size) in found.items():
        assert isinstance(size, int) and size > 0, key
        assert overfilled(module, name, FILLERS[key]) == 3, key
