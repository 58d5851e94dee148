"""Every module-level cache of the package is a bounded functools cache,
and the benchmark empties every one of them.

A cache keyed by diagrams, levels or complexes that has no bound grows for
the life of the process.  The scan imports each module of the package and
reads `cache_parameters()` off every module-level function that has one;
no module-level dict whose name contains "cache" stands in for one.  The
benchmark times its set-up from cold caches, so `cache_resets` of
`bench/run.py` must reach each cache the scan finds."""

import functools
import importlib
import importlib.util
import os
import pkgutil
import types

import adic

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
              if callable(getattr(value, "cache_parameters", None))}
    assert "adic.martingale.gather" in caches
    assert "adic.solenoid.cached_point" in caches
    assert sorted(name for name, value in caches.items()
                  if id(value) not in reached) == []


def test_package_has_no_dict_caches():
    assert [(m.__name__, name) for m in package_modules()
            for name, value in vars(m).items()
            if isinstance(value, dict) and "cache" in name.lower()] == []
