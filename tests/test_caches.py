"""Every module-level cache of the package is bounded.

A cache keyed by diagrams, levels or complexes that has no bound grows for
the life of the process.  The scan imports each module of the package and
reads `cache_parameters()` off every module-level function that has one."""

import functools
import importlib
import pkgutil
import types

import adic


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


def test_package_caches_are_bounded():
    # __main__ runs the command line when imported
    modules = [importlib.import_module("adic." + info.name)
               for info in pkgutil.iter_modules(adic.__path__)
               if info.name != "__main__"]
    found = {m.__name__: module_caches(m) for m in modules}
    assert "path_table" in found["adic.diagrams"]
    unbounded = {name: sorted(n for n, size in caches.items() if size is None)
                 for name, caches in found.items()}
    assert {name: names for name, names in unbounded.items() if names} == {}
