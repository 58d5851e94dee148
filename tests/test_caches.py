"""Derived data is owned by its diagram, and the package has no
module-level cache.

Every table derived from a diagram (path tables, gathers, residual rows,
compose levels, orbit schedules, the Perron record, the solver's cylinder
weights, triangles, complexes, conjugacy points) is kept in the diagram's
`tables`, one dict per class of equal diagrams, and freed with the last of
them.  The scan imports each module of the package and reads
`cache_parameters()` off every module-level function that has one: none
is left.  No module-level dict whose name contains "cache" stands in for
one.  The benchmark times its set-up from cold caches, so `cache_resets`
of `bench/run.py` must reach the tables of every live diagram, points
included.  Emptying the tables changes no output."""

import functools
import gc
import importlib
import importlib.util
import os
import pkgutil
import random
import types
import weakref

import pytest
from test_coboundary_golden import _inputs, _path
from test_step import _prefixed, _random_diagram, coboundary

import adic
from adic import diagrams, martingale, solenoid, solver
from adic.algebra import convolve, element, rand_element
from adic.catalog import builtin_diagram
from adic.cohomology import limit_rank
from adic.diagrams import (FinitePath, LazyPath, TAIL_MIN,
                           diagram_from_json_dict, enumerate_paths)
from adic.errors import AdicError, ObstructedError
from adic.martingale import rand_function
from adic.measures import renorm_data

BENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "bench")


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
    found = {m.__name__: module_caches(m) for m in package_modules()}
    assert {name: caches for name, caches in found.items() if caches} == {}


def bench_run():
    spec = importlib.util.spec_from_file_location(
        "bench_run", os.path.join(BENCH, "run.py"))
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run, {m: importlib.import_module("adic." + m) for m in run.MODULES}


def test_benchmark_resets_every_cache():
    run, package = bench_run()
    resets = run.cache_resets(package)
    caches = {"%s.%s" % (m.__name__, name): value.cache_clear
              for m in package_modules() for name, value in vars(m).items()
              if callable(getattr(value, "cache_clear", None))}
    assert sorted(caches) == ["adic.diagrams.TABLES"]
    assert sorted(name for name, reset in caches.items()
                  if reset not in resets) == []


def test_package_has_no_dict_caches():
    assert [(m.__name__, name) for m in package_modules()
            for name, value in vars(m).items()
            if isinstance(value, dict) and "cache" in name.lower()] == []


def test_every_reset_empties_the_tables(odo2, fib):
    run, package = bench_run()
    martingale.gather(odo2, 1, 1, 4)
    martingale.residual_rows(fib, 1, 2)
    for d in (odo2, fib):
        solenoid.cached_point(d, renorm_data(d), FinitePath((0, 0)), 2)
    assert "cached_point" in odo2.tables and "cached_point" in fib.tables
    for reset in run.cache_resets(package):
        reset()
    assert not odo2.tables and not fib.tables
    assert all(not tables for tables in diagrams.TABLES.values())


@pytest.mark.parametrize("name", ["crossed_product", "coboundary",
                                  "solenoid_metric"])
def test_benchmark_set_up_starts_from_empty_tables(monkeypatch, name):
    # each workload builds its diagrams once and sets up three times: the
    # resets must empty their tables, or the later set-ups run warm
    monkeypatch.syspath_prepend(BENCH)
    run, package = bench_run()
    workload = importlib.import_module(name).Workload(1, 0.25)
    workload.setup()
    found = workload.diagrams
    found = list(found.values() if isinstance(found, dict) else found)
    assert any(d.tables for d in found)
    for reset in run.cache_resets(package):
        reset()
    assert [d for d in found if d.tables] == []


def test_tables_are_freed_with_the_last_equal_diagram():
    # the points of bilip_check and the cylinder weights of solve are kept
    # in the diagram's tables too, so they hold no diagram alive
    d = _random_diagram(random.Random(4611), 2, 5)
    twin = diagram_from_json_dict(d.to_json_dict())
    assert twin is not d and twin.tables is d.tables
    h = rand_function(random.Random(4612), twin, 2)
    solver.birkhoff(twin, h, LazyPath(FinitePath(()), TAIL_MIN), 100)
    martingale.residual_rows(d, 2, 1)
    paths = enumerate_paths(d, 3)
    solenoid.bilip_check(d, renorm_data(d), list(zip(paths, paths[1:])),
                         0.25)
    solver.solve(coboundary(d, h), limit_rank(d, renorm_data(d)))
    assert {"path_table", "renorm_data", "_orbit_schedule", "residual_rows",
            "cached_point", "_xi"} <= set(d.tables)
    tables = weakref.ref(d.tables)
    del d, h
    gc.collect()
    assert tables() is twin.tables
    del twin
    gc.collect()
    assert tables() is None


def test_warm_holder_norm_adds_no_table(fib):
    # the sweep slices the runs of the path tables, and keeps no plan of
    # its own
    r = random.Random(41)
    for level in range(5):
        h = rand_function(r, fib, level)
        for k in range(max(level, 1) + 1):
            diagrams.path_table(fib, k)
        kept = {kind: dict(built) for kind, built in fib.tables.items()}
        for alpha in (0.0, 3.0):
            martingale.holder_norm(fib, h, alpha, 1.6)
        assert fib.tables == kept, level


def test_residual_rows_stores_no_gathers(odo2, fib):
    # the three index maps of the residual are built unkept: only the
    # deduplicated rows join the diagram's tables
    for d, levels in ((odo2, (1, 2)), (fib, (3, 2)), (fib, (0, 1))):
        d.tables.clear()
        martingale.residual_rows(d, *levels)
        assert "gather" not in d.tables
        assert list(d.tables["residual_rows"]) == [levels]


def _outputs(d):
    """Distributions, solve, Birkhoff sums, products and a metric report
    on d, as values; a refused report as its typed error."""
    r = random.Random(2811)
    tower = limit_rank(d, renorm_data(d))
    out = [_path(d, tower, h) for _, h in _inputs(d, r)[:6]]
    paths = enumerate_paths(d, 3)
    pairs = [tuple(r.sample(paths, 2)) for _ in range(6)]
    try:
        out.append(solenoid.bilip_check(d, renorm_data(d), pairs, 0.25, 2))
    except AdicError as exc:
        out.append((type(exc), str(exc)))
    lam = renorm_data(d).lam_float
    for _ in range(3):
        # shifts of a <= 0: fib composes with nonnegative powers only
        a = element(d, lam, 3, {-k: rand_function(r, d, r.randint(0, 3))
                                for k in range(3)})
        b = rand_element(r, d, lam, 3, (3, 2, 3))
        out.append({k: (f.level, f.values)
                    for k, f in sorted(convolve(a, b).coeffs.items())})
    return out


class _Evicting(diagrams.Tables):
    """Tables that empty themselves before each build is kept, so only the
    latest one is ever held."""

    def setdefault(self, kind, built):
        self.clear()
        return super().setdefault(kind, built)


@pytest.mark.parametrize("name", ["odo2", "fib", "pisot31",
                                  "prefixed-pisot31"])
def test_emptying_the_tables_changes_no_output(name):
    d = builtin_diagram(name.split("-")[-1])
    if name.startswith("prefixed"):
        d = _prefixed(d)
    d.tables.clear()
    want = _outputs(d)
    assert _outputs(d) == want
    kept = d.tables
    object.__setattr__(d, "tables", _Evicting())
    try:
        assert _outputs(d) == want
    finally:
        object.__setattr__(d, "tables", kept)


@pytest.mark.parametrize("name", ["odo2", "fib", "pisot31"])
def test_towers_of_one_diagram_share_the_xi_columns(name):
    # the cylinder weights of a certificate level are kept with the
    # diagram, not the tower: a second tower's solve adds no table
    d = builtin_diagram(name)
    d.tables.pop("_xi", None)
    first, second = (limit_rank(d, renorm_data(d)) for _ in range(2))
    assert first is not second
    levels = set()
    for _, h in _inputs(d, random.Random(2812)):
        try:
            levels.add(solver.solve(h, first).level)
        except ObstructedError:
            continue
        kept = {(kind, args): id(built) for kind, table in d.tables.items()
                for args, built in table.items()}
        solver.solve(h, second)
        assert {(kind, args): id(built) for kind, table in d.tables.items()
                for args, built in table.items()} == kept
    assert levels and sorted(d.tables["_xi"]) == [(m,) for m in sorted(levels)]
