"""Span recorder for the traced run.

The recorder wraps public functions of the package from outside.  It
rebinds every module-level name that refers to a wrapped function, so that
calls through aliases (`compose_phi` as imported into `algebra` and
`solver`, say) and calls inside the defining module are both seen.  Each
call becomes a span with its name, start, end, self time and parent span.
Spans are kept in flat arrays in memory and written out when the run ends.

Self time is a span's length minus the length of the wrapped spans it
directly contains.  Work counts are read off return values.  A function
that no longer exists reads 0 and is reported, never fatal, so the
benchmark keeps running while the package loses functions.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array


def _values(result):
    return len(result.values)


# Work counts read off return values: stat name -> (function, reduction).
COUNTS = {
    "diagrams.enumerate_paths": {"paths": (len, "sum")},
    "martingale.compose_phi": {"values": (_values, "sum"),
                               "max_level": (lambda r: r.level, "max")},
    "martingale.lift": {"values": (_values, "sum")},
    "solver.birkhoff": {"steps": (lambda r: r.n_total, "sum")},
    "solenoid.bilip_check": {"pairs": (lambda r: r["pairs_checked"], "sum")},
    "algebra.neumann_invert": {"terms": (lambda r: r.terms, "sum")},
}

# Rates: stat name -> (count stat it divides, over the inclusive span time).
RATES = {
    "solver.birkhoff": {"steps_per_s": "steps"},
    "solenoid.bilip_check": {"pairs_per_s": "pairs"},
}

# The wrapped functions and the per-layer metrics the traced run reports
# for each, in BENCHMARK.json order.
METRICS = (
    ("diagrams.enumerate_paths", ("calls", "paths", "self_s")),
    ("diagrams.successor", ("calls", "self_s")),
    ("measures.renorm_data", ("calls", "self_s")),
    ("scalars.perron_data", ("self_s",)),
    ("scalars.solve_linear", ("calls", "self_s")),
    ("solenoid.point_distance", ("calls", "self_s")),
    ("solenoid.conjugacy_point", ("self_s",)),
    ("solenoid.bilip_check", ("pairs", "pairs_per_s")),
    ("solenoid.build_complex", ("calls", "self_s")),
    ("solenoid.diameter", ("calls", "self_s")),
    ("martingale.compose_phi", ("calls", "self_s", "values", "max_level")),
    ("martingale.lift", ("self_s", "values")),
    ("martingale.project", ("self_s",)),
    ("martingale.holder_norm", ("self_s",)),
    ("cohomology.limit_rank", ("calls", "self_s")),
    ("cohomology.distributions", ("calls", "self_s")),
    ("cohomology.birkhoff_cochain", ("self_s",)),
    ("solver.solve", ("calls", "self_s")),
    ("solver.birkhoff", ("steps", "self_s", "steps_per_s")),
    ("algebra.convolve", ("calls", "self_s")),
    ("algebra.involution", ("self_s",)),
    ("algebra.norms", ("self_s",)),
    ("algebra.trace", ("self_s",)),
    ("algebra.neumann_invert", ("terms", "self_s")),
    ("algebra.triangle_phi", ("self_s",)),
)

UNITS = {"calls": "count", "self_s": "s", "paths": "count",
         "values": "count", "max_level": "count", "steps": "count",
         "pairs": "count", "terms": "count", "steps_per_s": "1/s",
         "pairs_per_s": "1/s"}


def metric_names():
    """Every per-layer metric name with its unit, in report order."""
    out = [("%s.%s" % (fn, stat), UNITS[stat])
           for fn, stats in METRICS for stat in stats]
    return out + [("trace.overhead_pct", "%")]


class Recorder:
    """Wraps package functions and records one span per call."""

    def __init__(self, package):
        """package: {"diagrams": module, ...}."""
        self.names = []                 # span name table
        self.name_of = array("H")       # per span: index into names
        self.parent = array("i")        # per span: parent span or -1
        self.start = array("d")
        self.end = array("d")
        self.self_time = array("d")
        self.counts = {}                # "mod.fn" -> {stat: value}
        self.missing = []
        self._open = []                 # stack of [span index, child time]
        self._rebound = []              # (module, attribute, original)
        self._targets = []
        for key, _ in METRICS:
            mod, fn = key.split(".")
            original = getattr(package.get(mod), fn, None)
            if original is None:
                self.missing.append(key)
            else:
                self._targets.append((key, original))

    def install(self):
        """Rebind every module-level alias of each wrapped function."""
        modules = [m for m in sys.modules.values()
                   if getattr(m, "__name__", "").split(".")[0] == "adic"]
        for key, original in self._targets:
            wrapper = self._wrap(key, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._rebound.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self._rebound):
            setattr(module, attr, original)
        self._rebound = []

    def _wrap(self, key, fn):
        name_id = len(self.names)
        self.names.append(key)
        count_rules = COUNTS.get(key, {})
        counts = self.counts.setdefault(key, {s: 0 for s in count_rules})
        open_ = self._open
        name_of, parent, start, end, self_time = (
            self.name_of, self.parent, self.start, self.end, self.self_time)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(name_of)
            name_of.append(name_id)
            parent.append(open_[-1][0] if open_ else -1)
            end.append(0.0)
            self_time.append(0.0)
            frame = [idx, 0.0]
            open_.append(frame)
            t0 = clock()
            start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                open_.pop()
                length = t1 - t0
                end[idx] = t1
                self_time[idx] = length - frame[1]
                if open_:
                    open_[-1][1] += length
            for stat, (read, how) in count_rules.items():
                got = read(result)
                counts[stat] = counts[stat] + got if how == "sum" \
                    else max(counts[stat], got)
            return result
        return wrapper

    def summary(self):
        """Per function: calls, self_s, inclusive total_s and its counts."""
        out = {key: dict(counts, calls=0, self_s=0.0, total_s=0.0)
               for key, counts in self.counts.items()}
        for i in range(len(self.name_of)):
            rec = out[self.names[self.name_of[i]]]
            rec["calls"] += 1
            rec["self_s"] += self.self_time[i]
            rec["total_s"] += self.end[i] - self.start[i]
        return out

    def metrics(self, overhead_pct):
        """The per-layer metrics; a layer not entered, or a function that
        no longer exists, reads 0."""
        summ = self.summary()
        out = {}
        for key, stats in METRICS:
            rec = summ.get(key, {})
            for stat in stats:
                rate_of = RATES.get(key, {}).get(stat)
                if rate_of is not None:
                    total = rec.get("total_s", 0.0)
                    value = rec.get(rate_of, 0) / total if total else 0.0
                else:
                    value = rec.get(stat, 0)
                out["%s.%s" % (key, stat)] = {"value": value,
                                              "unit": UNITS[stat]}
        out["trace.overhead_pct"] = {"value": overhead_pct, "unit": "%"}
        return out

    def check_self_times(self, tol=1e-9):
        """Spans whose self time plus their children's lengths differs from
        their own length (should be none)."""
        child = [0.0] * len(self.name_of)
        for i in range(len(self.name_of)):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        return [i for i in range(len(self.name_of))
                if abs(self.self_time[i] + child[i]
                       - (self.end[i] - self.start[i])) > tol]

    def write(self, path):
        """All spans as gzipped JSON columns."""
        data = {"names": self.names, "missing": self.missing,
                "name": self.name_of.tolist(), "parent": self.parent.tolist(),
                "start": self.start.tolist(), "end": self.end.tolist(),
                "self": self.self_time.tolist(), "counts": self.counts}
        with gzip.open(path, "wt") as fh:
            json.dump(data, fh)
