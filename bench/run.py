#!/usr/bin/env python3
"""Benchmark of the adic package: one workload, one seed, one run.

    python3 bench/run.py --workload coboundary --seed 1 --seconds 20 --trace 0

Run from the root of a source tree: the package is imported from `src/`.
A run builds a fixed, seeded list of operations whose length follows
`--seconds`, sets the program up, times every operation over several passes
of the list, then checks the outputs of the last pass against the oracles in
`oracles.py`.  The last line of standard
output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with `--trace 0`, the per-layer metrics of
`spans.py` with `--trace 1`.  Spans of a traced run are written to
`bench/out/`.  `--selftest` runs the checks of `selftest.py` instead.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

# The package modules the benchmark calls into, imported inside setup_s.
MODULES = ("diagrams", "measures", "scalars", "solenoid", "martingale",
           "cohomology", "solver", "algebra", "catalog")
WORKLOADS = ("crossed_product", "coboundary", "solenoid_metric")
# Set-up is repeated from cold caches this many times; setup_s reports the
# import time plus the median repetition.
SETUP_REPEATS = 3
# Times are reported in reference seconds.  The CPU speed of a shared
# machine drifts, by up to 2x within seconds; every timed stretch is divided
# by the time of the fixed calibration loop run next to it, and multiplied by
# CALIBRATION_S, that loop's time on the reference machine.
CALIBRATION_S = 0.005
SEGMENT_S = 0.05
# The operation list is sized for --seconds / PASSES and run PASSES times;
# each operation's time is its median over the passes, and ops_per_s uses
# the median pass, which filters out passes slowed by other load.
PASSES = 5


def load_package():
    """Import the package from ROOT/src; {short name: module}."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "adic", "__init__.py")):
        raise ImportError("no package at %s" % src)
    sys.path.insert(0, src)
    importlib.import_module("adic")
    return {m: importlib.import_module("adic." + m) for m in MODULES}


def cache_resets(package):
    """Functions that empty the package's caches: every lru_cache found at
    module level and every module-level dict whose name contains "cache"."""
    out = []
    for module in package.values():
        for name, value in vars(module).items():
            if callable(getattr(value, "cache_clear", None)):
                out.append(value.cache_clear)
            elif isinstance(value, dict) and "cache" in name.lower():
                out.append(value.clear)
    return out


def calibration_loop():
    """A fixed pure-Python loop of tuple, dict and Fraction work, about 5 ms
    on the reference machine."""
    acc, seen = Fraction(0), {}
    for i in range(1500):
        key = (i % 7, i % 11, i % 13)
        seen[key] = seen.get(key, 0) + 1
        acc += Fraction(i % 5 + 1, i % 3 + 2)
    return acc


def calibrate():
    t0 = time.perf_counter()
    calibration_loop()
    return time.perf_counter() - t0


def cold_setup(workload, resets):
    """Empty the package's caches, then time the workload's set-up, in
    reference seconds."""
    for reset in resets:
        reset()
    gc.collect()
    before = calibrate()
    t0 = time.perf_counter()
    workload.setup()
    took = time.perf_counter() - t0
    return took * CALIBRATION_S / ((before + calibrate()) / 2)


def timed_pass(workload):
    """Run every operation once, in list order.  Returns (outputs, per-op
    times, pass time, failures), times in reference seconds; a failed
    operation's output is None.  After every SEGMENT_S of operations the
    calibration loop runs, and the segment's times are scaled by
    CALIBRATION_S over the mean of the loop's times before and after it."""
    ops = workload.operations()
    outputs, times, failed = [], [], 0
    clock = time.perf_counter
    gc.collect()
    before, first, segment = calibrate(), 0, 0.0
    for i, op in enumerate(ops):
        t0 = clock()
        try:
            out = op()
        except Exception:  # an operation that raises counts as failed
            out = None
            failed += 1
            traceback.print_exc(file=sys.stderr)
        took = clock() - t0
        times.append(took)
        outputs.append(out)
        segment += took
        if segment >= SEGMENT_S or i == len(ops) - 1:
            after = calibrate()
            scale = CALIBRATION_S / ((before + after) / 2)
            times[first:] = [t * scale for t in times[first:]]
            before, first, segment = after, i + 1, 0.0
    return outputs, times, sum(times), failed


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(package, import_s, workload_name, seed, seconds, trace):
    resets = cache_resets(package)
    workload = importlib.import_module(workload_name).Workload(
        seed, seconds / PASSES)
    failed = 0

    if not trace:
        setups = [cold_setup(workload, resets) for _ in range(SETUP_REPEATS)]
        walls, per_op = [], []
        for _ in range(PASSES):
            outputs, times, wall, fails = timed_pass(workload)
            walls.append(wall)
            per_op.append(times)
            failed += fails
        rss = peak_rss_mb()
        op_s = [statistics.median(ts) for ts in zip(*per_op)]
        metrics = {
            "ops_per_s": {"value": len(op_s) / statistics.median(walls),
                          "unit": "ops/s"},
            "op_p50_ms": {"value": 1e3 * statistics.median(op_s),
                          "unit": "ms"},
            "op_p90_ms": {"value": 1e3 * statistics.quantiles(
                op_s, n=10, method="inclusive")[8], "unit": "ms"},
            "setup_s": {"value": import_s + statistics.median(setups),
                        "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        }
        print("%s seed %d: %d operations x %d passes of %s s; set-up %s s"
              % (workload_name, seed, len(op_s), PASSES,
                 ", ".join("%.3f" % w for w in walls),
                 ", ".join("%.3f" % s for s in setups)), file=sys.stderr)
    else:
        import spans
        recorder = spans.Recorder(package)
        for name in recorder.missing:
            print("trace: adic.%s no longer exists; its metrics read 0"
                  % name, file=sys.stderr)
        cold_setup(workload, resets)
        plain, traced = [], []
        for k in range(PASSES):
            plain.append(timed_pass(workload)[2])
            recorder.install()
            try:
                if k == 0:
                    cold_setup(workload, resets)
                outputs, times, wall, fails = timed_pass(workload)
            finally:
                recorder.uninstall()
            traced.append(wall)
            failed += fails
        overhead = 100.0 * (statistics.median(traced)
                            / statistics.median(plain) - 1.0)
        metrics = recorder.metrics(overhead)
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, "%s-seed%d.spans.json.gz"
                            % (workload_name, seed))
        recorder.write(path)
        print("%s seed %d: %d operations x %d passes; traced %s s, plain %s "
              "s; %d spans in %s"
              % (workload_name, seed, len(times), PASSES,
                 ", ".join("%.3f" % w for w in traced),
                 ", ".join("%.3f" % w for w in plain),
                 len(recorder.name_of), path), file=sys.stderr)

    bad = workload.check(outputs)
    for msg in bad[:20]:
        print("check failed: %s" % msg, file=sys.stderr)
    print(json.dumps({"correct": not bad, "attempted": PASSES * len(times),
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    if args.workload is None and not args.selftest:
        parser.error("--workload is required")
    before = calibrate()
    t0 = time.perf_counter()
    try:
        package = load_package()
    except ImportError as exc:
        print("error: cannot import the adic package from %s: %s"
              % (os.path.join(ROOT, "src"), exc), file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t0
    import_s *= CALIBRATION_S / ((before + calibrate()) / 2)
    if args.selftest:
        import selftest
        return selftest.main(package)
    return run(package, import_s, args.workload, args.seed, args.seconds,
               args.trace)


if __name__ == "__main__":
    sys.exit(main())
