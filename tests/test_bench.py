"""The benchmark's hooks into the package: its self-test passes, and every
function that its traced run wraps exists, so no per-layer metric reads 0
for want of a function."""

import importlib
import importlib.util
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")


def test_bench_selftest_passes():
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"),
                           "--selftest"], cwd=ROOT, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]


def test_every_traced_function_exists():
    spec = importlib.util.spec_from_file_location(
        "bench_spans", os.path.join(BENCH, "spans.py"))
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.METRICS
    for key, _ in spans.METRICS:
        module, name = key.split(".")
        assert callable(getattr(importlib.import_module("adic." + module),
                                name, None)), key
