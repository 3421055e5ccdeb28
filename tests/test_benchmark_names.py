"""The benchmark's traced names must exist in the package.

BENCHMARK.json lists the per-layer metrics a traced benchmark run reports,
and perfbench/workloads.py the spans each workload's traced run must
record.  Renaming or deleting a traced function breaks that run; these
tests catch it without running the benchmark.
"""

import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        f"_perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


spans = _load("spans")
workloads = _load("workloads")


def test_benchmark_per_layer_names_are_recordable():
    per_layer = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    assert per_layer
    assert sorted(set(per_layer) - spans.metric_names()) == []


def test_traced_spans_are_public_callables():
    functions, methods = spans.public_callables()
    names = set(functions.values()) | {m[3] for m in methods}
    traced = {span for spans_ in workloads.TRACED_SPANS.values() for span in spans_}
    assert sorted(traced - names) == []
