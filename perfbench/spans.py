"""In-memory span tracer for the layers of bilinid.

The tracer wraps every public function and method of the layer modules,
at every layer module that holds a reference to it, so that a call made
through `from .sysmodel import simulate` is seen as well as one made
through `estimator.build_design`.  A span records its name, start, end
and the span that caused it; self time is the span's duration minus the
time its child spans cover.  Nothing is written until `write_jsonl`.

The wrappers exist only inside `Tracer.installed()`; untraced passes run
the program's own functions.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import time
from collections import defaultdict

PACKAGE = "bilinid"
LAYERS = ("sysmodel", "estimator", "excitation", "hokalman", "experiments",
          "serialize", "cli")


def _noise_draws(args) -> int:
    # One measurement draw and n process-noise draws per draw and step.
    return args["n_draws"] * (max(int(t) for t in args["times"]) + 1) * (args["model"].n + 1)


# Counters recorded from a call's arguments and result, keyed by span name,
# with the keys each can record.  Byte counts are computed from array
# shapes, not measured.
COUNTERS = {
    "estimator.design_from_inputs": lambda res, args: {"bytes": res.U_tilde.nbytes},
    "estimator.estimate_markov": lambda res, args: {res.solver_mode: 1},
    "experiments.batch_simulate_outputs": lambda res, args: {"noise_draws": _noise_draws(args)},
    "cli.main": lambda res, args: {f"exit_{res}": 1},
}
COUNTER_KEYS = {
    "estimator.design_from_inputs": ("bytes",),
    "estimator.estimate_markov": ("full_rank", "min_norm"),
    "experiments.batch_simulate_outputs": ("noise_draws",),
    "cli.main": ("exit_0", "exit_2", "exit_3", "exit_4"),
}
# Computed from the pass times, not from spans.
PASS_METRICS = ("trace.wall_s", "trace.overhead_frac")


def public_callables():
    """Span name for every public function and method defined in a layer.

    Returns ({function: name}, [(class, attribute, descriptor, name)]).
    """
    functions, methods = {}, []
    for layer in LAYERS:
        module = importlib.import_module(f"{PACKAGE}.{layer}")
        for attr, obj in vars(module).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                functions[obj] = f"{layer}.{attr}"
            elif inspect.isclass(obj):
                for mname, member in vars(obj).items():
                    if mname.startswith("_"):
                        continue
                    if inspect.isfunction(member) or isinstance(member, (classmethod, staticmethod)):
                        methods.append((obj, mname, member, f"{layer}.{obj.__name__}.{mname}"))
    return functions, methods


def metric_names() -> set[str]:
    """Every per-layer metric a traced run can record.  One of these that a
    run did not record reads 0: the tracer was installed and saw no call."""
    functions, methods = public_callables()
    spans = set(functions.values()) | {m[3] for m in methods}
    names = {f"{span}.{kind}" for span in spans for kind in ("calls", "self_s")}
    names |= {f"{span}.{key}" for span, keys in COUNTER_KEYS.items() for key in keys}
    return names | set(PASS_METRICS)


class Tracer:
    """Spans of one benchmark run, grouped by traced pass."""

    def __init__(self):
        self.spans = []      # [pass, name, start, end, parent index or -1]
        self.counters = defaultdict(float)
        self.passes = 0
        self._stack = []

    def _wrap(self, fn, name):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None
        spans, stack, counters = self.spans, self._stack, self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [self.passes, name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if counter:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                for key, value in counter(result, bound.arguments).items():
                    counters[f"{name}.{key}"] += value
            return result
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Trace one pass: patch the layers, restore them on exit."""
        functions, methods = public_callables()
        wrappers = {fn: self._wrap(fn, name) for fn, name in functions.items()}
        patches = []  # (owner, attribute, original)
        modules = [importlib.import_module(PACKAGE)]
        modules += [importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    patches.append((module, attr, obj))
                    setattr(module, attr, wrappers[obj])
        for cls, attr, member, name in methods:
            patches.append((cls, attr, member))
            if isinstance(member, (classmethod, staticmethod)):
                setattr(cls, attr, type(member)(self._wrap(member.__func__, name)))
            else:
                setattr(cls, attr, self._wrap(member, name))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)
            self.passes += 1

    def summary(self) -> dict:
        """Per-pass means of calls, self time and counters for every span name."""
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for pass_no, name, start, end, parent in self.spans:
            duration = end - start
            calls[name] += 1
            self_s[name] += duration
            if parent >= 0:
                self_s[self.spans[parent][1]] -= duration
        passes = max(self.passes, 1)
        out = {}
        for name in calls:
            out[f"{name}.calls"] = calls[name] / passes
            out[f"{name}.self_s"] = self_s[name] / passes
        for key, value in self.counters.items():
            out[key] = value / passes
        return out

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for index, (pass_no, name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"pass": pass_no, "id": index, "parent": parent,
                                     "name": name, "start": start, "end": end}) + "\n")
