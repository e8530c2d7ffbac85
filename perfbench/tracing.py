"""Per-layer spans for the traced benchmark run.

The tracer wraps public functions of the simulator from outside: nothing in
the package changes. Modules import functions by name, so a wrapper must be
installed in every namespace that holds the function: entering a ``Tracer``
scans every loaded ``sramdpe`` module for the original object and replaces
each binding, and leaving it restores them.

A span is ``[name, parent index, request id, start, end, quantity]``. Spans
stay in memory; a layer's self time is its span's duration minus the time its
child spans cover (one thread, so children never overlap).
"""

from __future__ import annotations

import statistics
import sys
import time

# span name -> (owning module, function, quantity recorded from the call)
_TARGETS = {
    "stack": ("sramdpe.device", "stack_current_arrays",
              lambda a, k, r: int(getattr(r[0], "size", 1))),
    "build": ("sramdpe.network", "build_network", None),
    "solve": ("sramdpe.network", "solve_operating_point",
              lambda a, k, r: int(r.iterations)),
    "spsolve": ("scipy.sparse.linalg", "spsolve",
                lambda a, k, r: int(a[0].shape[0])),
    "mc": ("sramdpe.variation", "monte_carlo_stats", lambda a, k, r: len(r)),
    "sample": ("sramdpe.variation", "sample_vt_offsets", None),
    "fit": ("sramdpe.variation", "fit_std_vs_current", None),
    "train": ("sramdpe.nn", "train_reference", None),
    "infer": ("sramdpe.nn", "infer", lambda a, k, r: len(a[0])),
    "eval_layer": ("sramdpe.nn", "evaluate_layer", None),
    "pack": ("sramdpe.crossbar", "pack_weights", None),
    "cli": ("sramdpe.cli", "main", None),
}

# per-layer metric -> unit, in report order
PER_LAYER_UNITS = {
    "device.stack_calls": "count",
    "device.stack_elems": "count",
    "device.stack_s": "s",
    "device.stack_ns_per_elem": "ns",
    "network.build_calls": "count",
    "network.build_s": "s",
    "network.solves": "count",
    "network.newton_iters": "count",
    "network.stack_calls_per_iter": "ratio",
    "network.solve_self_s": "s",
    "network.spsolve_calls": "count",
    "network.spsolve_s": "s",
    "network.unknowns_mean": "count",
    "variation.mc_points": "count",
    "variation.sample_calls": "count",
    "variation.sample_s": "s",
    "variation.mc_self_s": "s",
    "variation.fit_s": "s",
    "nn.train_s": "s",
    "nn.eval_layer_calls": "count",
    "nn.eval_layer_self_s": "s",
    "nn.infer_samples": "count",
    "crossbar.pack_calls": "count",
    "crossbar.pack_s": "s",
    "experiments.runner_s": "s",
    "cli.overhead_s": "s",
    "trace.overhead_frac": "ratio",
}

# Counts that must repeat exactly between passes and between traced runs.
COUNT_METRICS = [name for name, unit in PER_LAYER_UNITS.items()
                 if unit == "count" and name != "network.unknowns_mean"]


class Tracer:
    """Installs span-recording wrappers; use as a context manager."""

    def __init__(self):
        self.spans: list[list] = []
        self.request = -1
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, name, fn, quantity):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, self.request,
                    clock(), 0.0, 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if quantity is not None:
                span[5] = quantity(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _rebind(self, module, attr, value):
        self._undo.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def __enter__(self):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "sramdpe"
                                         or n.startswith("sramdpe."))]
        for name, (owner, attr, quantity) in _TARGETS.items():
            original = getattr(sys.modules[owner], attr)
            wrapper = self._wrap(name, original, quantity)
            self._rebind(sys.modules[owner], attr, wrapper)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, wrapper)
        runners = sys.modules["sramdpe.experiments"].RUNNERS
        for verb, fn in list(runners.items()):
            self._undo.append((runners, verb, fn))
            runners[verb] = self._wrap("runner", fn, None)
        return self

    def __exit__(self, *exc):
        for target, key, value in reversed(self._undo):
            if isinstance(target, dict):
                target[key] = value
            else:
                setattr(target, key, value)
        self._undo.clear()
        return False


def per_layer(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one pass, from its spans."""
    names = set(_TARGETS) | {"runner"}
    calls = dict.fromkeys(names, 0)
    total = dict.fromkeys(names, 0.0)
    own = dict.fromkeys(names, 0.0)
    qty = dict.fromkeys(names, 0)
    child = [0.0] * len(spans)
    for name, parent, _, start, end, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    stack_in_solve = 0
    for idx, (name, parent, _, start, end, q) in enumerate(spans):
        calls[name] += 1
        total[name] += end - start
        own[name] += end - start - child[idx]
        qty[name] += q
        if name == "stack" and parent >= 0 and spans[parent][0] == "solve":
            stack_in_solve += 1

    def ratio(a, b):
        return a / b if b else 0.0

    return {
        "device.stack_calls": calls["stack"],
        "device.stack_elems": qty["stack"],
        "device.stack_s": own["stack"],
        "device.stack_ns_per_elem": ratio(own["stack"] * 1e9, qty["stack"]),
        "network.build_calls": calls["build"],
        "network.build_s": own["build"],
        "network.solves": calls["solve"],
        "network.newton_iters": qty["solve"],
        "network.stack_calls_per_iter": ratio(stack_in_solve, qty["solve"]),
        "network.solve_self_s": own["solve"],
        "network.spsolve_calls": calls["spsolve"],
        "network.spsolve_s": total["spsolve"],
        "network.unknowns_mean": ratio(qty["spsolve"], calls["spsolve"]),
        "variation.mc_points": qty["mc"],
        "variation.sample_calls": calls["sample"],
        "variation.sample_s": total["sample"],
        "variation.mc_self_s": own["mc"],
        "variation.fit_s": total["fit"],
        "nn.train_s": total["train"],
        "nn.eval_layer_calls": calls["eval_layer"],
        "nn.eval_layer_self_s": own["eval_layer"],
        "nn.infer_samples": qty["infer"],
        "crossbar.pack_calls": calls["pack"],
        "crossbar.pack_s": own["pack"],
        "experiments.runner_s": total["runner"],
        "cli.overhead_s": total["cli"] - total["runner"],
    }


def median_per_layer(passes: list[dict[str, float]]) -> dict[str, float]:
    """Median of every per-layer metric over traced passes.

    Counts repeat exactly between passes, so they are taken as they are.
    """
    return {key: (passes[0][key] if key in COUNT_METRICS
                  else statistics.median(p[key] for p in passes))
            for key in passes[0]}
