"""Span recorder and timing shims for the traced benchmark run.

The shims wrap the names one basingen module imports from another (for
example ``basingen.harness.evaluate``) and the public calls the benchmark
itself makes, so every layer boundary opens a span without a single
change under ``src/``.  They are installed only in the traced worker
process; the untraced run calls the library directly.

Spans live in memory as parallel columns (name id, start, end, parent,
request id) and are written out once, when the run ends.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np


def min_draws(params) -> int:
    """Fewest uniform deviates one function of `params` can consume:
    the vertex (dim), its spherical angles (dim - 1), minimizers 3..m
    (dim each), two value draws per minimizer 3..m and one for delta."""
    return params.num_minima * params.dim + 2 * params.num_minima - 4


class Tracer:
    """In-memory span store for one single-threaded process."""

    def __init__(self):
        self.origin = perf_counter()
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.request = array("q")
        self._stack = [-1]
        self.request_id = 0
        self.paused = False
        self.counters: dict[str, float] = defaultdict(float)

    @contextmanager
    def pause(self):
        """Record nothing inside the block (the benchmark's own checks)."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    def new_request(self) -> None:
        """Start a new request id; spans opened from now on share it."""
        self.request_id += 1

    def wrap(self, name: str, fn, counter: str | None = None):
        """Return `fn` wrapped so that each call records one span."""
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        stack = self._stack
        counters = self.counters

        def shim(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1])
            self.request.append(self.request_id)
            self.end.append(0.0)
            stack.append(idx)
            if counter is not None:
                counters[counter] += 1
            self.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                stack.pop()

        shim.__wrapped__ = fn
        return shim

    def install(self, api) -> None:
        """Wrap the names basingen's modules import from each other and
        the entries of the benchmark's call table `api`, in place."""
        from basingen import generator, harness, notebook, rng

        tracer = self
        counters = self.counters

        class CountingLaggedFibonacci(rng.LaggedFibonacci):
            def uniform(self):
                if not tracer.paused:
                    counters["rng.uniform.calls"] += 1
                return super().uniform()

        timed_generate = self.wrap("generator.generate", generator.generate)

        def traced_generate(params, nf):
            if tracer.paused:
                return generator.generate(params, nf)
            before = counters["rng.uniform.calls"]
            func = timed_generate(params, nf)
            counters["generator.draws"] += counters["rng.uniform.calls"] - before
            counters["generator.min_draws"] += min_draws(params)
            return func

        generator.LaggedFibonacci = self.wrap("rng.seed", CountingLaggedFibonacci)
        generator.check = self.wrap("params.check", generator.check)
        generator.ground_truth_problems = self.wrap(
            "generator.audit", generator.ground_truth_problems
        )
        harness.generate = traced_generate
        harness.evaluate = self.wrap("evaluate.value", harness.evaluate)
        harness.d_gradient = self.wrap(
            "evaluate.gradient", harness.d_gradient, "harness.gradient_queries"
        )
        harness.d2_gradient = self.wrap(
            "evaluate.gradient", harness.d2_gradient, "harness.gradient_queries"
        )
        notebook.generate = traced_generate
        notebook.ground_truth_problems = self.wrap(
            "generator.audit", notebook.ground_truth_problems
        )

        api.generate = traced_generate
        api.run_solver = self.wrap("harness.run_solver", api.run_solver)
        api.export_class = self.wrap("notebook.export", api.export_class)
        api.load_class = self.wrap("notebook.load", api.load_class)
        api.eval_many = self.wrap("evaluate.eval_many", api.eval_many)
        api.evaluate = self.wrap("evaluate.value", api.evaluate)
        api.d_gradient = self.wrap("evaluate.gradient", api.d_gradient)
        api.d2_gradient = self.wrap("evaluate.gradient", api.d2_gradient)
        api.d2_hessian = self.wrap("evaluate.hessian", api.d2_hessian)

    def columns(self) -> dict[str, np.ndarray]:
        """Spans as arrays; times in seconds since the tracer started."""
        return {
            "name": np.frombuffer(self.name, dtype=np.uint16),
            "start": np.frombuffer(self.start, dtype=np.float64) - self.origin,
            "end": np.frombuffer(self.end, dtype=np.float64) - self.origin,
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "request": np.frombuffer(self.request, dtype=np.int64),
        }

    def write(self, path) -> None:
        """Write every span (name, start, end, parent, request id) to an
        ``.npz`` file; ``names`` maps the name ids to layer names."""
        np.savez(path, names=np.array(self.names), **self.columns())

    def layer_metrics(self) -> dict[str, float]:
        """Calls, busy time and self time in seconds per span name.

        A span's self time is its duration minus the durations of its
        direct children; spans nest strictly in one thread, so children
        never overlap each other.
        """
        cols = self.columns()
        dur = cols["end"] - cols["start"]
        parent = cols["parent"]
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        self_time = dur - child
        out: dict[str, float] = {}
        for nid, name in enumerate(self.names):
            mask = cols["name"] == nid
            out[f"{name}.calls"] = int(mask.sum())
            out[f"{name}.busy_s"] = float(dur[mask].sum())
            out[f"{name}.self_s"] = float(self_time[mask].sum())
            if name == "generator.generate" and mask.any():
                out[f"{name}.p50_ms"] = float(np.median(dur[mask])) * 1e3
                out[f"{name}.p99_ms"] = float(np.percentile(dur[mask], 99)) * 1e3
        return out
