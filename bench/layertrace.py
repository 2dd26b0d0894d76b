"""Per-layer tracing of netmoment from outside the package.

A Tracer replaces every public function of the layer modules (the names in
each module's __all__) by a wrapper, at every module attribute the function
is bound to, so calls made through `from .quad import integrate_weighted`
bindings are seen as well.  Wrappers record one span per call (name, start,
end, parent span, pass id) plus call counts and work counts, all in memory.
The scalar Bessel functions are called tens of thousands of times from
inside the quadrature, so they are counted only; their time stays in the
caller's span.

Self time of a span is its duration minus the durations of its direct child
spans.  The traced child runs one thread (NETMOMENT_THREADS=1), so spans
nest on a single stack.
"""
from __future__ import annotations

import functools
import inspect
import os
import time
from collections import Counter, defaultdict

LAYERS = ("scene", "field", "specfun", "quad", "estimate", "noise", "cli")

# function -> counter name; counted per call, no span
COUNT_ONLY = {
    "specfun.bessel_j0": "specfun.bessel_scalar.calls",
    "specfun.bessel_j1": "specfun.bessel_scalar.calls",
    "specfun.bessel_j2": "specfun.bessel_scalar.calls",
}

# b3 materialises five (nodes x dipoles) float64 arrays: dx1, dx2, r2, the
# numerator and the quotient.  Bytes computed from those sizes, not measured.
_B3_PAIR_ARRAYS = 5


def _b3_work(counts: Counter, bound: inspect.BoundArguments, result) -> None:
    pts = bound.arguments["x"]
    n_nodes = getattr(pts, "size", 2) // 2
    pairs = n_nodes * len(bound.arguments["scene"].dipoles)
    counts["field.b3.pairs"] += pairs
    counts["field.b3.bytes_computed"] += 8 * _B3_PAIR_ARRAYS * pairs


def _integrate_work(counts: Counter, bound: inspect.BoundArguments, result) -> None:
    counts["quad.integrate_weighted.nodes"] += len(bound.arguments["field_map"].grid.nodes)


def _write_csv_work(counts: Counter, bound: inspect.BoundArguments, result) -> None:
    counts["quad.write_field_csv.bytes"] += os.path.getsize(bound.arguments["path"])


WORK_COUNTERS = {
    "field.b3": _b3_work,
    "quad.integrate_weighted": _integrate_work,
    "quad.write_field_csv": _write_csv_work,
}


class Tracer:
    """Span and count recorder for one benchmark pass."""

    def __init__(self, pass_id: int):
        self.pass_id = pass_id
        self.spans: list = []          # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self._stack: list = []         # indices of the open spans
        self._patched: list = []       # (module, attribute, original)

    def _span(self, name: str, fn, args, kwargs):
        stack = self._stack
        idx = len(self.spans)
        span = [name, 0.0, 0.0, stack[-1] if stack else -1]
        self.spans.append(span)
        stack.append(idx)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            stack.pop()

    def _wrap(self, name: str, fn):
        counts = self.counts
        if name in COUNT_ONLY:
            counter = COUNT_ONLY[name]

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[counter] += 1
                return fn(*args, **kwargs)
            return counted

        work = WORK_COUNTERS.get(name)
        signature = inspect.signature(fn) if work is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts[name + ".calls"] += 1
            result = self._span(name, fn, args, kwargs)
            if work is not None:
                work(counts, signature.bind(*args, **kwargs), result)
            if name == "estimate.estimator_weight":
                return self._wrap("estimate.weight_eval", result)
            return result
        return traced

    def install(self, package) -> None:
        """Wrap the public functions of every layer module of `package`."""
        modules = [package] + [getattr(package, layer) for layer in LAYERS]
        wrappers = {}
        for layer, module in zip(LAYERS, modules[1:]):
            for attr in module.__all__:
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrappers[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def self_times(self) -> dict:
        """Summed self time per span name, in seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict = defaultdict(float)
        for (name, start, end, _), inner in zip(self.spans, child_time):
            totals[name] += end - start - inner
        return dict(totals)

    def metrics(self) -> dict:
        """Flat `<module>.<function>.<stat>` metrics plus `<module>.s` totals."""
        out = {key: float(value) for key, value in self.counts.items()}
        per_layer: dict = defaultdict(float)
        for name, seconds in self.self_times().items():
            out[name + ".s"] = seconds
            per_layer[name.split(".", 1)[0] + ".s"] += seconds
        out.update(per_layer)
        out["trace.self_sum_s"] = sum(per_layer.values())
        return out

    def span_records(self) -> list:
        return [[name, start, end, parent, self.pass_id]
                for name, start, end, parent in self.spans]
