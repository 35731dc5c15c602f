"""Spans and counts recorded around calls into the cyclegas layers.

Tracing works from outside the program: `install` replaces every public
function and public method of each layer module with a wrapper that records
one span per call, and rebinds every cyclegas namespace that holds a
reference to the original (``partition.bose_integral``, ``cli.polylog``,
``cyclegas.mean_energy`` and so on).  ``sampler.stream`` additionally hands
out a forwarding proxy that times ``poisson`` and ``random`` on the
Generator without touching the random stream.

Spans live in flat arrays in memory: name, start, end, parent span and op id.
A span's self time is its duration minus the time its children cover; calls
are strictly nested on one thread, so the children of a span never overlap.
"""

from __future__ import annotations

import functools
import importlib
import math
import time
import types
from array import array
from collections import Counter

LAYERS = ("core", "cycle_weights", "partition", "observables", "oracle", "sampler")


class Tracer:
    """In-memory span store plus named counters for one process."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.counts = Counter()
        self.active = False
        self.op_id = -1
        self._stack = [-1]

    def name_index(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name_id: int) -> int:
        index = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self.end.append(math.nan)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    def run_op(self, execute, op):
        """Call execute(op) as one traced op under a root span named bench.op."""
        self.op_id += 1
        self.active = True
        index = self.open(self.name_index("bench.op"))
        try:
            return execute(op)
        finally:
            self.close(index)
            self.active = False

    def merge(self, names, start, end, parent, counts, op_id):
        """Append spans recorded by another process as the spans of one op."""
        offset = len(self.start)
        for name, t0, t1, up in zip(names, start, end, parent):
            self.name_id.append(self.name_index(name))
            self.start.append(t0)
            self.end.append(t1)
            self.parent.append(up + offset if up >= 0 else -1)
            self.op.append(op_id)
        self.counts.update(counts)

    def dump(self) -> dict:
        return {
            "names": [self.names[i] for i in self.name_id],
            "start": list(self.start),
            "end": list(self.end),
            "parent": list(self.parent),
            "op": list(self.op),
            "counts": dict(self.counts),
        }


def self_times(start, end, parent):
    """Self time of every span: its duration minus its children's durations."""
    import numpy as np

    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    parent = np.asarray(parent, dtype=np.int64)
    duration = end - start
    has_parent = parent >= 0
    covered = np.bincount(
        parent[has_parent], weights=duration[has_parent], minlength=duration.size
    )
    return duration - covered


def _nonfinite(value) -> bool:
    if isinstance(value, float):
        return not math.isfinite(value)
    dtype = getattr(value, "dtype", None)
    if dtype is not None and dtype.kind == "f":
        import numpy as np

        return not bool(np.all(np.isfinite(value)))
    return False


def _wrap(tracer: Tracer, name: str, fn, count=None):
    """Wrapper that records one span per call; count(args, kwargs) adds counts."""
    layer = name.split(".", 1)[0]
    name_id = tracer.name_index(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        if count is not None:
            count(args, kwargs)
        index = tracer.open(name_id)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.close(index)
            tracer.counts[layer + ".errors"] += 1
            raise
        tracer.close(index)
        if _nonfinite(result):
            tracer.counts[layer + ".errors"] += 1
        return result

    return traced


class GeneratorProxy:
    """Forwards every attribute to a numpy Generator; times poisson and random."""

    __slots__ = ("_generator", "_tracer", "_poisson_id", "_uniform_id")

    def __init__(self, generator, tracer: Tracer):
        self._generator = generator
        self._tracer = tracer
        self._poisson_id = tracer.name_index("sampler.poisson")
        self._uniform_id = tracer.name_index("sampler.uniform")

    def poisson(self, *args, **kwargs):
        index = self._tracer.open(self._poisson_id)
        result = self._generator.poisson(*args, **kwargs)
        self._tracer.close(index)
        # a scalar lam gives a Python int, an array of lam gives an ndarray
        drawn = result.sum() if hasattr(result, "sum") else result
        self._tracer.counts["sampler.cycles_drawn"] += int(drawn)
        return result

    def random(self, *args, **kwargs):
        index = self._tracer.open(self._uniform_id)
        result = self._generator.random(*args, **kwargs)
        self._tracer.close(index)
        self._tracer.counts["sampler.uniforms"] += int(getattr(result, "size", 1))
        return result

    def __getattr__(self, attr):
        return getattr(self._generator, attr)


def _count_recursion_terms(tracer):
    def count(args, kwargs):
        n = int(args[1] if len(args) > 1 else kwargs["N"])
        tracer.counts["partition.recursion_terms"] += n * (n + 1) // 2

    return count


def _count_replicas(tracer):
    def count(args, kwargs):
        config = args[0] if args else kwargs["config"]
        tracer.counts["sampler.replicas"] += config.replicas

    return count


def install(tracer: Tracer) -> None:
    """Wrap the public callables of every layer and rebind all references to them."""
    import cyclegas
    import cyclegas.cli

    modules = {layer: importlib.import_module(f"cyclegas.{layer}") for layer in LAYERS}
    wrapped = {}
    for layer, module in modules.items():
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                continue
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            name = f"{layer}.{attr}"
            if name == "sampler.stream":
                wrapper = _wrap_stream(tracer, obj)
            elif name == "partition.canonical_partition_table":
                wrapper = _wrap(tracer, name, obj, _count_recursion_terms(tracer))
            elif name == "sampler.estimate_observables":
                wrapper = _wrap(tracer, name, obj, _count_replicas(tracer))
            else:
                wrapper = _wrap(tracer, name, obj)
            wrapped[id(obj)] = (obj, wrapper)
        for cls in vars(module).values():
            if isinstance(cls, type) and cls.__module__ == module.__name__:
                _wrap_methods(tracer, layer, cls)
    for namespace in (cyclegas, cyclegas.cli, *modules.values()):
        for attr, obj in list(vars(namespace).items()):
            original, wrapper = wrapped.get(id(obj), (None, None))
            if original is obj:
                setattr(namespace, attr, wrapper)


def _wrap_methods(tracer: Tracer, layer: str, cls: type) -> None:
    for attr, raw in list(vars(cls).items()):
        if attr.startswith("_"):
            continue
        name = f"{layer}.{attr}"
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(_wrap(tracer, name, raw.__func__)))
        elif isinstance(raw, staticmethod):
            setattr(cls, attr, staticmethod(_wrap(tracer, name, raw.__func__)))
        elif isinstance(raw, types.FunctionType):
            setattr(cls, attr, _wrap(tracer, name, raw))


def _wrap_stream(tracer: Tracer, stream):
    traced = _wrap(tracer, "sampler.stream", stream)

    @functools.wraps(stream)
    def proxied(*args, **kwargs):
        if not tracer.active:
            return stream(*args, **kwargs)
        return GeneratorProxy(traced(*args, **kwargs), tracer)

    return proxied


def layer_metrics(tracer: Tracer, n_ops: int, cli_stages: dict) -> dict:
    """Per-op means of the per-layer metrics named in BENCHMARK.json.

    cli_stages maps process_start_s, import_s and main_s to one value per
    traced CLI process; it is empty for the warm workloads.
    """
    import numpy as np

    name_ids = np.asarray(tracer.name_id)
    own = self_times(tracer.start, tracer.end, tracer.parent)
    calls = np.bincount(name_ids, minlength=len(tracer.names))
    self_s = np.bincount(name_ids, weights=own, minlength=len(tracer.names))
    by_name = {name: (int(calls[i]), float(self_s[i])) for i, name in enumerate(tracer.names)}

    def span(name):
        count, seconds = by_name.get(name, (0, 0.0))
        return count / n_ops, seconds / n_ops

    def layer(prefix):
        rows = [v for name, v in by_name.items() if name.startswith(prefix + ".")]
        return sum(c for c, _ in rows) / n_ops, sum(s for _, s in rows) / n_ops

    def ratio(num, den):
        return num / den if den else 0.0

    counts = tracer.counts
    stream_calls = by_name.get("sampler.stream", (0, 0.0))[0]
    metrics = {
        f"cli.{stage}": float(np.mean(cli_stages[stage])) if cli_stages else 0.0
        for stage in ("process_start_s", "import_s", "main_s")
    }
    metrics.update({
        "core.bose_quadrature.calls_per_op": span("core.bose_quadrature")[0],
        "core.bose_quadrature.self_s": span("core.bose_quadrature")[1],
        "core.riemann_zeta.self_s": span("core.riemann_zeta")[1],
        "core.polylog.calls": span("core.polylog")[0],
        "core.polylog.self_s": span("core.polylog")[1],
        "partition.canonical_partition_table.self_s": span("partition.canonical_partition_table")[1],
        "partition.grand_partition_from_canonical.self_s": span("partition.grand_partition_from_canonical")[1],
        "partition.recursion_terms": counts["partition.recursion_terms"] / n_ops,
        "partition.errors": counts["partition.errors"] / n_ops,
        "oracle.cycle_sums.self_s": span("oracle.cycle_sums")[1],
        "sampler.stream.calls": span("sampler.stream")[0],
        "sampler.stream.self_s": span("sampler.stream")[1],
        "sampler.streams_per_replica": ratio(stream_calls, counts["sampler.replicas"]),
        "sampler.poisson_s": span("sampler.poisson")[1],
        "sampler.uniform_s": span("sampler.uniform")[1],
        "sampler.cycles_drawn": counts["sampler.cycles_drawn"] / n_ops,
        "sampler.uniforms_per_cycle": ratio(counts["sampler.uniforms"], counts["sampler.cycles_drawn"]),
    })
    for name in LAYERS:
        metrics[f"{name}.calls"], metrics[f"{name}.self_s"] = layer(name)
    return metrics
