"""Layer tracer: wraps each layer's public functions from outside the program.

A wrapped call records one span.  Spans nest on a stack, so a layer's
*self* time is its spans' durations minus the part covered by the spans
they caused.  Every span is attributed to the *operation class* of the
outermost structure call in progress (``read``, ``count``, ``write``,
``point`` or ``other``), which is how a kernel call is charged to the read
or the write that made it.

The tracer patches attributes on the program's modules and classes and
restores them on :meth:`Tracer.uninstall`; nothing in the program knows
it is traced.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

#: Operation class of a structure method (sampler and shard layers).
OP_CLASS = {
    "sample": "read",
    "sample_bulk": "read",
    "sample_bulk_many": "read",
    "count": "count",
    "peek_counts": "count",
    "range_weight": "count",
    "peek_weights": "count",
    "insert_bulk": "write",
    "delete_bulk": "write",
    "_insert_bulk_plain": "write",
    "_insert_bulk_weighted": "write",
    "insert": "point",
    "delete": "point",
    "update_weight": "point",
    "_insert_plain": "point",
    "_insert_weighted": "point",
}

#: Directory calls that repair chunk bounds after an update.
REPAIRS = ("split_chunk", "bulk_split", "repair_underfull", "remove_chunk", "normalize")
#: Directory calls that maintain the count / weight prefix caches.
PREFIX = ("ensure_prefix", "folded_prefix", "ensure_wprefix", "folded_wprefix")


def _public_functions(cls) -> list[str]:
    return [
        name
        for name, value in vars(cls).items()
        if not name.startswith("_") and inspect.isfunction(value)
    ]


class Tracer:
    """Span stack plus per-(layer, class) self time and per-function counts."""

    def __init__(self) -> None:
        self.stack: list[list[float]] = []
        self.cls: str | None = None
        self.self_s: defaultdict = defaultdict(float)  # (layer, cls) -> s
        self.fn_s: defaultdict = defaultdict(float)  # (layer.fn, cls) -> s
        self.fn_calls: Counter = Counter()  # (layer.fn, cls) -> calls
        self.roots: Counter = Counter()  # cls -> outermost structure calls
        self._undo: list[tuple[object, str, object]] = []

    # -- accounting ---------------------------------------------------------

    def layer_self(self, layer: str, cls=...) -> float:
        """Self seconds of ``layer`` (in one class, or all classes)."""
        return sum(
            s for (name, c), s in self.self_s.items()
            if name == layer and (cls is ... or c == cls)
        )

    def fn_total(self, layer: str, names, cls=...) -> tuple[float, int]:
        """Inclusive seconds and calls of ``layer`` functions in ``names``."""
        keys = {f"{layer}.{name}" for name in names}
        secs = sum(
            s for (key, c), s in self.fn_s.items()
            if key in keys and (cls is ... or c == cls)
        )
        calls = sum(
            n for (key, c), n in self.fn_calls.items()
            if key in keys and (cls is ... or c == cls)
        )
        return secs, calls

    def layer_calls(self, layer: str, cls=...) -> int:
        prefix = layer + "."
        return sum(
            n for (key, c), n in self.fn_calls.items()
            if key.startswith(prefix) and (cls is ... or c == cls)
        )

    # -- wrapping -----------------------------------------------------------

    def wrap(self, owner, name: str, layer: str, op_class: str | None = None) -> None:
        """Replace ``owner.name`` by a span-recording wrapper."""
        original = getattr(owner, name)
        # Class attributes are restored from the class dict so a method
        # inherited from a base class is simply removed again.
        saved = vars(owner).get(name) if isinstance(owner, type) else original
        key = f"{layer}.{name}"
        tracer = self
        perf = time.perf_counter
        stack = self.stack

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            opened = op_class is not None and tracer.cls is None
            if opened:
                tracer.cls = op_class
            frame = [0.0]
            stack.append(frame)
            t0 = perf()
            try:
                return original(*args, **kwargs)
            finally:
                dur = perf() - t0
                stack.pop()
                cls = tracer.cls
                tracer.self_s[layer, cls] += dur - frame[0]
                tracer.fn_s[key, cls] += dur
                tracer.fn_calls[key, cls] += 1
                if stack:
                    stack[-1][0] += dur
                if opened:
                    tracer.cls = None
                    tracer.roots[op_class] += 1

        setattr(owner, name, wrapper)
        self._undo.append((owner, name, saved))

    def wrap_everywhere(self, function, layer: str) -> None:
        """Wrap a module-level function in every module that imported it."""
        for module in list(sys.modules.values()):
            for attr, value in list(getattr(module, "__dict__", {}).items()):
                if value is function:
                    self.wrap(module, attr, layer)

    def uninstall(self) -> None:
        """Restore every wrapped attribute (innermost wrap last in, first out)."""
        while self._undo:
            owner, name, saved = self._undo.pop()
            if saved is None:
                delattr(owner, name)
            else:
                setattr(owner, name, saved)


def install(tracer: Tracer, *, instances=()) -> Tracer:
    """Wrap the public functions of every layer the program has.

    ``instances`` are structures whose update methods are bound per
    instance (the shard facade binds ``insert``/``insert_bulk`` at build
    time), so those are wrapped on the instance itself.
    """
    from repro import rng
    from repro.batch.runner import BatchQueryRunner
    from repro.core import kernels
    from repro.core.directory import ChunkDirectory
    from repro.core.dynamic_irs import DynamicIRS
    from repro.core.weighted_dynamic import WeightedDynamicIRS
    from repro.serve import protocol
    from repro.serve.server import ReproServer
    from repro.shard.sharded import ShardedIRS
    from repro.store.durable import DurableStore

    backend = kernels.get()
    for name, value in list(vars(backend).items()):
        if (
            not name.startswith("_")
            and inspect.isfunction(value)
            and value.__module__ == backend.__name__
        ):
            tracer.wrap(backend, name, "kernels")
    for name in _public_functions(ChunkDirectory):
        tracer.wrap(ChunkDirectory, name, "directory")
    for cls in (DynamicIRS, WeightedDynamicIRS):
        for name in _public_functions(cls):
            tracer.wrap(cls, name, "sampler", OP_CLASS.get(name, "other"))
    for name in _public_functions(ShardedIRS) + [
        "_insert_plain", "_insert_weighted", "_insert_bulk_plain",
        "_insert_bulk_weighted",
    ]:
        if name in ("insert", "insert_bulk"):
            continue  # rebound per instance (below)
        tracer.wrap(ShardedIRS, name, "shard", OP_CLASS.get(name, "other"))
    for inst in instances:
        if isinstance(inst, ShardedIRS):
            for name in ("insert", "insert_bulk"):
                tracer.wrap(inst, name, "shard", OP_CLASS[name])
    tracer.wrap_everywhere(rng.generator, "rng")
    tracer.wrap(BatchQueryRunner, "run_mixed", "batch")
    tracer.wrap(ReproServer, "submit", "serve")
    tracer.wrap(ReproServer, "_execute", "serve")
    tracer.wrap(protocol, "decode", "protocol")
    tracer.wrap(protocol, "encode", "protocol")
    tracer.wrap(DurableStore, "log_batch", "store")
    tracer.wrap(DurableStore, "snapshot", "store")
    return tracer


def structure_metrics(tracer: Tracer, out: dict, *, reads_key="read") -> None:
    """Per-read / per-write metrics of the kernel, directory, sampler, rng
    and shard layers, written into ``out`` as ``name -> (value, unit)``."""
    reads = tracer.roots[reads_key]
    writes = tracer.roots["write"]
    points = tracer.roots["point"]

    def per(x, n):
        return x / n if n else 0.0

    k_read = tracer.layer_calls("kernels", "read")
    k_write = tracer.layer_calls("kernels", "write")
    out["kernels.calls_per_read"] = (per(k_read, reads), "count")
    out["kernels.self_us_per_read"] = (
        per(1e6 * tracer.layer_self("kernels", "read"), reads), "us")
    out["kernels.calls_per_write"] = (per(k_write, writes), "count")
    out["kernels.self_us_per_write"] = (
        per(1e6 * tracer.layer_self("kernels", "write"), writes), "us")
    out["directory.self_us_per_write"] = (
        per(1e6 * tracer.layer_self("directory", "write"), writes), "us")
    _s, repairs = tracer.fn_total("directory", REPAIRS, "write")
    out["directory.repairs_per_write"] = (per(repairs, writes), "count")
    _s, rebuilds = tracer.fn_total("directory", ("rebuild",))
    out["directory.rebuilds"] = (float(rebuilds), "count")
    prefix_s, _n = tracer.fn_total("directory", PREFIX, "read")
    out["directory.prefix_us_per_read"] = (per(1e6 * prefix_s, reads), "us")
    out["sampler.self_us_per_read"] = (
        per(1e6 * tracer.layer_self("sampler", "read"), reads), "us")
    out["sampler.self_us_per_write"] = (
        per(1e6 * tracer.layer_self("sampler", "write"), writes), "us")
    out["sampler.point_us"] = (
        per(1e6 * tracer.layer_self("sampler", "point"), points), "us")
    # The generator is wrapped under each importing module's own name, so
    # sum the layer (it makes no nested calls: self time = total time).
    out["rng.us_per_read"] = (per(1e6 * tracer.layer_self("rng", "read"), reads), "us")
    out["shard.self_us_per_read"] = (
        per(1e6 * tracer.layer_self("shard", "read"), reads), "us")
    out["shard.self_us_per_write"] = (
        per(1e6 * tracer.layer_self("shard", "write"), writes), "us")


def sampler_counters(samplers) -> tuple[int, int]:
    """Summed public ``(samples_returned, rejections)`` of the samplers."""
    return (
        sum(s.stats.samples_returned for s in samplers),
        sum(s.stats.rejections for s in samplers),
    )


def sampler_state_metrics(samplers, before: tuple[int, int], out: dict) -> None:
    """Acceptance ratio since ``before`` (a :func:`sampler_counters` reading)
    and plane bytes per value, from the samplers' public state."""
    returned, rejected = sampler_counters(samplers)
    returned -= before[0]
    draws = returned + rejected - before[1]
    out["sampler.accept_ratio"] = (returned / draws if draws else 0.0, "ratio")
    values = sum(len(s) for s in samplers)
    nbytes = sum(s.plane_nbytes for s in samplers)
    out["sampler.plane_bytes_per_value"] = (
        nbytes / values if values else 0.0, "B/value")
