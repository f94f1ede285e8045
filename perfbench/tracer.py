"""Outside-in span tracer: times the program's layers by wrapping the public
functions and methods that callers resolve, without changing ``src/``.

A span records its name, start, end and parent span.  Spans are kept in
memory (columnar arrays) and written out once, at the end of the run.  A
layer's self time is its span's duration minus the time covered by its
child spans.  Generator layers (``DataLoader``, ``ActivationStore.batches``)
are timed per ``next()``, so consumer work between batches is not charged
to them.
"""

from __future__ import annotations

import gzip
import importlib
import json
import os
import time
from array import array

# Layers: (span name, module, attribute path, kind, counter).
#   kind: "call" wraps a function or method, "gen" a generator method (one
#   span per next()), "classmethod" a classmethod.  The counter names a
#   function below that adds work counts (bytes, flop) to the span.
LAYERS = [
    ("api.spec", "repro.api.spec", "JobSpec.from_json_file", "classmethod", None),
    ("api.spec", "repro.sweep.spec", "SweepSpec.from_json_file", "classmethod", None),
    ("data.materialize", "repro.data.datasets", "DatasetSpec.materialize", "call", None),
    ("data.loader", "repro.data.loader", "DataLoader.__iter__", "gen", None),
    ("models.build", "repro.models.zoo", "build_model", "call", None),
    ("core.plan", "repro.core.controller", "NeuroFlux.plan", "call", None),
    ("core.worker.train_batch", "repro.core.worker", "BlockWorker.train_batch", "call", None),
    ("core.worker.forward_pass", "repro.core.worker", "BlockWorker.forward_pass", "call", None),
    ("core.evaluate", "repro.core.controller", "evaluate_classifier", "call", None),
    ("core.cache.write", "repro.core.cache", "ActivationStore.write", "call", "returned_bytes"),
    ("core.cache.read", "repro.core.cache", "ActivationStore.batches", "gen", "store_read_bytes"),
    ("nn.conv.forward", "repro.nn.conv", "Conv2d.forward", "call", None),
    ("nn.conv.backward", "repro.nn.conv", "Conv2d.backward", "call", None),
    ("nn.bn.forward", "repro.nn.normalization", "BatchNorm2d.forward", "call", None),
    ("nn.bn.backward", "repro.nn.normalization", "BatchNorm2d.backward", "call", None),
    ("nn.maxpool.forward", "repro.nn.pooling", "MaxPool2d.forward", "call", None),
    ("nn.maxpool.backward", "repro.nn.pooling", "MaxPool2d.backward", "call", None),
    ("nn.avgpool.forward", "repro.nn.pooling", "AvgPool2d.forward", "call", None),
    ("nn.avgpool.backward", "repro.nn.pooling", "AvgPool2d.backward", "call", None),
    ("nn.avgpool.forward", "repro.nn.pooling", "AdaptiveAvgPool2d.forward", "call", None),
    ("nn.avgpool.backward", "repro.nn.pooling", "AdaptiveAvgPool2d.backward", "call", None),
    ("nn.linear.forward", "repro.nn.linear", "Linear.forward", "call", None),
    ("nn.linear.backward", "repro.nn.linear", "Linear.backward", "call", None),
    ("nn.relu.forward", "repro.nn.activations", "ReLU.forward", "call", None),
    ("nn.relu.backward", "repro.nn.activations", "ReLU.backward", "call", None),
    ("nn.optim.step", "repro.nn.optim", "SGD.step", "call", None),
    ("nn.optim.step", "repro.nn.optim", "Adam.step", "call", None),
    ("nn.im2col", "repro.nn.conv", "im2col", "call", "im2col_bytes"),
    ("nn.col2im", "repro.nn.conv", "col2im", "call", None),
    ("backend.matmul", "repro.nn.conv", "backend_matmul", "call", "matmul_flop"),
    ("backend.matmul", "repro.nn.linear", "backend_matmul", "call", "matmul_flop"),
    ("hw.sim.step", "repro.hw.simulator", "ExecutionSimulator.add_training_step", "call", None),
    ("hw.sim.cache_read", "repro.hw.simulator", "ExecutionSimulator.add_cache_read", "call", None),
    ("evalsim.simulate", "repro.evalsim.training_time", "simulate_bp", "call", None),
    ("evalsim.simulate", "repro.evalsim.training_time", "simulate_classic_ll", "call", None),
    ("evalsim.simulate", "repro.evalsim.training_time", "simulate_neuroflux", "call", None),
    ("serving.route_cache", "repro.fleet.simulator", "build_route_cache", "call", None),
    ("parallel.plan_shards", "repro.fleet.simulator", "plan_cascade_shards", "call", None),
    ("fleet.run", "repro.fleet.simulator", "FleetSimulator.run", "call", "fleet_requests"),
    ("sweep.expand", "repro.sweep.spec", "SweepSpec.expand", "call", None),
    ("sweep.store.append", "repro.sweep.store", "ResultsStore.append", "call", "journal_bytes"),
]

# Per-layer metrics derived from span aggregates: metric -> (span, field).
# "s" is self time; "calls" counts spans (batches, for a generator layer).
SPAN_METRICS = {
    "api.import_s": ("api.import", "s"),
    "api.spec_s": ("api.spec", "s"),
    "api.prepare_s": ("api.prepare", "s"),
    "data.materialize_s": ("data.materialize", "s"),
    "data.loader.batches": ("data.loader", "calls"),
    "data.loader_s": ("data.loader", "s"),
    "models.build_s": ("models.build", "s"),
    "core.plan_s": ("core.plan", "s"),
    "core.worker.train_batch.calls": ("core.worker.train_batch", "calls"),
    "core.worker.train_batch.s": ("core.worker.train_batch", "s"),
    "core.worker.forward_pass_s": ("core.worker.forward_pass", "s"),
    "core.evaluate.calls": ("core.evaluate", "calls"),
    "core.evaluate.s": ("core.evaluate", "s"),
    "core.cache.write.calls": ("core.cache.write", "calls"),
    "core.cache.write.bytes": ("core.cache.write", "bytes"),
    "core.cache.write.s": ("core.cache.write", "s"),
    "core.cache.read.batches": ("core.cache.read", "calls"),
    "core.cache.read.bytes": ("core.cache.read", "bytes"),
    "core.cache.read.s": ("core.cache.read", "s"),
    **{
        f"nn.{layer}.{phase}.{field}": (f"nn.{layer}.{phase}", field)
        for layer in ("conv", "bn", "maxpool", "avgpool", "linear", "relu")
        for phase in ("forward", "backward")
        for field in ("calls", "s")
    },
    "nn.optim.step.calls": ("nn.optim.step", "calls"),
    "nn.optim.step.s": ("nn.optim.step", "s"),
    "nn.im2col.calls": ("nn.im2col", "calls"),
    "nn.im2col.s": ("nn.im2col", "s"),
    "nn.im2col.bytes": ("nn.im2col", "bytes"),
    "nn.col2im.calls": ("nn.col2im", "calls"),
    "nn.col2im.s": ("nn.col2im", "s"),
    "backend.matmul.calls": ("backend.matmul", "calls"),
    "backend.matmul.s": ("backend.matmul", "s"),
    "backend.matmul.flop": ("backend.matmul", "flop"),
    "hw.sim.step.calls": ("hw.sim.step", "calls"),
    "hw.sim.step.s": ("hw.sim.step", "s"),
    "hw.sim.cache_read.calls": ("hw.sim.cache_read", "calls"),
    "evalsim.simulate.calls": ("evalsim.simulate", "calls"),
    "evalsim.simulate.s": ("evalsim.simulate", "s"),
    "serving.route_cache_s": ("serving.route_cache", "s"),
    "parallel.plan_shards_s": ("parallel.plan_shards", "s"),
    "fleet.run_s": ("fleet.run", "s"),
    "fleet.requests": ("fleet.run", "requests"),
    "sweep.expand_s": ("sweep.expand", "s"),
    "sweep.store.append.calls": ("sweep.store.append", "calls"),
    "sweep.store.append.bytes": ("sweep.store.append", "bytes"),
    "sweep.store.append.s": ("sweep.store.append", "s"),
    "sweep.query_s": ("sweep.query", "s"),
    "perf.workspace.hit_ratio": ("perf.workspace", "hit_ratio"),
    "perf.workspace.bytes_allocated": ("perf.workspace", "bytes_allocated"),
}


# -- work counters: (args, result, state before the call) -> {field: n} ------
def _returned_bytes(args, result, before):
    return {"bytes": int(result)}


def _store_read_bytes(args, result, before):
    return {"bytes": args[0].bytes_read - before}


def _im2col_bytes(args, result, before):
    return {"bytes": int(result[0].nbytes)}


def _matmul_flop(args, result, before):
    a, b = args[0], args[1]
    return {"flop": 2 * a.shape[0] * a.shape[1] * b.shape[-1]}


def _fleet_requests(args, result, before):
    return {"requests": int(result.n_offered)}


def _journal_size(args):
    path = args[0].journal_path
    return os.path.getsize(path) if os.path.exists(path) else 0


def _journal_bytes(args, result, before):
    return {"bytes": _journal_size(args) - before}


COUNTERS = {
    "returned_bytes": (None, _returned_bytes),
    "store_read_bytes": (lambda args: args[0].bytes_read, _store_read_bytes),
    "im2col_bytes": (None, _im2col_bytes),
    "matmul_flop": (None, _matmul_flop),
    "fleet_requests": (None, _fleet_requests),
    "journal_bytes": (_journal_size, _journal_bytes),
}


class Tracer:
    """In-memory span recorder with per-name aggregates for the open section.

    ``enabled`` gates recording; wrappers stay installed for the whole
    process, so the untimed warm-up repetition pays one attribute check per
    call without recording spans.
    """

    def __init__(self, launch_id: str):
        self.launch_id = launch_id
        self.enabled = False
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_section = array("i")
        self.sections: list[str] = []
        self._stack: list[list] = []  # [span index, start, child seconds]
        self.agg: dict[str, dict[str, float]] = {}
        self.pools: list = []  # BufferPools created in the open section

    # -- sections: one aggregate table per traced repetition ------------------
    def begin(self, section: str) -> None:
        self.sections.append(section)
        self.agg = {}
        self.enabled = True

    def end(self) -> dict[str, dict[str, float]]:
        self.enabled = False
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} span(s) still open")
        hits = sum(p.hits for p in self.pools)
        acquires = hits + sum(p.misses for p in self.pools)
        self.agg["perf.workspace"] = {
            "hit_ratio": hits / acquires if acquires else 0.0,
            "bytes_allocated": sum(p.bytes_allocated for p in self.pools),
        }
        self.pools = []
        return self.agg

    # -- spans --------------------------------------------------------------
    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> None:
        index = len(self.span_name)
        self.span_name.append(self._name_id(name))
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_section.append(len(self.sections) - 1)
        start = time.perf_counter()
        self.span_start.append(start)
        self.span_end.append(start)
        self._stack.append([index, start, 0.0])

    def close(self, name: str, counts: dict | None = None) -> None:
        end = time.perf_counter()
        index, start, child = self._stack.pop()
        self.span_end[index] = end
        duration = end - start
        if self._stack:
            self._stack[-1][2] += duration
        entry = self.agg.get(name)
        if entry is None:
            entry = self.agg[name] = {"calls": 0, "s": 0.0}
        entry["calls"] += 1
        entry["s"] += duration - child
        if counts:
            for key, value in counts.items():
                entry[key] = entry.get(key, 0) + value

    def span(self, name: str):
        return _SpanContext(self, name)

    # -- output -------------------------------------------------------------
    def write(self, path: str) -> None:
        """Write every recorded span as gzipped JSON Lines (header first)."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(
                json.dumps(
                    {
                        "launch_id": self.launch_id,
                        "sections": self.sections,
                        "spans": len(self.span_name),
                        "fields": ["id", "name", "start", "end", "parent", "section"],
                    }
                )
                + "\n"
            )
            names = self.names
            for i in range(len(self.span_name)):
                fh.write(
                    f'[{i},"{names[self.span_name[i]]}",{self.span_start[i]:.9f},'
                    f"{self.span_end[i]:.9f},{self.span_parent[i]},"
                    f"{self.span_section[i]}]\n"
                )


class _SpanContext:
    __slots__ = ("tracer", "name")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        if self.tracer.enabled:
            self.tracer.open(self.name)

    def __exit__(self, *exc):
        if self.tracer.enabled:
            self.tracer.close(self.name)


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _wrap_call(tracer, name, fn, counter):
    before_fn, after_fn = COUNTERS[counter] if counter else (None, None)

    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        before = before_fn(args) if before_fn else None
        tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.close(name)
            raise
        tracer.close(name, after_fn(args, result, before) if after_fn else None)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _wrap_gen(tracer, name, fn, counter):
    before_fn, after_fn = COUNTERS[counter] if counter else (None, None)

    def wrapper(*args, **kwargs):
        inner = fn(*args, **kwargs)
        if not tracer.enabled:
            return inner
        return _timed_iter(tracer, name, inner, args, before_fn, after_fn)

    wrapper.__wrapped__ = fn
    return wrapper


def _timed_iter(tracer, name, inner, args, before_fn, after_fn):
    iterator = iter(inner)
    while True:
        before = before_fn(args) if before_fn else None
        tracer.open(name)
        try:
            item = next(iterator)
        except StopIteration:
            # The exhausting next() is bookkeeping, not a batch: drop it.
            tracer.close(name)
            tracer.agg[name]["calls"] -= 1
            return
        except BaseException:
            tracer.close(name)
            raise
        tracer.close(name, after_fn(args, item, before) if after_fn else None)
        yield item


def install(tracer: Tracer, backend_class) -> None:
    """Wrap every layer in :data:`LAYERS`, ``backend_class.prepare`` and
    ``BufferPool`` construction (for the workspace hit ratio)."""
    for name, module_name, path, kind, counter in LAYERS:
        owner, attr = _resolve(module_name, path)
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if kind == "classmethod":
            setattr(owner, attr, classmethod(_wrap_call(tracer, name, raw.__func__, counter)))
        elif kind == "gen":
            setattr(owner, attr, _wrap_gen(tracer, name, raw, counter))
        else:
            setattr(owner, attr, _wrap_call(tracer, name, raw, counter))
    owner = next(c for c in backend_class.__mro__ if "prepare" in c.__dict__)
    owner.prepare = _wrap_call(tracer, "api.prepare", owner.__dict__["prepare"], None)

    from repro.perf.workspace import BufferPool

    pool_init = BufferPool.__init__

    def register_pool(pool):
        pool_init(pool)
        if tracer.enabled:
            tracer.pools.append(pool)

    BufferPool.__init__ = register_pool


def layer_metrics(agg: dict[str, dict[str, float]]) -> dict[str, float]:
    """Per-layer metric values of one traced section (absent layers are 0)."""
    out = {}
    for metric, (span, field) in SPAN_METRICS.items():
        out[metric] = agg.get(span, {}).get(field, 0)
    return out
