"""Spans around calls into skewtwist's modules, recorded from outside.

``Tracer.install()`` wraps every public function and method of the nine
layer modules and rebinds each module's name for it (modules import with
``from .x import y``, so every binding must be replaced, not only the
defining one).  A generator function's span covers each ``next()``.  The
per-element accessors are left alone because they run millions of times.
Spans stay in memory as columns ``(name, start, end, parent, query)``, in
typed arrays because a traced run makes about a million of them, and are
reduced to per-layer metrics, or written out, at the end.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
from array import array
from time import perf_counter

LAYERS = ("tables", "groups", "solutions", "braces", "classification",
          "matched", "serialize", "generators", "cli")

# Accessors called per table entry, and PairMap/TripleMap.__post_init__,
# which is traced so that tables.entries_built can be counted.
SKIP = {"op", "op3", "__call__"}
HOOKED_DUNDERS = {"__post_init__"}


class Tracer:
    def __init__(self):
        self.names = []            # name id -> "layer.function"
        self.name = array("l")     # per span: name id, start, end, parent, query
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.query_of = array("l")
        self.stack = []
        self.query = -1
        self.active = False        # spans are recorded only inside queries
        self.calls = {}            # "layer.function" -> calls
        self.counters = {"tables.entries_built": 0, "groups.isomorphisms_yielded": 0,
                         "serialize.bytes_in": 0, "serialize.bytes_out": 0}
        self._restore = []

    # ------------------------------------------------------------ spans
    def _open(self, name_id):
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.query_of.append(self.query)
        self.end.append(0.0)
        self.start.append(perf_counter())
        self.stack.append(idx)
        return idx

    def _close(self, idx):
        self.end[idx] = perf_counter()
        self.stack.pop()

    def _count(self, name):
        self.calls[name] = self.calls.get(name, 0) + 1

    def _wrap_function(self, fn, name):
        tracer = self
        name_id = len(self.names)
        self.names.append(name)
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                if not tracer.active:
                    return inner
                tracer._count(name)
                return tracer._traced_iter(inner, name, name_id)
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer._count(name)
            idx = tracer._open(name_id)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            tracer._observe(name, args, out)
            return out
        return wrapper

    def _traced_iter(self, inner, name, name_id):
        """Re-yield a generator's items with one span per next()."""
        while True:
            idx = self._open(name_id)
            try:
                item = next(inner)
            except StopIteration:
                return
            finally:
                self._close(idx)
            if name == "groups.enumerate_isomorphisms":
                self.counters["groups.isomorphisms_yielded"] += 1
            yield item

    def _observe(self, name, args, out):
        if name == "tables.__post_init__":
            self.counters["tables.entries_built"] += len(args[0].table)
        elif name == "serialize.parse_document":
            self.counters["serialize.bytes_in"] += len(args[0].encode())
        elif name == "serialize.canonical_dumps":
            self.counters["serialize.bytes_out"] += len(out.encode())

    # ---------------------------------------------------- install/remove
    def install(self):
        originals = {}   # id(original function) -> wrapper
        for layer in LAYERS:
            module = importlib.import_module("skewtwist." + layer)
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(value):
                    originals[id(value)] = (value, self._wrap_function(value, f"{layer}.{attr}"))
                elif inspect.isclass(value):
                    self._wrap_class(value, layer)
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "skewtwist" or name.startswith("skewtwist.")):
                continue
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._restore.append((module, attr, value))

    def _wrap_class(self, cls, layer):
        for attr, raw in list(vars(cls).items()):
            if attr in SKIP or (attr.startswith("_") and attr not in HOOKED_DUNDERS):
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap_function(raw.__func__, f"{layer}.{attr}"))
            elif inspect.isfunction(raw):
                wrapped = self._wrap_function(raw, f"{layer}.{attr}")
            else:
                continue
            setattr(cls, attr, wrapped)
            self._restore.append((cls, attr, raw))

    def remove(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # ------------------------------------------------------- reductions
    def layer_metrics(self):
        """Per layer: calls, total_s (time inside the layer's outermost spans)
        and self_s (span time not covered by child spans); per function:
        self_s.  Spans are properly nested, so child time is additive."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i, parent in enumerate(self.parent):
            if parent >= 0:
                child[parent] += dur[i]
        name_layer = [name.split(".", 1)[0] for name in self.names]
        layer_of = [name_layer[nid] for nid in self.name]
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = 0
            out[f"{layer}.total_s"] = 0.0
            out[f"{layer}.self_s"] = 0.0
        for name, count in self.calls.items():
            out[f"{name.split('.', 1)[0]}.calls"] += count
        func_self = {}
        for i in range(n):
            layer = layer_of[i]
            own = dur[i] - child[i]
            out[f"{layer}.self_s"] += own
            name = self.names[self.name[i]]
            func_self[name] = func_self.get(name, 0.0) + own
            # Outermost span of its layer: no ancestor in the same layer.
            j = self.parent[i]
            while j >= 0 and layer_of[j] != layer:
                j = self.parent[j]
            if j < 0:
                out[f"{layer}.total_s"] += dur[i]
        return out, func_self

    def write(self, path):
        """Spans as gzipped JSON lines: [name, start, end, parent, query]."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for span in zip(self.name, self.start, self.end, self.parent, self.query_of):
                fh.write(json.dumps([self.names[span[0]], *span[1:]]) + "\n")
