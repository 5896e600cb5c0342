"""Span tracing around the library's module-level functions.

`Tracer.installed(pkg, layers)` wraps, for every layer module, each
module-level function that is public or that another module of the
package binds in its own namespace, and rebinds the wrapper under every
name that held the original.  The functions are found when the tracer is
installed, so a rename in the library renames a span instead of breaking
the benchmark.  Each call records (name, start, end, parent, work) in a
list owned by the calling thread; the parent is the span open on that
thread's own stack.  Spans stay in memory until `dump` writes them out.
"""

import contextlib
import importlib
import inspect
import json
import sys
import threading
import time
from collections import defaultdict

# Work counts taken from call arguments, keyed by function name.
WORK = {
    "simulate_terminal_batch": lambda a: a["n"] * a["grid"].n_steps,
    "simulate_exp_terminal": lambda a: a["n"],
}


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.threads = []  # (is_main_thread, spans) per thread that made a call

    def _spans_and_stack(self):
        try:
            return self._local.rec
        except AttributeError:
            rec = ([], [])
            self._local.rec = rec
            with self._lock:
                self.threads.append(
                    (threading.current_thread() is threading.main_thread(), rec[0])
                )
            return rec

    def _wrap(self, fn, name):
        work = WORK.get(fn.__name__)
        sig = inspect.signature(fn) if work else None
        perf_counter = time.perf_counter

        def traced(*args, **kwargs):
            spans, stack = self._spans_and_stack()
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            w = work(sig.bind(*args, **kwargs).arguments) if work else 0
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, w)

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    @contextlib.contextmanager
    def installed(self, pkg, layers):
        """Wrap the traced functions of pkg.<layer> for the duration of the block."""
        mods = {layer: importlib.import_module(f"{pkg.__name__}.{layer}") for layer in layers}
        prefix = pkg.__name__ + "."
        namespaces = [pkg] + [
            m for name, m in list(sys.modules.items()) if name.startswith(prefix) and m
        ]
        holders = defaultdict(list)  # id(function) -> [(namespace, name)]
        for ns in namespaces:
            for key, val in vars(ns).items():
                if inspect.isfunction(val):
                    holders[id(val)].append((ns, key))
        patched = []
        for layer, mod in mods.items():
            for key, fn in list(vars(mod).items()):
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                bound_elsewhere = any(ns is not mod for ns, _ in holders[id(fn)])
                if key.startswith("_") and not bound_elsewhere:
                    continue
                wrapper = self._wrap(fn, f"{layer}.{fn.__name__}")
                for ns, name in holders[id(fn)]:
                    setattr(ns, name, wrapper)
                    patched.append((ns, name, fn))
        try:
            yield
        finally:
            for ns, name, fn in patched:
                setattr(ns, name, fn)

    def summary(self, wall):
        """Per-span-name calls, total, self time and work over all threads;
        per-layer self time and time spent in each child layer over the main
        thread, whose root spans plus the harness remainder tile `wall`."""
        per_name = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0})
        layer_self = defaultdict(float)
        child_layer_s = defaultdict(float)  # (parent name, child layer) -> s, main thread
        roots = 0.0
        for is_main, spans in self.threads:
            child = [0.0] * len(spans)
            for name, t0, t1, parent, _ in spans:
                if parent >= 0:
                    child[parent] += t1 - t0
            for i, (name, t0, t1, parent, w) in enumerate(spans):
                dur = t1 - t0
                s = per_name[name]
                s["calls"] += 1
                s["total_s"] += dur
                s["self_s"] += dur - child[i]
                s["work"] += w
                if is_main:
                    layer_self[name.split(".", 1)[0]] += dur - child[i]
                    if parent < 0:
                        roots += dur
                    else:
                        child_layer_s[spans[parent][0], name.split(".", 1)[0]] += dur
        layer_self["harness"] = wall - roots
        return dict(per_name), dict(layer_self), dict(child_layer_s)

    def dump(self, path):
        """Write every span as one JSON line: name, start, end, parent, work, thread."""
        with open(path, "w") as fh:
            for tid, (is_main, spans) in enumerate(self.threads):
                for name, t0, t1, parent, w in spans:
                    fh.write(json.dumps([name, t0, t1, parent, w, tid, is_main]) + "\n")

