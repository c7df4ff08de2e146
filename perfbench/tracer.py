"""In-memory spans recorded around the public functions of lightfuse modules.

Functions are replaced at module-attribute level, so calls made through the
module (`nn_ops.pointwise_forward(...)`) or through a module's own globals
(`run_layer` inside `model.forward`) are both seen. Nothing under src/ is
edited; `restore()` puts the originals back.
"""

import csv
import inspect
import time


class Tracer:
    """Spans with name, start, end, parent span and op id, kept in lists."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.ops = []
        self.op_id = -1
        self.counters = {}
        self._stack = [-1]
        self._undo = []

    def _wrap(self, name, fn, count):
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1])
            self.ops.append(self.op_id)
            self.ends.append(0.0)
            self._stack.append(sid)
            self.starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[sid] = clock()
                self._stack.pop()
            if count is not None:
                count(self.counters, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name: str, count=None) -> None:
        """Replace owner.attr by a traced wrapper; `count` updates counters."""
        original = inspect.getattr_static(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original, count))

    def patch_module(self, module, counts=None) -> None:
        """Trace every function in module.__all__ that the module defines."""
        short = module.__name__.rsplit(".", 1)[-1]
        counts = counts or {}
        for attr in module.__all__:
            obj = getattr(module, attr)
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                self.patch(module, attr, f"{short}.{attr}", counts.get(attr))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def summary(self) -> dict:
        """name -> [calls, self seconds, total seconds].

        Self time is a span's duration minus the durations of its direct
        children; spans are strictly nested because the run is one thread.
        """
        child = [0.0] * len(self.names)
        for sid, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[sid] - self.starts[sid]
        out = {}
        for sid, name in enumerate(self.names):
            dur = self.ends[sid] - self.starts[sid]
            agg = out.setdefault(name, [0, 0.0, 0.0])
            agg[0] += 1
            agg[1] += dur - child[sid]
            agg[2] += dur
        return out

    def write(self, path) -> None:
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(("span", "name", "start_s", "end_s", "parent", "op"))
            for sid, name in enumerate(self.names):
                w.writerow((sid, name, repr(self.starts[sid]), repr(self.ends[sid]), self.parents[sid], self.ops[sid]))
