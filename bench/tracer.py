"""Outside-in call tracer for the mlsspf modules.

Wraps every public module-level function of the traced modules and rebinds
the wrapper in every `mlsspf` module namespace that holds the original, so
calls made through `from .process import local_trashes` style imports are
seen as well.  Statistics are aggregated in memory (calls, total time, self
time, exceptions by class, result sizes, caller -> callee edge counts); no
per-call span is stored, which keeps the hot `make_set` path cheap.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from time import perf_counter

TRACED_MODULES = ("hf", "lang", "venn", "process", "msrefine", "relations",
                  "pumping", "solver")

# Result sizes worth aggregating: name -> function of the result.
SIZES = {
    "hf.pow_star": len,
    "pumping.find_pumping_cycles": len,
    "venn.canonical_board": lambda r: len(r[2].places),
}

# Calls whose statistics are also kept per argument value: name -> label.
LABELS = {
    "pumping.extend_certificate": lambda args, kwargs: "k%02d" % (
        args[1] if len(args) > 1 else kwargs["rounds"]),
}


class _Stat:
    __slots__ = ("calls", "total", "self_time", "raised", "size_sum",
                 "size_max")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.raised = {}
        self.size_sum = 0
        self.size_max = 0

    def to_json(self):
        return {"calls": self.calls, "total_s": self.total,
                "self_s": self.self_time, "raised": dict(self.raised),
                "size_sum": self.size_sum, "size_max": self.size_max}


class Tracer:
    """Install with `install()`, read with `snapshot()`, undo with `uninstall()`."""

    def __init__(self):
        self.stats = {}
        self.edges = {}
        self._stack = []
        self._patched = []

    def _wrap(self, name, fn):
        stat = self.stats.setdefault(name, _Stat())
        stack = self._stack
        edges = self.edges
        size = SIZES.get(name)
        label = LABELS.get(name)
        stats = self.stats

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            edge = (parent[1] if parent else None, name)
            edges[edge] = edges.get(edge, 0) + 1
            frame = [0.0, name]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                cls = type(exc).__name__
                stat.raised[cls] = stat.raised.get(cls, 0) + 1
                raise
            finally:
                dt = perf_counter() - t0
                stack.pop()
                stat.calls += 1
                stat.total += dt
                stat.self_time += dt - frame[0]
                if parent is not None:
                    parent[0] += dt
                if label is not None:
                    sub = stats.setdefault(f"{name}.{label(args, kwargs)}", _Stat())
                    sub.calls += 1
                    sub.total += dt
                    sub.self_time += dt - frame[0]
            if size is not None:
                n = size(result)
                stat.size_sum += n
                stat.size_max = max(stat.size_max, n)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        originals = {}
        for short in TRACED_MODULES:
            mod = importlib.import_module(f"mlsspf.{short}")
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == mod.__name__):
                    originals[id(fn)] = (fn, self._wrap(f"{short}.{attr}", fn))
        namespaces = [mod for name, mod in sys.modules.items()
                      if name == "mlsspf" or name.startswith("mlsspf.")]
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                hit = originals.get(id(value))
                if hit is not None:
                    setattr(ns, attr, hit[1])
                    self._patched.append((ns, attr, value))

    def uninstall(self):
        for ns, attr, value in reversed(self._patched):
            setattr(ns, attr, value)
        self._patched.clear()

    def snapshot(self):
        return {
            "functions": {n: s.to_json() for n, s in sorted(self.stats.items())},
            "edges": [[a, b, n] for (a, b), n in sorted(
                self.edges.items(), key=lambda kv: (str(kv[0][0]), kv[0][1]))],
        }
