"""Spans around the program's public functions, recorded from outside.

``Tracer.install`` replaces every public function of the given modules,
wherever one of those modules holds it as an attribute, by a wrapper that
records a span: the function's name, the span that was open when it was
called, and its start and end.  Functions look up module globals at call
time, so calls between layers and within a layer both become nested
spans.  Spans are kept in flat arrays in memory; ``uninstall`` restores
the originals.  A span's self time is its duration minus the durations
of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import math
import time
from array import array
from collections import defaultdict


def _reduce_hook(args, result):
    return len(args[0]), result[1]


def _states_hook(args, result):
    return result.state_count, 0


def _elements_hook(args, result):
    return result.element_count, 0


#: Counts recorded at a function's boundary: name -> (args, result) -> (a, b).
HOOKS = {
    "rewrite.reduce_detailed": _reduce_hook,  # (letters, relation applications)
    "tables.enumerate_monoid": _elements_hook,  # (elements found, -)
    "mealy.product": _states_hook,  # (product states, -)
    "mealy.minimize": _states_hook,  # (minimized states, -)
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.a = array("q")
        self.b = array("q")
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self, modules) -> None:
        wrapped = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrapped[obj] = self._wrap(obj, f"{layer}.{attr}")
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[obj])

    def uninstall(self) -> None:
        for mod, attr, obj in self._saved:
            setattr(mod, attr, obj)
        self._saved.clear()

    def _wrap(self, fn, qualname: str):
        idx = len(self.names)
        self.names.append(qualname)
        hook = HOOKS.get(qualname)
        stack, clock = self._stack, time.perf_counter
        name, parent, start, end, a, b = (
            self.name, self.parent, self.start, self.end, self.a, self.b)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(start)
            name.append(idx)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            a.append(0)
            b.append(0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if hook is not None:
                a[sid], b[sid] = hook(args, result)
            return result

        return wrapper

    def __len__(self) -> int:
        return len(self.start)

    def write(self, path) -> None:
        """Write every span as a tab-separated line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\ta\tb\n")
            t0 = self.start[0] if len(self) else 0.0
            fh.writelines(
                f"{i}\t{self.parent[i]}\t{self.names[self.name[i]]}\t"
                f"{self.start[i] - t0:.9f}\t{self.end[i] - t0:.9f}\t{self.a[i]}\t{self.b[i]}\n"
                for i in range(len(self))
            )

    def summary(self) -> dict:
        """Per-function and per-layer aggregates of the recorded spans."""
        n = len(self)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        fn = defaultdict(lambda: {"self_s": 0.0, "calls": 0, "a": 0, "b": 0})
        layer_self = defaultdict(float)
        for i in range(n):
            qual = self.names[self.name[i]]
            rec = fn[qual]
            rec["self_s"] += dur[i] - child[i]
            rec["calls"] += 1
            rec["a"] += self.a[i]
            rec["b"] += self.b[i]
            layer_self[qual.split(".", 1)[0]] += dur[i] - child[i]

        top = [(self.a[i], dur[i]) for i in range(n)
               if self.parent[i] < 0 and self.names[self.name[i]] == "rewrite.reduce_detailed"]
        return {
            "functions": dict(fn),
            "layers": dict(layer_self),
            "length_fit": length_exponent(top),
        }


def length_exponent(points) -> dict:
    """Least-squares slope of log(time) against log(length).

    ``points`` are (letters, seconds) pairs; with fewer than two distinct
    lengths there is no slope and the exponent is reported as 0.
    """
    lengths = sorted({x for x, _ in points})
    out = {"exponent": 0.0,
           "min_letters": lengths[0] if lengths else 0,
           "max_letters": lengths[-1] if lengths else 0}
    if len(lengths) < 2:
        return out
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    out["exponent"] = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx
    return out
