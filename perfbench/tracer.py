"""Layer spans recorded from outside the program.

``Tracer.install`` replaces every public function of the anosov layer
modules (``lru_cache``'d ones included), wherever an anosov module binds
it, by a wrapper that records a span: its name, its duration and the span
that called it.  Spans are aggregated in memory per (experiment, parent,
name) edge, so millions of calls cost a dict update each and the call tree
survives.  The wrappers only read the clock; arguments, results and
exceptions pass through untouched.  ``ScaledMatrix.__matmul__`` is wrapped
as a counter attributed to the enclosing span.  Methods and private helpers
are not wrapped: their time is their caller's self time.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("words", "linalg", "exterior", "constructions", "certify", "cli")

# Calls whose result length is summed into a counter named after the span.
_SIZED = ("words.enumerate_ball",)


class Tracer:
    def __init__(self) -> None:
        self._stack: list[list] = [["", 0]]  # frames: [span name, child ns]
        self._current: list[dict | None] = [None]  # set by begin()
        self.edges: dict[str, dict] = {}  # experiment -> {(parent, name): [calls, ns, child ns]}
        self.matmuls: dict[str, dict] = {}  # experiment -> {enclosing span: count}
        self.sizes: dict[str, dict] = {}  # experiment -> {span: summed result length}

    def begin(self, experiment: str) -> None:
        """Attribute the following spans to ``experiment``."""
        self._current[0] = {
            "edges": self.edges.setdefault(experiment, {}),
            "matmuls": self.matmuls.setdefault(experiment, {}),
            "sizes": self.sizes.setdefault(experiment, {}),
        }

    def install(self, package) -> None:
        modules = {layer: sys.modules[f"{package.__name__}.{layer}"] for layer in LAYERS}
        namespaces = [package, *modules.values()]
        for layer, module in modules.items():
            for attr, fn in list(vars(module).items()):
                # an lru_cache'd function is wrapped with its cache in front
                target = fn.__wrapped__ if hasattr(fn, "cache_info") else fn
                if attr.startswith("_") or not inspect.isfunction(target):
                    continue
                if target.__module__ != module.__name__:
                    continue
                wrapped = self._span(f"{layer}.{attr}", fn)
                for ns in namespaces:
                    if vars(ns).get(attr) is fn:
                        setattr(ns, attr, wrapped)
        scaled = modules["linalg"].ScaledMatrix
        scaled.__matmul__ = self._counter(scaled.__matmul__)

    def _span(self, name: str, fn):
        stack, current, clock = self._stack, self._current, time.perf_counter_ns
        sized = name in _SIZED

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [name, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if sized:
                    sizes = current[0]["sizes"]
                    sizes[name] = sizes.get(name, 0) + len(result)
                return result
            finally:
                elapsed = clock() - start
                stack.pop()
                parent = stack[-1]
                parent[1] += elapsed
                edges = current[0]["edges"]
                key = (parent[0], name)
                edge = edges.get(key)
                if edge is None:
                    edges[key] = [1, elapsed, frame[1]]
                else:
                    edge[0] += 1
                    edge[1] += elapsed
                    edge[2] += frame[1]

        return span

    def _counter(self, method):
        stack, current = self._stack, self._current

        @functools.wraps(method)
        def counted(a, b):
            counts = current[0]["matmuls"]
            top = stack[-1][0]
            counts[top] = counts.get(top, 0) + 1
            return method(a, b)

        return counted

    def export(self) -> dict:
        """Plain-JSON form: per experiment, edges as [parent, name, calls, s, child s]."""
        return {
            exp: {
                "edges": [
                    [parent, name, calls, ns / 1e9, child_ns / 1e9]
                    for (parent, name), (calls, ns, child_ns) in sorted(edges.items())
                ],
                "matmuls": self.matmuls[exp],
                "sizes": self.sizes[exp],
            }
            for exp, edges in self.edges.items()
        }
