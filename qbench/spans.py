"""Spans around the public functions of each qpaths layer, recorded from outside.

Tracer.install wraps every public function defined in a layer module
and rebinds every qpaths module attribute that refers to one of them,
so calls bound through ``from .x import y`` are seen too.  Nothing in
src/ changes; uninstall restores the original bindings.

A span is (operation id, name, start, end, parent index).  Spans stay
in memory until the run ends.  A layer's self time is its span's
duration minus the durations of its direct children; calls within one
operation are strictly nested, so the self times of one operation's
tree add up to its root span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import NamedTuple

LAYERS = ("statespace", "pathsum", "measurement", "meter", "oracle", "scenarios",
          "scenario_io", "cli")
ROOT = "op"


class Span(NamedTuple):
    op: int
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op = -1
        self._restore: list[tuple[object, str, object]] = []

    def _enter(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(self._op, name, time.perf_counter(), 0.0, parent))
        self._stack.append(index)
        return index

    def _exit(self, index: int) -> None:
        self._stack.pop()
        self.spans[index] = self.spans[index]._replace(end=time.perf_counter())

    @contextmanager
    def operation(self, op: int):
        """Root span of one benchmark operation."""
        self._op = op
        index = self._enter(ROOT)
        try:
            yield
        finally:
            self._exit(index)

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(index)
        return traced

    def install(self, package: str = "qpaths") -> None:
        """Wrap the public functions of every layer module of package."""
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{package}.{layer}")
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_")):
                    wrappers[id(obj)] = (obj, self.wrap(obj, f"{layer}.{attr}"))
        for name, module in list(sys.modules.items()):
            if name != package and not name.startswith(package + "."):
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    self._restore.append((module, attr, obj))
                    setattr(module, attr, wrappers[id(obj)][1])

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._restore):
            setattr(module, attr, obj)
        self._restore.clear()

    def self_times(self) -> dict[str, float]:
        """Total self time per span name, over every recorded span."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        out: dict[str, float] = defaultdict(float)
        for k, s in enumerate(self.spans):
            out[s.name] += (s.end - s.start) - child[k]
        return dict(out)

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for s in self.spans:
            out[s.name] += 1
        return dict(out)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for s in self.spans:
                handle.write(json.dumps(s._asdict()) + "\n")
