"""Span tracer that times semiconv's public functions from outside.

The tracer wraps each target function and rebinds the wrapper under every
name that holds the original in any ``semiconv.*`` module namespace.
Rebinding only the defining module would miss most calls, because the
modules import each other's functions by name (``from .measure import
convolve``).  Nothing under ``src/`` changes.

Each thread keeps its own span stack, since ``verify``'s pool runs checks
on worker threads.  A span records wall time (``perf_counter``) and
thread CPU time (``thread_time``); its self time is its duration minus
the durations of its child spans, and its wait is self wall time minus
self CPU time (under the thread pool, mostly time spent waiting for the
interpreter lock).  Spans stay in memory until ``summary`` or ``dump``.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
from dataclasses import dataclass, field
from time import perf_counter, thread_time


@dataclass
class Span:
    name: str
    thread: int
    phase: str
    outermost: bool
    start: float = 0.0
    end: float = 0.0
    cpu_start: float = 0.0
    cpu_end: float = 0.0
    child_wall: float = 0.0
    child_cpu: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_s(self):
        return self.duration - self.child_wall

    @property
    def wait_s(self):
        return self.self_s - ((self.cpu_end - self.cpu_start) - self.child_cpu)


class Tracer:
    """Wraps ``targets`` ({"module.function": counter or None}) while installed.

    A counter is called as ``counter(args, kwargs, result)`` after the call
    returns and gives a dict of work counts for the span; keys starting
    with ``max_`` aggregate by maximum, all others by sum.
    """

    def __init__(self, targets, package="semiconv"):
        self.targets = dict(targets)
        self.package = package
        self.spans = []
        self.phase = ""
        self._local = threading.local()
        self._rebound = []

    def install(self):
        for qualname, counter in self.targets.items():
            module_name, func_name = qualname.rsplit(".", 1)
            module = importlib.import_module(f"{self.package}.{module_name}")
            original = getattr(module, func_name)
            wrapper = self._wrap(qualname, original, counter)
            for mod in self._package_modules():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._rebound.append((mod, attr, original))
        return self

    def uninstall(self):
        for mod, attr, original in reversed(self._rebound):
            setattr(mod, attr, original)
        self._rebound.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def _package_modules(self):
        prefix = self.package + "."
        return [
            mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == self.package or name.startswith(prefix))
        ]

    def _wrap(self, name, fn, counter):
        local = self._local
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else None
            span = Span(
                name=name,
                thread=threading.get_ident(),
                phase=self.phase,
                outermost=all(s.name != name for s in stack),
            )
            stack.append(span)
            # The wall interval encloses the CPU interval, so wait is >= 0.
            span.start = perf_counter()
            span.cpu_start = thread_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.cpu_end = thread_time()
                span.end = perf_counter()
                stack.pop()
                if parent is not None:
                    parent.child_wall += span.duration
                    parent.child_cpu += span.cpu_end - span.cpu_start
                spans.append(span)
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        return traced

    def summary(self, phase=None):
        """Per function: calls, incl_s, self_s, wait_s and summed counts,
        over every span or over the spans of one phase.

        ``incl_s`` counts only outermost spans of a name, so recursion
        (``build`` of a direct product builds its factors) is not counted
        twice.
        """
        out = {name: {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "wait_s": 0.0}
               for name in self.targets}
        for span in self.spans:
            if phase is not None and span.phase != phase:
                continue
            agg = out[span.name]
            agg["calls"] += 1
            if span.outermost:
                agg["incl_s"] += span.duration
            agg["self_s"] += span.self_s
            agg["wait_s"] += span.wait_s
            for key, value in span.counts.items():
                if key.startswith("max_"):
                    agg[key] = max(agg.get(key, 0), value)
                else:
                    agg[key] = agg.get(key, 0) + value
        return out

    def dump(self):
        """All spans as plain dicts, for writing out once at the end."""
        return [
            {
                "name": s.name,
                "thread": s.thread,
                "phase": s.phase,
                "start": s.start,
                "end": s.end,
                "self_s": s.self_s,
                "wait_s": s.wait_s,
                "counts": s.counts,
            }
            for s in self.spans
        ]
