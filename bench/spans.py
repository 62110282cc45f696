"""Span recording by rebinding module attributes.

``Tracer.install`` replaces chosen functions of the ``nonmono`` modules (and
every module-level alias of them inside the package) with wrappers that time
each call; ``Tracer.restore`` puts the originals back.  Spans are folded into
per-name aggregates as they close, so tracing a hot function costs one
wrapper call and no allocation per span.  A span's self time is its duration
minus the durations of the spans opened directly inside it.
"""
from __future__ import annotations

import sys
import time
from typing import Callable


class SpanStats:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.stats: dict[str, SpanStats] = {}
        self._open: list[float] = []  # child time accumulated per open span
        self._undo: list[tuple[object, str, object]] = []

    def span(self, name: str) -> SpanStats:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = SpanStats()
        return st

    def wrap(self, fn, name, on_exit=None):
        """Wrapper timing ``fn``.  ``name`` is a span name or a function of the
        call's positional arguments; ``on_exit(result, duration, args)`` runs
        after each call that returns."""
        clock, open_spans, span = self.clock, self._open, self.span
        fixed = None if callable(name) else span(name)

        def traced(*args, **kwargs):
            st = fixed or span(name(args))
            open_spans.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                d = clock() - t0
                child = open_spans.pop()
                if open_spans:
                    open_spans[-1] += d
                st.calls += 1
                st.total += d
                st.self_time += d - child
            if on_exit is not None:
                on_exit(result, d, args)
            return result

        return traced

    def install(self, owner, attr: str, name, on_exit=None) -> None:
        """Rebind ``owner.attr`` to a traced wrapper.  When ``owner`` is a
        module, every module-level alias of the same function in the
        ``nonmono`` package is rebound too, so callers that imported the name
        directly are traced as well."""
        original = getattr(owner, attr)
        wrapper = self.wrap(original, name, on_exit)
        bindings = [(owner, attr)]
        if isinstance(owner, type(sys)):
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "nonmono" or mod_name.startswith("nonmono.")):
                    continue
                for alias, value in list(vars(mod).items()):
                    if value is original and (mod, alias) != (owner, attr):
                        bindings.append((mod, alias))
        for obj, name_ in bindings:
            self._undo.append((obj, name_, getattr(obj, name_)))
            setattr(obj, name_, wrapper)

    def restore(self) -> None:
        while self._undo:
            obj, name_, original = self._undo.pop()
            setattr(obj, name_, original)
