"""Per-layer spans recorded from outside the library.

The traced run replaces selected library callables with wrappers that
time each call.  A span's self time is its duration minus the time of
the spans it opened, so nested layers (``env.step`` calling
``reward.reward``, ``agent.train`` calling ``agent.train_step``) are not
counted twice.  Spans are aggregated per name in memory: a run makes
millions of calls, too many to keep one record each.
"""

from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Aggregates call count, total time and self time per span name."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[str, SpanStats] = {}
        self.missing: list[str] = []
        self._open: list[float] = []   # child time accumulated by each open span

    def wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, SpanStats())
        clock = self.clock
        open_spans = self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = open_spans.pop()
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += elapsed - children
                if open_spans:
                    open_spans[-1] += elapsed

        return traced


@contextlib.contextmanager
def traced(tracer: Tracer, targets, modules):
    """Install span wrappers for the duration of the block.

    ``targets`` holds (span name, owner, attribute) triples.  A class
    owner gets the wrapper as its attribute, so every instance sees it.
    A module-level function is rebound in each of ``modules`` that holds
    it under any name, which also catches ``from x import f`` copies.
    A target the library no longer has is listed in ``tracer.missing``
    and its span stays at zero calls.
    """
    restore = []
    try:
        for name, owner, attr in targets:
            tracer.stats.setdefault(name, SpanStats())
            is_class = isinstance(owner, type)
            original = owner.__dict__.get(attr) if is_class else getattr(owner, attr, None)
            if original is None:
                tracer.missing.append(name)
                continue
            if is_class:
                holders = [(owner, attr)]
            else:
                holders = [(m, k) for m in modules for k, v in vars(m).items()
                           if v is original]
            wrapper = tracer.wrap(name, original)
            for holder, key in holders:
                restore.append((holder, key, original))
                setattr(holder, key, wrapper)
        yield tracer
    finally:
        for holder, key, original in reversed(restore):
            setattr(holder, key, original)
