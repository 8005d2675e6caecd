"""Layer probes that rebind motrack's public names at run time.

A probe replaces ``module.name`` with a wrapper that times or counts each
call and restores the original on exit. Callers inside motrack look these
names up as module globals on every call, so rebinding the name in the
*calling* module (``motrack.runner.step_tracker``, ``motrack.association.iou``)
catches exactly the calls made from that layer. No file of the program is
changed.

Spans are aggregated in memory per thread (calls, total and self time, the
first parent seen) and merged when read, so the wrappers take no lock on
the hot path and ``run_suite``'s worker threads can be traced too. A span's
self time is its duration minus the time of the spans it called.
"""

from __future__ import annotations

import threading
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter_ns


@dataclass
class SpanStat:
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0
    parent: str | None = None
    samples_ns: list[int] = field(default_factory=list)

    def merge(self, other: "SpanStat") -> None:
        self.calls += other.calls
        self.total_ns += other.total_ns
        self.self_ns += other.self_ns
        if self.parent is None:
            self.parent = other.parent
        self.samples_ns.extend(other.samples_ns)


class _ThreadStats:
    def __init__(self) -> None:
        self.stack: list[list] = []  # [span name, child ns]
        self.spans: dict[str, SpanStat] = defaultdict(SpanStat)
        self.counts: dict[str, int] = defaultdict(int)
        self.maxima: dict[str, float] = {}


class Tracer:
    """Install wrappers with ``span``/``count``; use as a context manager.

    ``span(..., samples=True)`` also keeps every call's duration, for
    percentiles. ``on_return(stats, args, result)`` runs after each call
    and may add to ``stats.counts`` (summed over threads) or ``stats.maxima``
    (maximum over threads).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._threads: list[_ThreadStats] = []
        self._plan: list[tuple[object, str, object]] = []
        self._restore: list[tuple[object, str, object]] = []

    def _stats(self) -> _ThreadStats:
        stats = getattr(self._local, "stats", None)
        if stats is None:
            stats = self._local.stats = _ThreadStats()
            with self._lock:
                self._threads.append(stats)
        return stats

    def span(self, owner, attr: str, name: str, *, samples: bool = False, on_return=None) -> "Tracer":
        def make(fn):
            def traced(*args, **kwargs):
                stats = self._stats()
                stack = stats.stack
                frame = [name, 0]
                stack.append(frame)
                t0 = perf_counter_ns()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = perf_counter_ns() - t0
                    stack.pop()
                    if stack:
                        stack[-1][1] += elapsed
                    stat = stats.spans[name]
                    stat.calls += 1
                    stat.total_ns += elapsed
                    stat.self_ns += elapsed - frame[1]
                    if stat.parent is None and stack:
                        stat.parent = stack[-1][0]
                    if samples:
                        stat.samples_ns.append(elapsed)
                if on_return is not None:
                    on_return(stats, args, result)
                return result

            return traced

        self._plan.append((owner, attr, make))
        return self

    def count(self, owner, attr: str, name: str) -> "Tracer":
        def make(fn):
            def counted(*args, **kwargs):
                self._stats().counts[name] += 1
                return fn(*args, **kwargs)

            return counted

        self._plan.append((owner, attr, make))
        return self

    def __enter__(self) -> "Tracer":
        for owner, attr, make in self._plan:
            original = owner.__dict__[attr]
            self._restore.append((owner, attr, original))
            setattr(owner, attr, make(original))
        return self

    def __exit__(self, *exc) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def spans(self) -> dict[str, SpanStat]:
        merged: dict[str, SpanStat] = defaultdict(SpanStat)
        with self._lock:
            for stats in self._threads:
                for name, stat in stats.spans.items():
                    merged[name].merge(stat)
        return merged

    def counts(self) -> dict[str, int]:
        merged: dict[str, int] = defaultdict(int)
        with self._lock:
            for stats in self._threads:
                for name, value in stats.counts.items():
                    merged[name] += value
        return merged

    def maxima(self) -> dict[str, float]:
        merged: dict[str, float] = {}
        with self._lock:
            for stats in self._threads:
                for name, value in stats.maxima.items():
                    merged[name] = max(merged.get(name, value), value)
        return merged
