"""Span tracing from outside the package: rebind the names callers import.

Each layer boundary is a public function that some cpstream module imports
by name (``cpstream.monitor.segment``, ``cpstream.netsim.train`` ...). While
a :class:`Tracer` is installed, those module attributes point at timing
wrappers, so every call records a span without touching ``src/``. Spans are
aggregated in memory as they close: per name the call count, total time,
self time (total minus the time covered by child spans) and the number of
samples passed in. A span point the package no longer has raises, so a
renamed function fails the traced run instead of reading 0.
"""

from __future__ import annotations

import contextlib
import importlib
from dataclasses import dataclass
from time import perf_counter
from typing import Callable


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    samples_in: int = 0


def sample_count(arg) -> int:
    """Samples in a series-like argument: TimeSeries, SeriesSegment or array."""
    n = getattr(arg, "n_samples", None)
    if n is not None:
        return int(n)
    shape = getattr(arg, "shape", None)
    if shape:
        return int(shape[0])
    return 0


# (module, attribute, span name, index of the series argument or None).
# The same function is listed once per module that imports it, because
# each importer holds its own reference.
SPAN_POINTS = (
    ("cpstream.cli", "dispatch", "cli.dispatch", None),
    ("cpstream.cli", "run_monitor", "monitor.run_monitor", None),
    ("cpstream.monitor", "run_monitor", "monitor.run_monitor", None),
    ("cpstream.monitor", "segment", "offline.segment", 0),
    ("cpstream.monitor", "train", "online.train", 0),
    ("cpstream.monitor", "step", "online.step", None),
    ("cpstream.monitor", "trend_interval", "trend.trend_interval", 0),
    ("cpstream.offline", "offline_test", "offline.offline_test", 0),
    ("cpstream.offline", "bartlett_lrv", "longrun.bartlett_lrv.offline", 0),
    ("cpstream.online", "bartlett_lrv", "longrun.bartlett_lrv.online", 0),
    ("cpstream.netsim", "run_experiment", "netsim.run_experiment", None),
    ("cpstream.netsim", "train", "online.train", 0),
    ("cpstream.netsim", "run_batch", "online.run_batch", 1),
    ("cpstream.netsim", "generate_traces", "netsim.generate_traces", None),
    ("cpstream.netsim", "identify_attackers", "netsim.identify_attackers", None),
    ("cpstream.critvals", "compute_critval", "critvals.compute_critval", None),
)

# Span names in report order; every one is reported, 0 when never entered.
LAYERS = tuple(dict.fromkeys(name for _, _, name, _ in SPAN_POINTS))


class Tracer:
    """Aggregated spans plus the work counters kept at the same boundaries."""

    def __init__(self) -> None:
        self.stats: dict[str, SpanStats] = {name: SpanStats() for name in LAYERS}
        self.counters: dict[str, float] = {}
        self._open: list[list[float]] = []  # child time covered, per open span

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name: str, fn: Callable, series_arg: int | None = None) -> Callable:
        stats = self.stats.setdefault(name, SpanStats())
        open_spans = self._open

        def traced(*args, **kwargs):
            children = [0.0]
            open_spans.append(children)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                open_spans.pop()
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += elapsed - children[0]
                if series_arg is not None and len(args) > series_arg:
                    stats.samples_in += sample_count(args[series_arg])
                if open_spans:
                    open_spans[-1][0] += elapsed

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self, extra: tuple = ()):
        """Rebind every span point, the replication counter and ``extra``.

        ``extra`` holds (module, attribute, make) triples; ``make`` receives
        the original object and returns its replacement.
        """
        points = [(module, attr, self._span_maker(module, attr, span, series_arg))
                  for module, attr, span, series_arg in SPAN_POINTS]
        points.append(("cpstream.critvals", "replication_stat", self.replication_counter))
        points.extend(extra)
        saved = []
        try:
            for module_name, attr, make in points:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, make(original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def _span_maker(self, module: str, attr: str, span: str, series_arg: int | None) -> Callable:
        if (module, attr) == ("cpstream.cli", "run_monitor"):
            return lambda fn: self._cli_monitor(self.wrap(span, fn, series_arg))
        return lambda fn: self.wrap(span, fn, series_arg)

    def provider(self, inner: Callable) -> Callable:
        """Count the requests a critical-value provider receives.

        A request is a hit when it starts no simulation (no compute_critval
        call and no replication), and thin when alpha times the provider's
        replication budget is below 10.
        """
        budget = getattr(inner, "replications", 0)
        seen: set[tuple] = set()
        simulations = self.stats["critvals.compute_critval"]

        def work() -> tuple:
            return simulations.calls, self.counters.get("critvals.replications", 0)

        def provide(kind, d, alpha, gamma=0.0):
            before = work()
            critval = inner(kind, d, alpha, gamma)
            self.count("critvals.provider.calls")
            if work() == before:
                self.count("critvals.provider.hits")
            key = (getattr(kind, "value", kind), d, alpha, gamma)
            if key not in seen:
                seen.add(key)
                self.count("critvals.provider.distinct_requests")
            if alpha * budget < 10:
                self.count("critvals.thin_tail_requests")
            return critval

        return provide

    def replication_counter(self, replication_stat: Callable) -> Callable:
        """Count replications and the normal draws each one makes (d x path steps)."""

        def counted(request, rep):
            steps = request.grid_steps
            if getattr(request.kind, "value", request.kind) == "online-ratio":
                steps += int(round(request.grid_steps * request.horizon_T))
            self.count("critvals.replications")
            self.count("critvals.normal_draws", request.d * steps)
            return replication_stat(request, rep)

        return counted

    def _cli_monitor(self, traced_run_monitor: Callable) -> Callable:
        # The CLI hands run_monitor a CSV row generator and a JSON-writing
        # callback; both run inside run_monitor but are CLI work, so each
        # row pull and each event write is a cli.dispatch span.
        def rows(stream):
            pull = self.wrap("cli.dispatch", iter(stream).__next__)
            while True:
                try:
                    row = pull()
                except StopIteration:
                    return
                self.count("cli.rows_parsed")
                yield row

        def run_monitor(stream, config, on_event=None):
            if on_event is not None:
                on_event = self.wrap("cli.dispatch", on_event)
            return traced_run_monitor(rows(stream), config, on_event)

        return run_monitor
