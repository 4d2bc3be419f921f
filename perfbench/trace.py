"""Span tracing from outside the program: wrap public entry points, time them.

A span is one call of a wrapped function.  Spans nest per thread; a span's
self time is its duration minus the durations of the spans it directly
contains.  Wrapping happens only inside :func:`instrumented`, so untraced
runs execute the program's own functions, unmodified.
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time
from collections import Counter
from dataclasses import dataclass, field


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    child_s: float = 0.0

    @property
    def self_s(self) -> float:
        return self.total_s - self.child_s


@dataclass
class Tracer:
    """Aggregated span statistics plus counters recorded at span boundaries."""

    spans: dict[str, SpanStats] = field(default_factory=dict)
    counts: Counter = field(default_factory=Counter)
    _local: threading.local = field(default_factory=threading.local)
    _lock: threading.Lock = field(default_factory=threading.Lock)

    def _stack(self) -> list[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, count=None):
        """``fn`` recording one ``name`` span per call.

        ``count(counts, args, result)`` runs after the span closes, so its
        cost lands in the parent's self time, never in this span's.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                with tracer._lock:
                    count(tracer.counts, args, result)
            return result

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one ``name`` span around the ``with`` block."""
        stack = self._stack()
        stack.append(0.0)
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            child_s = stack.pop()
            if stack:
                stack[-1] += elapsed
            with self._lock:
                stats = self.spans.setdefault(name, SpanStats())
                stats.calls += 1
                stats.total_s += elapsed
                stats.child_s += child_s


def _count_pools(counts: Counter, args, result) -> None:
    pools = result[0]
    counts["pool_points"] += len(pools)
    counts["pool_segments"] += sum(len(pool) for pool in pools)


def _count_scope(counts: Counter, args, result) -> None:
    counts["scope_segments"] += int(args[1].shape[0])


def _count_pairs(counts: Counter, args, result) -> None:
    counts["pairs_scored"] += int(result[0].shape[0])


def _targets():
    """``(owner, attribute, span name, counter)`` for every traced entry point."""
    from repro.core import matcher as core_matcher
    from repro.core import online as core_online
    from repro.core.candidates import CandidatePoolCache
    from repro.core.transition import TransitionLearner
    from repro.core.trellis import VectorizedTrellis
    from repro.network.road_network import RoadNetwork

    return [
        (core_matcher.LHMM, "match", "core.match", None),
        (core_matcher.LHMM, "prepare_candidates", "core.prepare_candidates", None),
        (CandidatePoolCache, "pools_features", "core.pools_features", _count_pools),
        (RoadNetwork, "segments_near_many", "network.segments_near_many", None),
        (TransitionLearner, "road_relevance_logits", "core.road_relevance", _count_scope),
        (VectorizedTrellis, "run", "core.trellis_run", None),
        # Module-level functions are patched where the callers look them up.
        (core_matcher, "route_pairs", "network.route_pairs", None),
        (core_online, "route_pairs", "network.route_pairs", None),
        (core_matcher, "transition_feature_rows", "core.transition_feature_rows",
         _count_pairs),
        (core_online, "transition_feature_rows", "core.transition_feature_rows",
         _count_pairs),
        (core_online.OnlineLHMM, "add_point", "core.online_add_point", None),
    ]


#: Span names in report order (the program spans, then benchmark-side ones).
SPAN_NAMES = (
    "core.match",
    "core.prepare_candidates",
    "core.pools_features",
    "network.segments_near_many",
    "core.road_relevance",
    "core.trellis_run",
    "network.route_pairs",
    "core.transition_feature_rows",
    "core.online_add_point",
    "serve.client_request",
)


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Patch every traced entry point to record into ``tracer``; restore after."""
    saved = []
    try:
        for owner, attr, name, count in _targets():
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, count))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
