"""Span-based tracing of the analysis pipeline.

The tracer answers two questions the counters cannot: *where does the
time go* (span-based phase timing over lex/parse/lower/ssa/assert/
propagate/derive/predict) and *why did the engine do what it did* (a
structured event stream -- see :mod:`repro.observability.events`).

Design constraints, in order of importance:

* a **disabled** tracer must cost one attribute check per instrumented
  site -- the propagation engine checks ``tracer.enabled`` once at
  construction and keeps ``None`` when tracing is off, so its hot paths
  pay a single ``is not None`` test;
* the active tracer is carried in a :class:`contextvars.ContextVar`
  (the same pattern as :mod:`repro.core.counters`), so nothing needs to
  be plumbed through every call and future thread/async parallelism
  sees a correctly scoped tracer;
* recording is bounded: past ``max_events`` the stream drops events
  (and counts the drops) instead of exhausting memory on big modules.
"""

from __future__ import annotations

import contextvars
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

from repro.observability import context as tracecontext
from repro.observability.events import TraceEvent


class SpanRecord:
    """One timed region.  ``end`` is ``None`` while the span is open."""

    __slots__ = ("name", "start", "end", "depth", "index", "parent", "trace_id")

    def __init__(
        self,
        name: str,
        start: float,
        depth: int,
        index: int,
        parent: Optional[int],
        trace_id: Optional[str] = None,
    ):
        self.name = name
        self.start = start
        self.end: Optional[float] = None
        self.depth = depth
        self.index = index
        #: Index of the enclosing span in ``Tracer.spans`` (or None).
        self.parent = parent
        #: Trace id of the request this span served (or None outside one).
        self.trace_id = trace_id

    @property
    def seconds(self) -> float:
        if self.end is None:
            return 0.0
        return self.end - self.start

    def __repr__(self) -> str:
        return f"SpanRecord({self.name!r}, {self.seconds:.6f}s, depth={self.depth})"


@dataclass
class PhaseTiming:
    """Aggregate of every span sharing one name."""

    name: str
    count: int = 0
    seconds: float = 0.0


class _NullSpan:
    """Reusable no-op context manager for the disabled tracer."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The default tracer: records nothing, costs (almost) nothing.

    ``enabled`` is the one attribute instrumented code consults; every
    other method is a no-op so accidental calls stay harmless.
    """

    enabled = False

    __slots__ = ()

    def span(self, name: str):
        return _NULL_SPAN

    def emit(self, event: TraceEvent) -> None:
        return None

    @property
    def spans(self) -> List[SpanRecord]:
        return []

    @property
    def events(self) -> List[TraceEvent]:
        return []

    @property
    def event_counts(self) -> Dict[str, int]:
        return {}

    def phase_timings(self) -> Dict[str, PhaseTiming]:
        return {}

    def events_of(self, kind) -> List[TraceEvent]:
        return []


class Tracer:
    """Recording tracer: timed spans plus a bounded event stream.

    Parameters
    ----------
    record_events:
        When False only span timings and per-kind event *counts* are
        kept -- the cheap mode for pure phase profiling.
    max_events:
        Hard cap on retained events; the surplus is counted in
        ``dropped_events`` rather than stored.
    """

    enabled = True

    def __init__(self, record_events: bool = True, max_events: int = 1_000_000):
        self.record_events = record_events
        self.max_events = max_events
        self.spans: List[SpanRecord] = []
        self.events: List[TraceEvent] = []
        self.event_counts: Dict[str, int] = {}
        self.dropped_events = 0
        self._stack: List[SpanRecord] = []

    # -- spans ---------------------------------------------------------------

    @contextmanager
    def span(self, name: str) -> Iterator[SpanRecord]:
        """Time a named region; spans nest and remember their parent."""
        record = SpanRecord(
            name,
            time.perf_counter(),
            depth=len(self._stack),
            index=len(self.spans),
            parent=self._stack[-1].index if self._stack else None,
            trace_id=tracecontext.current_trace_id(),
        )
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def phase_timings(self) -> Dict[str, PhaseTiming]:
        """Total time per span name (closed spans only), insertion order."""
        out: Dict[str, PhaseTiming] = {}
        for record in self.spans:
            if record.end is None:
                continue
            timing = out.setdefault(record.name, PhaseTiming(record.name))
            timing.count += 1
            timing.seconds += record.seconds
        return out

    # -- events --------------------------------------------------------------

    def emit(self, event: TraceEvent) -> None:
        kind = event.kind
        self.event_counts[kind] = self.event_counts.get(kind, 0) + 1
        if not self.record_events:
            return
        if len(self.events) >= self.max_events:
            self.dropped_events += 1
            return
        self.events.append(event)

    def events_of(self, kind) -> List[TraceEvent]:
        """Events matching a kind string or a TraceEvent subclass."""
        if isinstance(kind, type):
            return [e for e in self.events if isinstance(e, kind)]
        return [e for e in self.events if e.kind == kind]


# -- the active tracer ---------------------------------------------------------

NULL_TRACER = NullTracer()

_ACTIVE: contextvars.ContextVar = contextvars.ContextVar("repro-tracer")


def active():
    """The tracer currently receiving spans and events."""
    return _ACTIVE.get(NULL_TRACER)


@contextmanager
def use(tracer) -> Iterator:
    """Route spans/events to ``tracer`` for the duration of the block."""
    token = _ACTIVE.set(tracer)
    try:
        yield tracer
    finally:
        _ACTIVE.reset(token)
