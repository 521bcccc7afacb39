"""Request-scoped trace context: trace_id / span_id propagation.

A :class:`TraceContext` identifies one logical request as it crosses
process boundaries: ``repro submit`` mints a ``trace_id``, carries it
to the daemon in the ``X-Repro-Trace-Id`` header, and the daemon
attaches it to its access-log line, its ``server.request.*`` events,
and every engine span recorded while serving that request.  Correlating
a slow request is then one grep by trace id across client output,
server logs, and exported traces (``docs/OBSERVABILITY.md``).

Like the tracer and the work counters, the current context rides a
:class:`contextvars.ContextVar`: nothing is threaded through call
signatures, and thread/async handoffs that copy the context (or call
:func:`use` explicitly, as the serving shards do) see the right ids.

The off path is one ``ContextVar.get`` with a default -- no allocation,
no locking -- and nothing in the analysis engine ever *reads* the
context unless a recording tracer is active, so the work counts the
overhead-guard benchmark protects cannot move.

Identifiers follow the W3C trace-context shape: 32 lowercase hex chars
for a trace id, 16 for a span id.  They are random (``os.urandom``),
not derived from analysis inputs -- telemetry identity, never cache
identity.
"""

from __future__ import annotations

import contextvars
import os
import re
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Iterator, Optional

#: HTTP header carrying the trace id from client to daemon.
TRACE_HEADER = "X-Repro-Trace-Id"

_TRACE_ID_RE = re.compile(r"^[0-9a-f]{32}$")
_SPAN_ID_RE = re.compile(r"^[0-9a-f]{16}$")


def new_trace_id() -> str:
    """A fresh 128-bit trace id as 32 lowercase hex chars."""
    return os.urandom(16).hex()


def new_span_id() -> str:
    """A fresh 64-bit span id as 16 lowercase hex chars."""
    return os.urandom(8).hex()


def valid_trace_id(value: object) -> bool:
    """Whether ``value`` is a well-formed trace id (for header parsing)."""
    return isinstance(value, str) and bool(_TRACE_ID_RE.match(value))


def valid_span_id(value: object) -> bool:
    return isinstance(value, str) and bool(_SPAN_ID_RE.match(value))


@dataclass(frozen=True)
class TraceContext:
    """One request's identity: where it is in the span tree."""

    trace_id: str
    span_id: str
    parent_span_id: Optional[str] = None

    def child(self) -> "TraceContext":
        """A child context: same trace, fresh span, this span as parent."""
        return replace(self, span_id=new_span_id(), parent_span_id=self.span_id)

    def as_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_span_id": self.parent_span_id,
        }


def mint(trace_id: Optional[str] = None) -> TraceContext:
    """A root context: given (or fresh) trace id, fresh span id, no parent."""
    return TraceContext(
        trace_id=trace_id if trace_id else new_trace_id(),
        span_id=new_span_id(),
    )


_CURRENT: "contextvars.ContextVar[Optional[TraceContext]]" = contextvars.ContextVar(
    "repro-trace-context", default=None
)


def current() -> Optional[TraceContext]:
    """The ambient trace context, or ``None`` outside any traced request."""
    return _CURRENT.get()


def current_trace_id() -> Optional[str]:
    """Just the trace id of the ambient context (the common log field)."""
    context = _CURRENT.get()
    return context.trace_id if context is not None else None


@contextmanager
def use(context: Optional[TraceContext]) -> Iterator[Optional[TraceContext]]:
    """Make ``context`` ambient for the duration of the block."""
    token = _CURRENT.set(context)
    try:
        yield context
    finally:
        _CURRENT.reset(token)
