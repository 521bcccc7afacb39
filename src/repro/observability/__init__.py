"""End-to-end observability: traces, logs, metrics, and profiling.

* :mod:`repro.observability.tracer`  -- span timing + event stream
  (:class:`Tracer` / :class:`NullTracer`, ``active()`` / ``use()``);
* :mod:`repro.observability.context` -- trace_id/span_id propagation
  (:class:`TraceContext`, the ``X-Repro-Trace-Id`` header);
* :mod:`repro.observability.events`  -- the event taxonomy;
* :mod:`repro.observability.logging` -- structured JSON log lines with
  trace correlation (the serving daemon's access log);
* :mod:`repro.observability.metrics` -- :class:`MetricsReport`, the
  JSON export consumed by the harness and the benchmarks;
* :mod:`repro.observability.prometheus` -- Prometheus text exposition
  for ``GET /metricsz``;
* :mod:`repro.observability.chrometrace` -- Chrome trace-event JSON
  export (``about:tracing`` / Perfetto);
* :mod:`repro.observability.profiler` -- per-pass/per-analysis
  self/cumulative profiling and collapsed stacks (``repro profile``);
* :mod:`repro.observability.explain` -- "why is this branch 87.5%?".

The phase spans (lex/parse/lower, cfg-cleanup/assert/ssa, predict/
propagate/derive) open on the active tracer in the stages themselves,
so running any command under ``use(Tracer())`` records the whole path.

``explain`` and ``profiler`` depend on the analysis layers, while the
engine itself imports the tracer from here -- they are loaded lazily
(PEP 562) to keep ``repro.core`` -> ``repro.observability`` acyclic.
"""

from repro.observability.events import (
    EVENT_KINDS,
    BranchResolution,
    DerivationAttempt,
    DiagnosticFinding,
    HeuristicChain,
    LatticeTransition,
    PassBegin,
    PassEnd,
    PhiMerge,
    PiRefinement,
    ServerRequestBegin,
    ServerRequestEnd,
    TraceEvent,
    WorklistPop,
    WorklistPush,
)
from repro.observability.context import (
    TRACE_HEADER,
    TraceContext,
    current_trace_id,
    mint,
    new_span_id,
    new_trace_id,
)
from repro.observability.metrics import (
    SCHEMA_KEYS,
    SCHEMA_VERSION,
    MetricsReport,
    build_metrics_report,
    validate_report_dict,
)
from repro.observability.tracer import (
    NULL_TRACER,
    NullTracer,
    PhaseTiming,
    SpanRecord,
    Tracer,
    active,
    use,
)

_LAZY = {
    "BranchExplanation": "repro.observability.explain",
    "explain_branch": "repro.observability.explain",
    "explain_module": "repro.observability.explain",
    "ProfileReport": "repro.observability.profiler",
    "ProfileSession": "repro.observability.profiler",
    "profile_source": "repro.observability.profiler",
    "JsonFormatter": "repro.observability.logging",
    "configure_json_logging": "repro.observability.logging",
    "get_logger": "repro.observability.logging",
    "log_event": "repro.observability.logging",
    "chrome_trace_document": "repro.observability.chrometrace",
    "validate_chrome_trace": "repro.observability.chrometrace",
    "write_chrome_trace": "repro.observability.chrometrace",
    "render_server_metrics": "repro.observability.prometheus",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


__all__ = [
    "EVENT_KINDS",
    "NULL_TRACER",
    "SCHEMA_KEYS",
    "SCHEMA_VERSION",
    "TRACE_HEADER",
    "BranchExplanation",
    "BranchResolution",
    "DerivationAttempt",
    "DiagnosticFinding",
    "HeuristicChain",
    "JsonFormatter",
    "LatticeTransition",
    "MetricsReport",
    "NullTracer",
    "PassBegin",
    "PassEnd",
    "PhaseTiming",
    "PhiMerge",
    "PiRefinement",
    "ProfileReport",
    "ProfileSession",
    "ServerRequestBegin",
    "ServerRequestEnd",
    "SpanRecord",
    "TraceContext",
    "TraceEvent",
    "Tracer",
    "WorklistPop",
    "WorklistPush",
    "active",
    "build_metrics_report",
    "chrome_trace_document",
    "configure_json_logging",
    "current_trace_id",
    "explain_branch",
    "explain_module",
    "get_logger",
    "log_event",
    "mint",
    "new_span_id",
    "new_trace_id",
    "profile_source",
    "render_server_metrics",
    "use",
    "validate_chrome_trace",
    "validate_report_dict",
    "write_chrome_trace",
]
