"""Machine-readable metrics for one analysis run.

A :class:`MetricsReport` aggregates the three observability products --
work counters, span phase timings, and per-branch provenance -- into a
stable JSON document.  The evaluation harness and the ``benchmarks/``
suite write these as ``BENCH_*.json`` files so figures can be
post-processed by tools instead of scraped from tables.

The top-level keys (``SCHEMA_KEYS``) are the dataclass fields, with
``schema_version`` first; ``docs/OBSERVABILITY.md`` describes what
each holds and the schema version that added it.  Only ``REQUIRED_KEYS``
must be present: the others are absent from documents written by older
schema versions, which still validate.

Each branch record has ``function``, ``label``, ``probability``,
``source`` ("ranges" or "heuristic"), and -- when a recording tracer
was active -- ``cond``, ``cond_range``, ``cmp_op``, ``operands`` and
``heuristics`` (the Ball-Larus chain with per-heuristic estimates).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Tuple

from repro.observability.events import BranchResolution, HeuristicChain

SCHEMA_VERSION = 8

#: Keys every report carries, whatever its schema version.
REQUIRED_KEYS = ("schema_version", "program", "phases", "counters", "branches", "meta")

BRANCH_KEYS = ("function", "label", "probability", "source")


@dataclass
class MetricsReport:
    """Aggregated, serialisable metrics of one analysis run."""

    program: str
    phases: Dict[str, Dict[str, float]] = field(default_factory=dict)
    counters: Dict[str, int] = field(default_factory=dict)
    branches: List[dict] = field(default_factory=list)
    diagnostics: List[dict] = field(default_factory=list)
    perf: Dict[str, dict] = field(default_factory=dict)
    passes: Dict[str, object] = field(default_factory=dict)
    server: Dict[str, object] = field(default_factory=dict)
    profile: Dict[str, object] = field(default_factory=dict)
    tracing: Dict[str, object] = field(default_factory=dict)
    interprocedural: Dict[str, object] = field(default_factory=dict)
    incremental: Dict[str, object] = field(default_factory=dict)
    meta: Dict[str, object] = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION

    # -- serialisation -------------------------------------------------------

    def to_dict(self) -> dict:
        return {key: getattr(self, key) for key in SCHEMA_KEYS}

    def to_json(self, indent: int = 1) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "MetricsReport":
        return cls(**{key: data[key] for key in SCHEMA_KEYS if key in data})

    @classmethod
    def from_json(cls, text: str) -> "MetricsReport":
        return cls.from_dict(json.loads(text))

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json() + "\n")

    @classmethod
    def read(cls, path: str) -> "MetricsReport":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())


SCHEMA_KEYS = ("schema_version",) + tuple(
    spec.name for spec in fields(MetricsReport) if spec.name != "schema_version"
)

#: Keys a report may omit.
OPTIONAL_KEYS = tuple(key for key in SCHEMA_KEYS if key not in REQUIRED_KEYS)


def branch_provenance(tracer) -> Tuple[Dict[tuple, BranchResolution],
                                        Dict[tuple, HeuristicChain]]:
    """The final :class:`BranchResolution` and :class:`HeuristicChain` per
    ``(function, label)`` a tracer recorded; empty without one.

    A branch resolves again whenever its probability moves, so later
    events overwrite earlier ones: the last one describes the final
    prediction.
    """
    if tracer is None:
        return {}, {}
    resolutions = {(e.function, e.label): e for e in tracer.events_of(BranchResolution)}
    chains = {(e.function, e.label): e for e in tracer.events_of(HeuristicChain)}
    return resolutions, chains


def build_metrics_report(
    prediction,
    tracer=None,
    program: str = "module",
    findings=None,
    perf_stats=None,
    passes=None,
    server_stats=None,
    profile=None,
    incremental=None,
) -> "MetricsReport":
    """Assemble a report from a :class:`ModulePrediction` and a tracer.

    Works with a disabled (or absent) tracer: phase timings come out
    empty and branch provenance degrades to probability + source, both
    reconstructable from the prediction alone.  ``findings`` (an
    iterable of :class:`repro.diagnostics.Finding`) populates the
    ``diagnostics`` key when ``repro check`` is the caller;
    ``perf_stats`` (a ``repro.core.perf.snapshot()`` dict) populates
    the ``perf`` key when the perf layer was on for the run;
    ``passes`` (a :meth:`repro.passes.PipelineResult.passes_metrics`
    dict) populates the ``passes`` key when a pass pipeline drove the
    analysis; ``server_stats`` (a ``repro.server.ServerStats.snapshot()``
    dict) populates the ``server`` key when the serving daemon is the
    caller; ``profile`` (a
    :meth:`repro.observability.profiler.ProfileReport.as_metrics` dict)
    populates the ``profile`` key when ``repro profile`` is the caller.
    ``incremental`` (an
    :meth:`repro.incremental.IncrementalOutcome.as_metrics` dict)
    populates the ``incremental`` key when the incremental driver ran.
    The ``tracing`` key fills itself from the ambient trace context
    (``repro.observability.context``) when one is active, and the
    ``interprocedural`` key from the prediction's fixed-point telemetry
    when the module driver produced one (absent on single-function runs).
    """
    from repro.observability import context as tracecontext
    phases: Dict[str, Dict[str, float]] = {}
    meta: Dict[str, object] = {
        "rounds": getattr(prediction, "rounds", 1),
        "functions": len(prediction.functions),
        "aborted_functions": sorted(
            name
            for name, function_prediction in prediction.functions.items()
            if function_prediction.aborted
        ),
    }
    provenance, chains = branch_provenance(tracer)
    if tracer is not None and tracer.enabled:
        for name, timing in tracer.phase_timings().items():
            phases[name] = {"count": timing.count, "seconds": timing.seconds}
        meta["event_counts"] = dict(tracer.event_counts)
        meta["dropped_events"] = tracer.dropped_events

    heuristic_branches = prediction.heuristic_branches()
    branches: List[dict] = []
    for (function, label), probability in sorted(prediction.all_branches().items()):
        record: dict = {
            "function": function,
            "label": label,
            "probability": probability,
            "source": (
                "heuristic" if (function, label) in heuristic_branches else "ranges"
            ),
        }
        resolution = provenance.get((function, label))
        if resolution is not None:
            record["cond"] = resolution.cond
            record["cond_range"] = resolution.cond_range
            record["cmp_op"] = resolution.cmp_op
            record["operands"] = [list(pair) for pair in resolution.operands]
        chain = chains.get((function, label))
        if chain is not None:
            record["heuristics"] = [list(pair) for pair in chain.chain]
        branches.append(record)

    tracing: Dict[str, object] = {}
    context = tracecontext.current()
    if context is not None:
        tracing = {"trace_id": context.trace_id, "span_id": context.span_id}
        if tracer is not None and tracer.enabled:
            tracing["spans"] = len(tracer.spans)

    return MetricsReport(
        program=program,
        phases=phases,
        counters=prediction.counters.as_dict(),
        branches=branches,
        diagnostics=[f.as_dict() for f in findings] if findings else [],
        perf=perf_stats or {},
        passes=passes or {},
        server=server_stats or {},
        profile=profile or {},
        tracing=tracing,
        interprocedural=getattr(prediction, "interprocedural", None) or {},
        incremental=incremental or {},
        meta=meta,
    )


def validate_report_dict(data: dict) -> Optional[str]:
    """Schema check; returns an error message or None when valid."""
    for key in REQUIRED_KEYS:
        if key not in data:
            return f"missing top-level key {key!r}"
    if not isinstance(data["schema_version"], int):
        return "schema_version must be an integer"
    for record in data["branches"]:
        for key in BRANCH_KEYS:
            if key not in record:
                return f"branch record missing key {key!r}"
    return None
