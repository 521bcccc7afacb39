"""Machine-readable metrics for one analysis run.

A :class:`MetricsReport` aggregates the three observability products --
work counters, span phase timings, and per-branch provenance -- into a
stable JSON document (schema documented in ``docs/OBSERVABILITY.md``).
The evaluation harness and the ``benchmarks/`` suite write these as
``BENCH_*.json`` files so figures can be post-processed by tools
instead of scraped from tables.

Top-level schema keys (``SCHEMA_KEYS``):

* ``schema_version`` -- integer, currently 8;
* ``program``        -- module/workload name;
* ``phases``         -- {span name: {"count": int, "seconds": float}};
* ``counters``       -- the :class:`repro.core.counters.Counters` dict;
* ``branches``       -- list of per-branch provenance records;
* ``diagnostics``    -- findings from ``repro check`` (since v2; absent
  in v1 documents, which still validate);
* ``perf``           -- cache hit/miss statistics from the perf layer
  (since v3; absent when the layer is disabled, older documents still
  validate);
* ``passes``         -- pass-manager telemetry from ``repro opt``
  (since v4; ``pipeline`` order, per-pass wall time / rewrite counts /
  cache traffic under ``runs``, per-analysis hit/miss/invalidation
  totals under ``analyses``; absent outside pipeline runs, v1-v3
  documents still validate);
* ``server``         -- serving-daemon telemetry from ``repro serve``
  (since v5; per-endpoint request/latency histograms, result-cache
  hit/miss per tier, degraded/rejected counts; absent outside the
  daemon, v1-v4 documents still validate);
* ``profile``        -- profiler output from ``repro profile`` (since
  v6; per-span self/cumulative seconds and counts, hot transfer
  functions, wall time; absent outside profiled runs, v1-v5 documents
  still validate);
* ``tracing``        -- request-trace correlation (since v6; the
  ``trace_id`` of the run plus span totals; absent when no trace
  context was active, v1-v5 documents still validate);
* ``interprocedural`` -- fixed-point telemetry from the module driver
  (since v7; rounds vs the round cap, convergence, context depth,
  contexts analysed, summary-cache hit/miss/eviction stats; absent on
  single-function runs, v1-v6 documents still validate);
* ``incremental``    -- incremental-analysis telemetry (since v8;
  functions reanalyzed vs replayed, component-level splits, store
  hit/miss/eviction counts; absent outside ``--incremental`` runs,
  v1-v7 documents still validate);
* ``meta``           -- rounds, function/event totals, drop counts.

Each branch record has ``function``, ``label``, ``probability``,
``source`` ("ranges" or "heuristic"), and -- when a recording tracer
was active -- ``cond``, ``cond_range``, ``cmp_op``, ``operands`` and
``heuristics`` (the Ball-Larus chain with per-heuristic estimates).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.observability.events import BranchResolution, HeuristicChain

SCHEMA_VERSION = 8

SCHEMA_KEYS = (
    "schema_version",
    "program",
    "phases",
    "counters",
    "branches",
    "diagnostics",
    "perf",
    "passes",
    "server",
    "profile",
    "tracing",
    "interprocedural",
    "incremental",
    "meta",
)

# Keys a report may omit (documents written by older schema versions,
# runs with the perf layer disabled, non-pipeline or non-daemon runs).
OPTIONAL_KEYS = (
    "diagnostics",
    "perf",
    "passes",
    "server",
    "profile",
    "tracing",
    "interprocedural",
    "incremental",
)

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
        return {
            "schema_version": self.schema_version,
            "program": self.program,
            "phases": self.phases,
            "counters": self.counters,
            "branches": self.branches,
            "diagnostics": self.diagnostics,
            "perf": self.perf,
            "passes": self.passes,
            "server": self.server,
            "profile": self.profile,
            "tracing": self.tracing,
            "interprocedural": self.interprocedural,
            "incremental": self.incremental,
            "meta": self.meta,
        }

    def to_json(self, indent: int = 1) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "MetricsReport":
        return cls(
            program=data["program"],
            phases=data.get("phases", {}),
            counters=data.get("counters", {}),
            branches=data.get("branches", []),
            diagnostics=data.get("diagnostics", []),
            perf=data.get("perf", {}),
            passes=data.get("passes", {}),
            server=data.get("server", {}),
            profile=data.get("profile", {}),
            tracing=data.get("tracing", {}),
            interprocedural=data.get("interprocedural", {}),
            incremental=data.get("incremental", {}),
            meta=data.get("meta", {}),
            schema_version=data.get("schema_version", SCHEMA_VERSION),
        )

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
    for key in SCHEMA_KEYS:
        if key not in data and key not in OPTIONAL_KEYS:
            return f"missing top-level key {key!r}"
    if not isinstance(data["schema_version"], int):
        return "schema_version must be an integer"
    for record in data["branches"]:
        for key in BRANCH_KEYS:
            if key not in record:
                return f"branch record missing key {key!r}"
    return None
