"""Per-pass / per-analysis profiler (the engine behind ``repro profile``).

One profiled run executes a pass pipeline under a recording tracer
inside a single root span, then turns the span tree into the three
classic profiler products:

* a **self/cumulative table** -- per span name: invocation count,
  cumulative seconds (time inside spans of that name) and self seconds
  (cumulative minus time inside child spans), so a pass's own cost
  separates from the analyses it demanded.  Self times partition the
  root span exactly: ``sum(self) == wall`` up to float rounding, which
  is the invariant ``repro profile`` prints and CI asserts;
* **hot transfer functions** -- per analysed function: worklist pops
  and lattice transitions from the engine's event stream, i.e. where
  the fixed-point iteration actually spun;
* **collapsed stacks** -- ``root;parent;child <microseconds>`` lines,
  the interchange format of ``flamegraph.pl`` and speedscope, weighted
  by self time.

Everything derives from the tracer's existing span hooks (the pass
manager's ``pass:<name>`` spans, the analysis cache's
``analysis:<name>`` spans, the engine's phase spans) -- profiling adds
no new instrumentation to the hot paths, so work counts stay
byte-identical to the seed when the profiler is not running.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.observability.tracer import Tracer

#: Root span wrapping one profiled run.
ROOT_SPAN = "profile"

#: Event kinds counted as "the engine evaluated a transfer function".
HOT_EVENT_KINDS = ("worklist.pop", "lattice.transition")


@dataclass
class SpanProfile:
    """Aggregate of every span sharing one name."""

    name: str
    count: int = 0
    self_seconds: float = 0.0
    cum_seconds: float = 0.0


@dataclass
class ProfileReport:
    """Everything one profiled run produced."""

    program: str
    wall_seconds: float
    spans: List[SpanProfile] = field(default_factory=list)
    hot_functions: List[Tuple[str, int]] = field(default_factory=list)
    collapsed: Dict[str, int] = field(default_factory=dict)
    pipeline: List[str] = field(default_factory=list)

    @property
    def self_seconds_total(self) -> float:
        return sum(profile.self_seconds for profile in self.spans)

    # -- construction --------------------------------------------------------

    @classmethod
    def from_tracer(
        cls,
        tracer: Tracer,
        program: str = "module",
        pipeline: Optional[Sequence[str]] = None,
    ) -> "ProfileReport":
        """Aggregate a recording tracer's spans and events."""
        closed = [span for span in tracer.spans if span.end is not None]
        # Self time: a span's duration minus its direct children's.
        child_seconds = [0.0] * len(tracer.spans)
        for span in closed:
            if span.parent is not None:
                child_seconds[span.parent] += span.seconds

        by_name: Dict[str, SpanProfile] = {}
        collapsed: Dict[str, int] = {}
        stacks: Dict[int, str] = {}
        wall = 0.0
        for span in closed:
            if span.name == ROOT_SPAN and span.parent is None:
                wall += span.seconds
            profile = by_name.setdefault(span.name, SpanProfile(span.name))
            profile.count += 1
            profile.cum_seconds += span.seconds
            self_seconds = max(0.0, span.seconds - child_seconds[span.index])
            profile.self_seconds += self_seconds
            if span.parent is not None and span.parent in stacks:
                stack = stacks[span.parent] + ";" + span.name
            else:
                stack = span.name
            stacks[span.index] = stack
            collapsed[stack] = collapsed.get(stack, 0) + int(self_seconds * 1e6)
        if wall == 0.0 and closed:
            # No explicit root span: fall back to top-level span total.
            wall = sum(s.seconds for s in closed if s.parent is None)

        hot: Dict[str, int] = {}
        for event in tracer.events:
            if event.kind in HOT_EVENT_KINDS:
                function = getattr(event, "function", None)
                if function:
                    hot[function] = hot.get(function, 0) + 1

        ordered = sorted(
            by_name.values(), key=lambda p: (-p.self_seconds, p.name)
        )
        hot_ordered = sorted(hot.items(), key=lambda item: (-item[1], item[0]))
        return cls(
            program=program,
            wall_seconds=wall,
            spans=ordered,
            hot_functions=hot_ordered,
            collapsed=collapsed,
            pipeline=list(pipeline or []),
        )

    # -- renderings ----------------------------------------------------------

    def render_text(self, top: int = 10) -> str:
        """The human table ``repro profile`` prints."""
        lines = [f"profile of {self.program}  (pipeline: "
                 f"{' -> '.join(self.pipeline) if self.pipeline else 'predict'})",
                 "",
                 f"{'span':<24s} {'count':>6s} {'self s':>10s} {'cum s':>10s} "
                 f"{'self %':>7s}"]
        wall = self.wall_seconds or 1e-12
        for profile in self.spans:
            lines.append(
                f"{profile.name:<24s} {profile.count:>6d} "
                f"{profile.self_seconds:>10.6f} {profile.cum_seconds:>10.6f} "
                f"{100.0 * profile.self_seconds / wall:>6.1f}%"
            )
        lines.append("")
        lines.append(
            f"wall: {self.wall_seconds:.6f}s   "
            f"self-time sum: {self.self_seconds_total:.6f}s"
        )
        if self.hot_functions:
            lines.append("")
            lines.append(f"hot functions (transfer evaluations, top {top}):")
            for name, count in self.hot_functions[:top]:
                lines.append(f"  {name:<24s} {count:>8d}")
        return "\n".join(lines) + "\n"

    def render_collapsed(self) -> str:
        """flamegraph.pl / speedscope collapsed-stack lines."""
        lines = [
            f"{stack} {value}"
            for stack, value in sorted(self.collapsed.items())
            if value > 0
        ]
        return "\n".join(lines) + "\n" if lines else ""

    def as_metrics(self) -> dict:
        """The metrics schema v6 ``profile`` document fragment."""
        return {
            "wall_seconds": self.wall_seconds,
            "self_seconds_total": self.self_seconds_total,
            "pipeline": self.pipeline,
            "spans": [
                {
                    "name": profile.name,
                    "count": profile.count,
                    "self_seconds": profile.self_seconds,
                    "cum_seconds": profile.cum_seconds,
                }
                for profile in self.spans
            ],
            "hot_functions": [
                {"function": name, "evaluations": count}
                for name, count in self.hot_functions
            ],
        }


@dataclass
class ProfileSession:
    """A profiled run: the report plus the raw tracer and prediction."""

    report: ProfileReport
    tracer: Tracer
    module: object
    prediction: object


def profile_source(
    source: str,
    module_name: str = "module",
    config=None,
    pipeline="predict",
    passes: Optional[Sequence[str]] = None,
    max_events: int = 1_000_000,
) -> ProfileSession:
    """Compile and run a pass pipeline under the profiler.

    ``pipeline`` and ``passes`` choose the pipeline as
    :meth:`~repro.passes.PassPipeline.select` does; ``pipeline`` may
    also be a :class:`~repro.passes.PassPipeline` built already.  The
    whole run -- front end, SSA preparation, every pass, every demanded
    analysis -- happens inside one ``profile`` root span on a recording
    tracer, so self times partition the wall time exactly.
    """
    from repro.ir import prepare_module
    from repro.lang import compile_source
    from repro.observability import tracer as tracing
    from repro.passes.pipeline import PassPipeline

    if not isinstance(pipeline, PassPipeline):
        pipeline = PassPipeline.select(pipeline, passes, config)
    tracer = Tracer(record_events=True, max_events=max_events)
    with tracing.use(tracer), tracer.span(ROOT_SPAN):
        module = compile_source(source, module_name=module_name)
        result = pipeline.run(module, prepare_module(module))
        prediction = result.cache.prediction()
    report = ProfileReport.from_tracer(
        tracer,
        program=module.name,
        pipeline=[pass_.name for pass_ in pipeline.passes],
    )
    return ProfileSession(
        report=report, tracer=tracer, module=module, prediction=prediction
    )
