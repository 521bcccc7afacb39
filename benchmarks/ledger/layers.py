"""Timing calls into each layer, the traced spans, and work counts.

A :class:`Recorder` times one pass of a workload.  Every layer call goes
through :meth:`Recorder.call`, which times it with ``perf_counter`` and,
in a traced pass, also opens a benchmark-owned span named after the
layer (``lang.lex`` ... ``rendering``).  The engine's own spans nest
under these.  Each operation runs under a fresh trace id, so the spans
of one request share an identifier.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

from benchmarks.ledger.calibrate import Calibration
from benchmarks.ledger.metrics import PERF_CACHES, SHARE_LAYERS, ratio

#: Root span of a traced pass; ``ProfileReport`` takes its wall from it.
ROOT_SPAN = "profile"

#: Engine and server span names -> the layer they belong to.  Benchmark
#: spans are named ``<layer>.<call>``; the root and per-operation spans
#: are the harness's own.
ENGINE_SPAN_LAYERS = {
    "lex": "lang",
    "parse": "lang",
    "lower": "lang",
    "cfg-cleanup": "ir",
    "assert": "ir",
    "ssa": "ir",
    "predict": "core",
    "interprocedural-round": "core",
    "propagate": "core",
    "derive": "core",
    "check": "diagnostics",
    "request": "server",
    ROOT_SPAN: "harness",
}


def layer_of(span_name: str) -> str:
    if span_name in ENGINE_SPAN_LAYERS:
        return ENGINE_SPAN_LAYERS[span_name]
    if span_name.startswith("analysis:"):
        return "core"
    layer = span_name.split(".", 1)[0]
    return layer if layer in SHARE_LAYERS else "core"


class Recorder:
    """Layer timings and operation latencies of one pass."""

    def __init__(self, traced: bool = False, sample_period: float = 0.0):
        from repro.observability import Tracer

        self.tracer = Tracer(record_events=False) if traced else None
        self.calibration = Calibration()
        self.sample_period = sample_period
        self.seconds: Dict[str, float] = {}
        #: Operation latencies, less the time calibration samples took.
        self.latencies: List[float] = []
        #: Per operation: index of the kernel sample before it and of the first after it.
        self.brackets: List[Tuple[int, int]] = []
        self.wall = 0.0

    def _timed(self, started: float, spent: float) -> float:
        """Seconds since ``started``, less the sampling done since ``spent``."""
        return time.perf_counter() - started - (self.calibration.spent - spent)

    def call(self, layer: str, fn, *args, **kwargs):
        spent, started = self.calibration.spent, time.perf_counter()
        if self.tracer is None:
            result = fn(*args, **kwargs)
        else:
            with self.tracer.span(layer):
                result = fn(*args, **kwargs)
        self.seconds[layer] = self.seconds.get(layer, 0.0) + self._timed(started, spent)
        return result

    @contextmanager
    def op(self, name: str) -> Iterator[None]:
        """One timed operation (``harness.<name>`` span when traced).

        A calibration kernel sample precedes every operation, untimed.
        """
        self.calibration.sample()
        before = len(self.calibration.samples) - 1
        spent, started = self.calibration.spent, time.perf_counter()
        if self.tracer is None:
            yield
        else:
            from repro.observability import context as tracecontext

            with tracecontext.use(tracecontext.mint()), self.tracer.span(f"harness.{name}"):
                yield
        self.latencies.append(self._timed(started, spent))
        self.brackets.append((before, len(self.calibration.samples)))

    def calibrated_latencies(self) -> List[float]:
        """Each latency times the calibration factor around its operation."""
        return [
            latency * self.calibration.factor_over(first, last)
            for latency, (first, last) in zip(self.latencies, self.brackets)
        ]

    @contextmanager
    def running(self) -> Iterator[None]:
        """The whole pass: root span plus the active tracer when traced.

        Kernel samples are taken every ``sample_period`` seconds as well
        when that is set, and once after the pass, to close the bracket
        of its last operation.
        """
        started = time.perf_counter()
        with self.calibration.periodic(self.sample_period):
            if self.tracer is None:
                yield
            else:
                from repro.observability import tracer as tracing

                with tracing.use(self.tracer), self.tracer.span(ROOT_SPAN):
                    yield
        self.wall = time.perf_counter() - started
        self.calibration.sample()

    def mean_ms(self, layer: str) -> float:
        return 1000.0 * ratio(self.seconds.get(layer, 0.0), len(self.latencies))


class Work:
    """Exact engine work counts over a fixed prefix of a workload's operations."""

    def __init__(self):
        from repro.core.counters import Counters

        self.counters = Counters()
        self.modules = 0
        self.instructions = 0
        self.rounds = 0
        self.branches = 0
        self.fallbacks = 0
        self.perf = {cache: [0, 0] for cache in PERF_CACHES}

    def add(self, module, prediction, perf_snapshot: Optional[dict] = None) -> None:
        self.counters.merge(prediction.counters)
        self.modules += 1
        self.instructions += module.instruction_count()
        self.rounds += prediction.rounds
        self.branches += len(prediction.all_branches())
        self.fallbacks += len(prediction.heuristic_branches())
        for cache, stats in (perf_snapshot or {}).items():
            if cache in self.perf:
                self.perf[cache][0] += int(stats["hits"])
                self.perf[cache][1] += int(stats["misses"])

    def metrics(self) -> Dict[str, float]:
        c = self.counters
        instrs = self.instructions
        pushes = c.flow_pushes + c.ssa_pushes
        dedup = c.flow_dedup_hits + c.ssa_dedup_hits
        out = {
            "core.rounds_per_module": ratio(self.rounds, self.modules),
            "core.pushes_per_instr": ratio(pushes, instrs),
            "core.flow_edges_per_instr": ratio(c.flow_edges_processed, instrs),
            "core.expr_evals_per_instr": ratio(c.expr_evaluations, instrs),
            "core.phi_evals_per_instr": ratio(c.phi_evaluations, instrs),
            "core.sub_ops_per_instr": ratio(c.sub_operations, instrs),
            "core.dedup_ratio": ratio(dedup, pushes + dedup),
            "core.derivation_success_ratio": ratio(
                c.derivations_succeeded, c.derivations_attempted
            ),
            "heuristics.fallback_share": ratio(self.fallbacks, self.branches),
            "heuristics.fallbacks_per_module": ratio(self.fallbacks, self.modules),
        }
        for cache, (hits, misses) in self.perf.items():
            out[f"core.perf.{cache}.hit_ratio"] = ratio(hits, hits + misses)
            out[f"core.perf.{cache}.probes"] = hits + misses
        return out


def peak_rss_mb() -> float:
    """This process's peak resident memory so far."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def perf_stats_reset() -> None:
    from repro.core.perf import stats

    stats.reset_stats()


def profile(tracer, wall: float) -> Dict[str, object]:
    """Self-time table of a traced pass and each layer's share of ``wall``."""
    from repro.observability.profiler import ProfileReport

    report = ProfileReport.from_tracer(tracer, program="ledger")
    layers = {layer: 0.0 for layer in SHARE_LAYERS}
    for span in report.spans:
        layers[layer_of(span.name)] += span.self_seconds
    return {
        "wall_s": wall,
        "self_sum_s": report.self_seconds_total,
        "report": report,
        "shares": {f"{layer}.share": ratio(seconds, wall) for layer, seconds in layers.items()},
    }


def chrome_trace(tracer) -> dict:
    """A Chrome trace document: one track per root span, request ids in args."""
    from repro.observability import chrometrace

    closed = [span for span in tracer.spans if span.end is not None]
    origin = min((span.start for span in closed), default=0.0)
    events = [chrometrace.metadata_event("process_name", 1, "benchmarks.ledger")]
    track = {}
    roots = 0
    for span in closed:
        if span.parent is None:
            roots += 1
            track[span.index] = roots
            events.append(chrometrace.metadata_event("thread_name", 1, f"track-{roots}", tid=roots))
        else:
            track[span.index] = track.get(span.parent, 1)
        events.append(
            chrometrace.complete_event(
                span.name,
                round((span.start - origin) * 1e6, 1),
                round((span.end - span.start) * 1e6, 1),
                tid=track[span.index],
                args={"trace_id": span.trace_id} if span.trace_id else None,
            )
        )
    return chrometrace.chrome_trace_document(events)
