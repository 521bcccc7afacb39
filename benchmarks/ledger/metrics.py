"""Metric names, units and the small statistics the ledger reports.

``END_TO_END`` and ``PER_LAYER`` are the contract with ``BENCHMARK.json``
at the repository root: a run emits every end-to-end metric (untraced)
or every per-layer metric (traced) under exactly these names and units.
A layer that a workload does not exercise, or that is not visible from
the workload's side of a process boundary, reports 0.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Sequence

#: User-visible metrics, all nonzero on every workload.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "p50_ms": "ms",
    "tail_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "branch_coverage": "ratio",
    "miss_rate_weighted": "ratio",
}

#: Tail percentile behind ``tail_ms``.  On oneshot-suite it is taken over
#: the 33 programs' median latencies (``OneshotSuite.tail_basis``), so it
#: lies between the second- and third-costliest program.  On edit-loop
#: and serve-mixed it leaves about 15 of the 150 samples of a default run
#: beyond it.  large-modules has 20-30 samples a run, one module in five
#: of each size; its p90 lies inside the largest size class, with 2 or 3
#: samples beyond it, so there ``tail_ms`` reads as the typical cost of a
#: 2000-instruction module rather than as a tail of its own.
TAIL_PERCENTILE = {
    "oneshot-suite": 95,
    "large-modules": 90,
    "edit-loop": 90,
    "serve-mixed": 90,
}

PERF_CACHES = (
    "intern_bound",
    "intern_range",
    "intern_rangeset",
    "from_ranges",
    "merge_weighted",
    "binop",
    "unop",
    "compare",
    "refine",
    "constant",
    "boolean",
    "engine_transfer",
    "summary_context",
)

#: Layers whose share of the traced wall time is reported.
SHARE_LAYERS = (
    "lang", "ir", "core", "diagnostics", "rendering",
    "incremental", "server", "loadgen", "harness",
)

PER_LAYER: Dict[str, str] = {
    "lang.lex_ms": "ms",
    "lang.parse_ms": "ms",
    "lang.lower_ms": "ms",
    "lang.tokens_per_s": "1/s",
    "ir.prepare_ms": "ms",
    "core.predict_ms": "ms",
    "core.rounds_per_module": "count",
    "core.pushes_per_instr": "count",
    "core.flow_edges_per_instr": "count",
    "core.expr_evals_per_instr": "count",
    "core.phi_evals_per_instr": "count",
    "core.sub_ops_per_instr": "count",
    "core.dedup_ratio": "ratio",
    "core.derivation_success_ratio": "ratio",
    **{
        f"core.perf.{cache}.{stat}": unit
        for cache in PERF_CACHES
        for stat, unit in (("hit_ratio", "ratio"), ("probes", "count"))
    },
    "heuristics.fallback_share": "ratio",
    "heuristics.fallbacks_per_module": "count",
    "diagnostics.check_ms": "ms",
    "rendering.ms": "ms",
    "incremental.driver_ms": "ms",
    "incremental.store_get_ms": "ms",
    "incremental.store_put_ms": "ms",
    "incremental.store_hit_ratio": "ratio",
    "incremental.reanalyzed_fn_ratio": "ratio",
    "incremental.replayed_component_ratio": "ratio",
    "server.memory_hit_ms_p50": "ms",
    "server.disk_hit_ms_p50": "ms",
    "server.fresh_ms_p50": "ms",
    "server.memory_hit_ratio": "ratio",
    "server.disk_hit_ratio": "ratio",
    "server.rejected_ratio": "ratio",
    "server.queue_high_water": "count",
    "server.shard_imbalance": "ratio",
    "loadgen.lateness_p95_ms": "ms",
    "loadgen.offered_rps": "1/s",
    **{f"{layer}.share": "ratio" for layer in SHARE_LAYERS},
    "observability.trace_overhead_ratio": "ratio",
}

UNITS = {**END_TO_END, **PER_LAYER}

#: Per-layer metrics for which more is better; for the rest, less is.
HIGHER_IS_BETTER = {
    "lang.tokens_per_s",
    "core.derivation_success_ratio",
    "incremental.store_hit_ratio",
    "incremental.replayed_component_ratio",
    "server.memory_hit_ratio",
    "server.disk_hit_ratio",
    "loadgen.offered_rps",
    *(f"core.perf.{cache}.hit_ratio" for cache in PERF_CACHES),
}


#: A rate that is an input of the run, not a speed: calibration leaves it alone.
NOT_CALIBRATED = {"loadgen.offered_rps"}


def calibrated(values: Dict[str, float], factor: float) -> Dict[str, float]:
    """Times times ``factor``, speeds divided by it (see ``calibrate.py``)."""
    out = {}
    for name, value in values.items():
        unit = UNITS[name]
        if name in NOT_CALIBRATED:
            out[name] = value
        elif unit in ("ms", "s"):
            out[name] = value * factor
        elif unit == "1/s":
            out[name] = value / factor
        else:
            out[name] = value
    return out


def percentile(values: Sequence[float], q: float) -> float:
    """Percentile ``q`` (0..100), interpolated between neighbours; 0.0 for no values.

    Interpolation, not nearest rank: where two neighbouring samples are
    far apart, as between module sizes, a nearest-rank percentile jumps
    from one to the other with the sample count.
    """
    if not values:
        return 0.0
    ordered = sorted(values)
    position = q / 100.0 * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def quartiles(values: Sequence[float]) -> List[float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)
