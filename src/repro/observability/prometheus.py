"""Prometheus text exposition for ``/metricsz``.

The serving daemon content-negotiates its metrics endpoint: JSON
(the metrics-schema document, unchanged) by default, and the Prometheus
text exposition format version 0.0.4 when the scraper asks for
``text/plain`` / OpenMetrics or appends ``?format=prometheus``.  This
module renders that text from the same
:meth:`repro.server.stats.ServerStats.snapshot` document the JSON path
serves -- one source of numbers, two encodings.

Exposed families (all prefixed ``repro_``):

=====================================  =======  ==========================
family                                 type     labels
=====================================  =======  ==========================
``repro_requests_total``               counter  ``endpoint``
``repro_request_errors_total``         counter  ``endpoint``
``repro_responses_total``              counter  ``status``
``repro_results_total``                counter  ``tier`` (memory/disk/fresh)
``repro_degraded_total``               counter  --
``repro_rejected_total``               counter  ``reason``
``repro_request_latency_seconds``      histogram ``endpoint`` (SLO buckets)
``repro_cache_entries``                gauge    ``tier``
``repro_cache_hits_total``             counter  ``tier``
``repro_cache_misses_total``           counter  ``tier``
``repro_queue_depth``                  gauge    --
``repro_queue_high_water``             gauge    --
``repro_shards``                       gauge    --
``repro_uptime_seconds``               gauge    --
=====================================  =======  ==========================

When the daemon runs with the incremental summary store (``repro serve
--incremental``, see ``docs/INCREMENTAL.md``), four more families are
emitted: ``repro_incremental_function_hits_total`` /
``repro_incremental_function_misses_total`` (functions replayed vs.
reanalyzed) and ``repro_incremental_store_hits_total`` /
``repro_incremental_store_misses_total`` (component lookups, by
``tier``).  Without the store the snapshot has no ``incremental`` key
and the exposition is unchanged.

When the snapshot comes from the daemon (it carries a ``shards``
list), per-shard families are appended, all labelled ``shard="0"..``:
``repro_shard_queue_depth`` / ``repro_shard_queue_high_water`` (gauges),
``repro_shard_served_total`` / ``repro_shard_restarts_total`` /
``repro_shard_cache_hits_total`` (counters, the last also by ``tier``),
``repro_shard_alive`` and ``repro_shard_cache_entries`` (gauges).  A
bare :meth:`~repro.server.stats.ServerStats.snapshot` has no ``shards``
key and renders only the unlabeled families.

Histogram buckets are the serving SLO boundaries
(:data:`repro.server.stats.LATENCY_BUCKETS_MS`, seconds here), rendered
cumulatively with the mandatory ``+Inf`` bucket, ``_sum`` and
``_count`` series -- everything a Prometheus server needs to compute
``histogram_quantile`` over scrapes.

The strict parser that validates this text in the test suite and the
CI scrape checks is ``tests/prometheus_parser.py``, outside the package.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Sequence, Tuple

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


class MetricFamily:
    """One ``# HELP``/``# TYPE`` block plus its samples, in order."""

    def __init__(self, name: str, kind: str, help_text: str):
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        self.name = name
        self.kind = kind  # "counter" | "gauge" | "histogram"
        self.help_text = help_text
        self.samples: List[Tuple[str, Dict[str, str], float]] = []

    def add(
        self, value: float, labels: Optional[Dict[str, str]] = None, suffix: str = ""
    ) -> None:
        self.samples.append((self.name + suffix, dict(labels or {}), float(value)))

    def render(self) -> str:
        lines = [
            f"# HELP {self.name} {self.help_text}",
            f"# TYPE {self.name} {self.kind}",
        ]
        for name, labels, value in self.samples:
            if labels:
                body = ",".join(
                    f'{key}="{_escape_label(str(val))}"'
                    for key, val in labels.items()
                )
                lines.append(f"{name}{{{body}}} {_format_value(value)}")
            else:
                lines.append(f"{name} {_format_value(value)}")
        return "\n".join(lines)


def _histogram_family(
    name: str,
    help_text: str,
    per_endpoint: Dict[str, dict],
    bucket_bounds_ms: Sequence[float],
) -> MetricFamily:
    """The per-endpoint latency histogram, cumulative, in seconds."""
    family = MetricFamily(name, "histogram", help_text)
    for endpoint, stats in sorted(per_endpoint.items()):
        histogram = stats.get("histogram", {})
        cumulative = 0
        for bound in bucket_bounds_ms:
            cumulative += int(histogram.get(f"le_{bound}ms", 0))
            family.add(
                cumulative,
                {"endpoint": endpoint, "le": _format_value(bound / 1000.0)},
                suffix="_bucket",
            )
        cumulative += int(histogram.get("le_inf", 0))
        family.add(
            cumulative, {"endpoint": endpoint, "le": "+Inf"}, suffix="_bucket"
        )
        family.add(
            float(stats.get("sum_ms", 0.0)) / 1000.0,
            {"endpoint": endpoint},
            suffix="_sum",
        )
        family.add(
            int(stats.get("count", 0)), {"endpoint": endpoint}, suffix="_count"
        )
    return family


def render_server_metrics(
    server: dict,
    uptime_s: Optional[float] = None,
    shards: Optional[int] = None,
) -> str:
    """The full exposition document for one ``ServerStats.snapshot()``.

    ``server`` is the metrics-schema ``server`` key: ``endpoints``,
    ``responses``, ``results``, ``degraded``, ``rejected``, plus the
    optional ``cache`` and ``queue`` sub-documents the daemon attaches.
    """
    from repro.server.stats import LATENCY_BUCKETS_MS

    families: List[MetricFamily] = []

    endpoints: Dict[str, dict] = server.get("endpoints", {})
    requests = MetricFamily(
        "repro_requests_total", "counter", "Requests finished, by endpoint."
    )
    errors = MetricFamily(
        "repro_request_errors_total",
        "counter",
        "Requests answered with HTTP status >= 400, by endpoint.",
    )
    for endpoint, stats in sorted(endpoints.items()):
        requests.add(int(stats.get("count", 0)), {"endpoint": endpoint})
        errors.add(int(stats.get("errors", 0)), {"endpoint": endpoint})
    families += [requests, errors]

    responses = MetricFamily(
        "repro_responses_total", "counter", "Responses sent, by HTTP status."
    )
    for status, count in sorted(server.get("responses", {}).items()):
        responses.add(int(count), {"status": str(status)})
    families.append(responses)

    results = MetricFamily(
        "repro_results_total",
        "counter",
        "Successful results, by cache tier (fresh = computed).",
    )
    for tier, count in sorted(server.get("results", {}).items()):
        results.add(int(count), {"tier": tier})
    families.append(results)

    degraded = MetricFamily(
        "repro_degraded_total",
        "counter",
        "Responses degraded to heuristics-only under deadline pressure.",
    )
    degraded.add(int(server.get("degraded", 0)))
    families.append(degraded)

    rejected = MetricFamily(
        "repro_rejected_total",
        "counter",
        "Requests refused before analysis, by reason.",
    )
    for reason, count in sorted(server.get("rejected", {}).items()):
        rejected.add(int(count), {"reason": reason})
    families.append(rejected)

    families.append(
        _histogram_family(
            "repro_request_latency_seconds",
            "Request latency by endpoint (SLO bucket boundaries).",
            endpoints,
            LATENCY_BUCKETS_MS,
        )
    )

    cache = server.get("cache")
    if isinstance(cache, dict):
        entries = MetricFamily(
            "repro_cache_entries", "gauge", "Result-cache entries resident, by tier."
        )
        hits = MetricFamily(
            "repro_cache_hits_total", "counter", "Result-cache hits, by tier."
        )
        misses = MetricFamily(
            "repro_cache_misses_total", "counter", "Result-cache misses, by tier."
        )
        for tier in ("memory", "disk"):
            tier_stats = cache.get(tier, {})
            if not isinstance(tier_stats, dict):
                continue
            if "entries" in tier_stats:
                entries.add(int(tier_stats["entries"]), {"tier": tier})
            hits.add(int(tier_stats.get("hits", 0)), {"tier": tier})
            misses.add(int(tier_stats.get("misses", 0)), {"tier": tier})
        families += [entries, hits, misses]

    incremental = server.get("incremental")
    if isinstance(incremental, dict):
        # Emitted only when the daemon runs with the incremental
        # summary store (repro.incremental); absent otherwise, so the
        # pre-incremental exposition is byte-for-byte unchanged.
        function_hits = MetricFamily(
            "repro_incremental_function_hits_total",
            "counter",
            "Functions replayed from the incremental summary store.",
        )
        function_hits.add(int(incremental.get("function_hits", 0)))
        function_misses = MetricFamily(
            "repro_incremental_function_misses_total",
            "counter",
            "Functions reanalyzed on incremental summary-store misses.",
        )
        function_misses.add(int(incremental.get("function_misses", 0)))
        store_hits = MetricFamily(
            "repro_incremental_store_hits_total",
            "counter",
            "Incremental summary-store component hits, by tier.",
        )
        store_misses = MetricFamily(
            "repro_incremental_store_misses_total",
            "counter",
            "Incremental summary-store component misses, by tier.",
        )
        for tier in ("memory", "disk"):
            tier_stats = incremental.get(tier) or {}
            store_hits.add(int(tier_stats.get("hits", 0)), {"tier": tier})
            store_misses.add(int(tier_stats.get("misses", 0)), {"tier": tier})
        families += [function_hits, function_misses, store_hits, store_misses]

    queue = server.get("queue")
    if isinstance(queue, dict):
        depth = MetricFamily(
            "repro_queue_depth", "gauge", "Jobs accepted and not yet finished."
        )
        depth.add(int(queue.get("depth", 0)))
        high_water = MetricFamily(
            "repro_queue_high_water",
            "gauge",
            "Deepest the waiting queue has ever been.",
        )
        high_water.add(int(queue.get("high_water", 0)))
        families += [depth, high_water]

    per_shard = server.get("shards")
    if isinstance(per_shard, list) and per_shard:
        # Per-shard families, emitted only when the snapshot carries a
        # "shards" key: without it the exposition is every family
        # above, all unlabeled-by-shard, byte-for-byte what it was
        # before sharding existed
        # (regression-tested in tests/observability/test_prometheus.py).
        shard_depth = MetricFamily(
            "repro_shard_queue_depth",
            "gauge",
            "Requests in flight on the shard (dispatched + waiting).",
        )
        shard_high_water = MetricFamily(
            "repro_shard_queue_high_water",
            "gauge",
            "Deepest the shard's bounded queue has ever been.",
        )
        shard_served = MetricFamily(
            "repro_shard_served_total",
            "counter",
            "Requests the shard process has answered.",
        )
        shard_alive = MetricFamily(
            "repro_shard_alive", "gauge", "1 when the shard process is alive."
        )
        shard_restarts = MetricFamily(
            "repro_shard_restarts_total",
            "counter",
            "Times the shard process was respawned after dying.",
        )
        shard_cache_entries = MetricFamily(
            "repro_shard_cache_entries",
            "gauge",
            "Shard-local memory-cache entries resident.",
        )
        shard_cache_hits = MetricFamily(
            "repro_shard_cache_hits_total",
            "counter",
            "Shard-local result-cache hits, by tier.",
        )
        for shard in per_shard:
            if not isinstance(shard, dict):
                continue
            label = {"shard": str(shard.get("shard", "?"))}
            queue_doc = shard.get("queue") or {}
            shard_depth.add(int(queue_doc.get("depth", 0)), label)
            shard_high_water.add(int(queue_doc.get("high_water", 0)), label)
            shard_served.add(int(shard.get("served", 0)), label)
            shard_alive.add(1 if shard.get("alive") else 0, label)
            shard_restarts.add(int(shard.get("restarts", 0)), label)
            cache_doc = shard.get("cache") or {}
            memory_doc = cache_doc.get("memory") or {}
            shard_cache_entries.add(int(memory_doc.get("entries", 0)), label)
            for tier in ("memory", "disk"):
                tier_doc = cache_doc.get(tier) or {}
                shard_cache_hits.add(
                    int(tier_doc.get("hits", 0)), dict(label, tier=tier)
                )
        families += [
            shard_depth, shard_high_water, shard_served, shard_alive,
            shard_restarts, shard_cache_entries, shard_cache_hits,
        ]

    if shards is not None:
        family = MetricFamily(
            "repro_shards", "gauge", "Analysis shard processes."
        )
        family.add(int(shards))
        families.append(family)
    if uptime_s is not None:
        family = MetricFamily(
            "repro_uptime_seconds", "gauge", "Daemon uptime."
        )
        family.add(float(uptime_s))
        families.append(family)

    return "\n".join(family.render() for family in families) + "\n"
