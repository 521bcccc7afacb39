"""Serving telemetry: request counts, latency histograms, cache tiers.

Everything here is observational -- the numbers feed ``/metricsz`` (as
the metrics schema v5 ``server`` key) and never influence request
handling.  The histogram uses fixed cumulative-friendly bucket bounds
in milliseconds so two snapshots can be subtracted and merged without
rebinning.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, List, Optional

#: Upper bounds (ms) of the latency histogram buckets; the last bucket
#: is unbounded ("+inf"), Prometheus-style.
LATENCY_BUCKETS_MS = (1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000)

#: Clamp for the computed ``Retry-After`` header: never tell a client to
#: come back in zero seconds (it would hammer a saturated daemon) and
#: never park it for more than a minute (queues drain in seconds here).
RETRY_AFTER_FLOOR_S = 1
RETRY_AFTER_CEILING_S = 60


def compute_retry_after(
    queue_depth: int,
    drain_per_second: float,
    floor: int = RETRY_AFTER_FLOOR_S,
    ceiling: int = RETRY_AFTER_CEILING_S,
) -> int:
    """Seconds a 503'd client should wait before retrying.

    The estimate is the time the current backlog needs to drain at the
    observed service rate: ``depth / rate``, rounded up and clamped to
    ``[floor, ceiling]``.  With no rate observed yet (a cold daemon
    rejecting its very first burst) the floor is the honest answer --
    there is nothing to extrapolate from -- and the ceiling keeps a
    nearly-stuck queue from quoting an absurd wait.
    """
    if floor < 0 or ceiling < floor:
        raise ValueError("need 0 <= floor <= ceiling")
    if queue_depth <= 0 or drain_per_second <= 0.0:
        return floor
    seconds = math.ceil(queue_depth / drain_per_second)
    return max(floor, min(ceiling, seconds))


class _EndpointStats:
    __slots__ = ("count", "errors", "buckets", "overflow", "sum_ms", "max_ms")

    def __init__(self) -> None:
        self.count = 0
        self.errors = 0
        self.buckets = [0] * len(LATENCY_BUCKETS_MS)
        self.overflow = 0
        self.sum_ms = 0.0
        self.max_ms = 0.0

    def record(self, status: int, elapsed_ms: float) -> None:
        self.count += 1
        if status >= 400:
            self.errors += 1
        self.sum_ms += elapsed_ms
        self.max_ms = max(self.max_ms, elapsed_ms)
        for index, bound in enumerate(LATENCY_BUCKETS_MS):
            if elapsed_ms <= bound:
                self.buckets[index] += 1
                return
        self.overflow += 1

    def as_dict(self) -> dict:
        histogram = {
            f"le_{bound}ms": value
            for bound, value in zip(LATENCY_BUCKETS_MS, self.buckets)
        }
        histogram["le_inf"] = self.overflow
        return {
            "count": self.count,
            "errors": self.errors,
            "sum_ms": round(self.sum_ms, 3),
            "max_ms": round(self.max_ms, 3),
            "mean_ms": round(self.sum_ms / self.count, 3) if self.count else 0.0,
            "histogram": histogram,
        }


class ServerStats:
    """Thread-safe accumulator for the daemon's request telemetry."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._endpoints: Dict[str, _EndpointStats] = {}
        self._responses: Dict[str, int] = {}
        self._cached: Dict[str, int] = {"memory": 0, "disk": 0, "fresh": 0}
        self._degraded = 0
        self._rejected: Dict[str, int] = {}

    def record_request(
        self,
        endpoint: str,
        status: int,
        elapsed_ms: float,
        cached: Optional[str] = None,
        degraded: bool = False,
    ) -> None:
        """One finished request (any status, including errors)."""
        with self._lock:
            stats = self._endpoints.setdefault(endpoint, _EndpointStats())
            stats.record(status, elapsed_ms)
            key = str(status)
            self._responses[key] = self._responses.get(key, 0) + 1
            if status < 400:
                tier = cached if cached in ("memory", "disk") else "fresh"
                self._cached[tier] += 1
            if degraded:
                self._degraded += 1

    def record_rejected(self, reason: str) -> None:
        """A request refused before analysis (queue_full, too_large...)."""
        with self._lock:
            self._rejected[reason] = self._rejected.get(reason, 0) + 1

    @property
    def degraded(self) -> int:
        with self._lock:
            return self._degraded

    def drain_rate(self, shards: int) -> float:
        """Analysis requests finished per second, extrapolated.

        The estimate behind the computed ``Retry-After`` header: mean
        observed latency over the *analysis* endpoints (``/v1/...``
        only -- ``/healthz`` answers in microseconds and would wildly
        inflate the rate) scaled by the number of shard processes.
        Returns 0.0 before the first analysis completes.
        """
        with self._lock:
            count = 0
            sum_ms = 0.0
            for endpoint, stats in self._endpoints.items():
                if endpoint.startswith("/v1/"):
                    count += stats.count
                    sum_ms += stats.sum_ms
        if count == 0 or sum_ms <= 0.0:
            return 0.0
        return max(1, shards) * 1000.0 * count / sum_ms

    def retry_after(self, queue_depth: int, shards: int) -> int:
        """The ``Retry-After`` seconds for a backpressure 503."""
        return compute_retry_after(queue_depth, self.drain_rate(shards))

    def snapshot(
        self,
        cache_stats: Optional[dict] = None,
        queue_depth: Optional[int] = None,
        queue_high_water: Optional[int] = None,
        tracer_summary: Optional[dict] = None,
        shards: Optional[List[dict]] = None,
        incremental: Optional[dict] = None,
    ) -> dict:
        """The metrics schema v5 ``server`` document fragment.

        ``tracer_summary`` must be gathered by the caller *under its
        own tracer lock* (see :meth:`ShardedServer.tracer_summary`):
        handing the live tracer here raced against concurrent
        ``emit()`` calls mutating ``event_counts`` mid-iteration.
        """
        with self._lock:
            out: Dict[str, object] = {
                "endpoints": {
                    name: stats.as_dict()
                    for name, stats in sorted(self._endpoints.items())
                },
                "responses": dict(sorted(self._responses.items())),
                "results": dict(self._cached),
                "degraded": self._degraded,
                "rejected": dict(sorted(self._rejected.items())),
            }
        if cache_stats is not None:
            out["cache"] = cache_stats
        if queue_depth is not None:
            out["queue"] = {
                "depth": queue_depth,
                "high_water": queue_high_water or 0,
            }
        if tracer_summary is not None:
            out["tracer"] = tracer_summary
        if shards is not None:
            # Per-shard documents: queue depth / high water, the
            # shard's cache stats, liveness.  Without them the snapshot
            # (and the unlabeled Prometheus series rendered from it) is
            # byte-for-byte what it was before sharding existed.
            out["shards"] = [dict(shard) for shard in shards]
        if incremental is not None:
            # The incremental summary store's counters (function hits /
            # misses, tier traffic); absent unless the daemon runs with
            # the store, so pre-incremental snapshots are unchanged.
            out["incremental"] = dict(incremental)
        return out
