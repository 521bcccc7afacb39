"""Hit/miss counters for the perf layer's caches.

One process-global :class:`PerfStats` instance tallies every cache in
the layer; each :class:`~repro.core.perf.memo.LRUCache` binds its
:class:`CacheStats` entry once.  :meth:`repro.core.predictor.VRPPredictor.
predict_module` zeroes the counters (not the caches, whose contents
persist across runs) at the start of each run, so a snapshot taken after
a run describes exactly that run.
"""

from __future__ import annotations

from typing import Dict


class CacheStats:
    """Hits/misses/evictions of one cache."""

    __slots__ = ("hits", "misses", "evictions")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": round(self.hit_rate(), 6),
        }

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0


# Cache names, one CacheStats each: the hash-consing table and the memos
# of core/perf/memo.py, and the interprocedural (function, context) →
# return-range memo ("summary_context") of core/interprocedural.py.
CACHE_NAMES = (
    "intern_rangeset",
    "from_ranges",
    "merge_weighted",
    "binop",
    "compare",
    "refine",
    "constant",
    "boolean",
    "summary_context",
)


class PerfStats:
    """All cache statistics of the perf layer."""

    __slots__ = ("caches",)

    def __init__(self) -> None:
        self.caches: Dict[str, CacheStats] = {
            name: CacheStats() for name in CACHE_NAMES
        }

    def reset(self) -> None:
        for cache in self.caches.values():
            cache.reset()

    def as_dict(self) -> Dict[str, Dict[str, float]]:
        return {name: cache.as_dict() for name, cache in self.caches.items()}

    def total_hits(self) -> int:
        return sum(cache.hits for cache in self.caches.values())

    def total_misses(self) -> int:
        return sum(cache.misses for cache in self.caches.values())


_STATS = PerfStats()


def stats() -> PerfStats:
    """The process-global statistics instance."""
    return _STATS


def snapshot() -> Dict[str, Dict[str, float]]:
    """A serialisable copy of the current statistics."""
    return _STATS.as_dict()


def reset_stats() -> None:
    _STATS.reset()
