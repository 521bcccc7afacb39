"""Bounded LRU caches and their hit/miss counters.

Every cache in the layer is an :class:`LRUCache` tallying into a
:class:`CacheStats` entry of one process-global :class:`PerfStats`.
:meth:`repro.core.predictor.VRPPredictor.predict_module` zeroes the
counters (not the caches, whose contents persist across runs) at the
start of each run, so a snapshot taken after a run describes exactly
that run.

This module imports nothing from :mod:`repro.core`: the lattice-value
module :mod:`repro.core.rangeset` builds its caches from it.
"""

from __future__ import annotations

from collections import OrderedDict
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


class LRUCache:
    """A bounded key -> value map with LRU eviction.

    Hits, misses and evictions are tallied into ``record``, a
    :class:`CacheStats` the caller owns: the perf caches pass their
    entry of the global statistics (zeroed in place on reset, never
    replaced, so binding it once saves a lookup per hit).  Values are
    never ``None``, so ``None`` means "not cached".
    """

    __slots__ = ("capacity", "record", "_table")

    def __init__(self, capacity: int, record: CacheStats):
        self.capacity = capacity
        self.record = record
        self._table: "OrderedDict" = OrderedDict()

    def get(self, key):
        """The cached value (now the most recent), or ``None``."""
        value = self._table.get(key)
        if value is None:
            self.record.misses += 1
            return None
        self.record.hits += 1
        self._table.move_to_end(key)
        return value

    def put(self, key, value) -> None:
        """Store ``value`` as the most recent entry, evicting the oldest."""
        table = self._table
        table[key] = value
        table.move_to_end(key)
        if len(table) > self.capacity:
            table.popitem(last=False)
            self.record.evictions += 1

    def intern(self, value):
        """The canonical object equal to ``value`` (the first one seen)."""
        canonical = self.get(value)
        if canonical is None:
            self.put(value, value)
            return value
        return canonical

    def __len__(self) -> int:
        return len(self._table)

    def clear(self) -> None:
        self._table.clear()


# Cache names, one CacheStats each: the hash-consing table and the
# constructor memos of core/rangeset.py, the memos of core/perf/memo.py,
# and the interprocedural (function, context) → return-range memo
# ("summary_context") of core/interprocedural.py.
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
