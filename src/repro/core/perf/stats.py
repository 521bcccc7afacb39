"""Bounded, roughly least-recently-used caches and their hit/miss counters.

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


#: Default capacity of a result store's memory tier
#: (:class:`repro.incremental.store.TwoTierStore`; ``repro serve
#: --memory-cache``).  Declared here, not in the store, so the CLI can
#: read it without importing :mod:`repro.incremental`.
STORE_MEMORY_ENTRIES = 1024


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
    """A bounded key -> value map that evicts roughly the least recently
    used entry.

    Each entry carries a mark that a hit sets.  Eviction, when a put
    grows the table past ``capacity``, walks from the oldest entry: a
    marked one loses its mark and moves to the back (a second chance),
    and the first unmarked one goes.  So a hit probes the table once
    and moves nothing, and a put hashes its key once.

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
        # key -> [value, read since the eviction walk last passed it]
        self._table: "OrderedDict" = OrderedDict()

    def get(self, key):
        """The cached value (now marked as read), or ``None``."""
        entry = self._table.get(key)
        if entry is None:
            self.record.misses += 1
            return None
        self.record.hits += 1
        entry[1] = True
        return entry[0]

    def put(self, key, value) -> None:
        """Store ``value`` under ``key``, unread.  A table grown past its
        capacity evicts one entry, never this one."""
        table = self._table
        table[key] = entry = [value, False]
        if len(table) > self.capacity:
            self._evict(entry)

    def _evict(self, newest: list) -> None:
        table = self._table
        while True:
            key, entry = table.popitem(last=False)
            if entry is newest:
                # Reached only after every other entry was passed, so the
                # next one in line is unmarked (or is this one again, in
                # a table of capacity 0).
                newest = None
            elif not entry[1]:
                self.record.evictions += 1
                return
            entry[1] = False
            table[key] = entry

    def __len__(self) -> int:
        return len(self._table)

    def clear(self) -> None:
        self._table.clear()


# Cache names, one CacheStats each: the hash-consing table and the
# constructor memos of core/rangeset.py and the memos of
# core/perf/memo.py.  The set plans are not here: each lives in its
# instruction's engine record, with no key.
CACHE_NAMES = (
    "intern_rangeset",
    "from_ranges",
    "merge_weighted",
    "binop",
    "compare",
    "refine",
    "constant",
    "boolean",
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
