"""Analysis performance layer: hash-consing, memoization, and cache stats.

The layer is behaviour-neutral by construction (see ``docs/PERFORMANCE.md``):
predictions and Figure-5/6 work counts are the same for any cache state
-- only wall time changes.  It is always on.

* :mod:`.stats` -- the bounded :class:`~.stats.LRUCache` every cache uses
  and the process-global hit/miss counters;
* :mod:`.memo` -- the engine-facing memos of the range algebra (the
  hash-consing table and the constructor memos live beside the lattice
  values, in :mod:`repro.core.rangeset`);
* :mod:`.fingerprint` -- stable fingerprints of analysis configurations.
"""

from __future__ import annotations

from repro.core.perf import stats

__all__ = ["reset", "snapshot", "stats"]


def reset() -> None:
    """Clear every cache and every hit/miss counter.

    Not called on the analysis path: caches persist across runs (results
    are cache-state-independent by construction, so persistence only
    buys hit rate).  Use this for isolation in tests and benchmarks --
    e.g. before timing a cold run.
    """
    # Imported here, not at the top: ``.memo`` imports the lattice
    # modules, which import ``.stats`` and so load this package first.
    from repro.core.perf import memo

    memo.clear()
    stats.reset_stats()


def snapshot() -> dict:
    """A serialisable copy of all cache statistics (metrics ``perf`` key)."""
    return stats.snapshot()
