"""Bounded-LRU memoization of the engine's range algebra.

The engine-facing wrappers (:func:`evaluate_binop`, :func:`compare_sets`,
...) are called by :mod:`repro.core.propagation` in place of the plain
functions.  Every result they return is canonical already: the plain
functions build their sets with ``RangeSet.from_ranges``, which
hash-conses each set it builds, or return the ⊤/⊥ singletons, so no
wrapper interns again.  The
hash-consing table and the ``from_ranges``/``merge_weighted`` memos
live in :mod:`repro.core.rangeset`.

Two invariants keep the layer behaviour-neutral:

* **Counter replay.**  ``evaluate_binop``/``compare_sets`` tally one
  ``sub_operations`` per range pair internally; each cache entry stores
  the tally delta of its original evaluation and replays it on every
  hit, so the Figure-5/6 work counts are the same for any cache state
  (``benchmarks/seed_work_counts.json`` is asserted against them).  A
  wrapper fetches the active counters once and hands them to the
  operation it calls on a miss.
* **Eviction is invisible.**  Every table is a bounded
  :class:`~repro.core.perf.stats.LRUCache`; an evicted memo entry is
  recomputed, and an evicted canonical object merely loses the identity
  fast path -- consumers fall back to structural equality.

``compare_sets`` is only memoized for calls without a ``symbol_range``
callback: with a callback the result depends on *live* engine state
that a key over the operands cannot capture.  The engine passes one on
most calls -- 604 of its 803 ``compare_sets`` calls (75%) on
large-modules seed 11, block 0 -- so those run their pair loop every
time.  A miss in any table runs the plain function, which builds its
set through the ``from_ranges`` memo.  Every memo table is listed in
``_ALL_CACHES``, so :func:`clear` (and ``perf.reset()``) empties it.
"""

from __future__ import annotations

from repro.core import counters
from repro.core import comparisons as _comparisons
from repro.core import range_arith as _range_arith
from repro.core import rangeset as _rangeset
from repro.core import refine as _refine
from repro.core.perf.stats import LRUCache, stats
from repro.core.rangeset import MEMO_SIZE


def _perf_cache(name: str) -> LRUCache:
    return LRUCache(MEMO_SIZE, stats().caches[name])


_BINOP = _perf_cache("binop")
_COMPARE = _perf_cache("compare")
_REFINE = _perf_cache("refine")
_CONSTANT = _perf_cache("constant")
_BOOLEAN = _perf_cache("boolean")

_ALL_CACHES = (
    _rangeset._RANGESETS,
    _rangeset._FROM_RANGES,
    _rangeset._MERGE_WEIGHTED,
    _BINOP,
    _COMPARE,
    _REFINE,
    _CONSTANT,
    _BOOLEAN,
)


def evaluate_binop(op, a, b, max_ranges=_rangeset.DEFAULT_MAX_RANGES):
    """``range_arith.evaluate_binop`` with caching + sub-operation replay."""
    key = (op, a, b, max_ranges)
    cached = _BINOP.get(key)
    tally = counters.active()
    if cached is not None:
        result, sub_ops = cached
        tally.sub_operations += sub_ops
        return result
    before = tally.sub_operations
    result = _range_arith.evaluate_binop(op, a, b, max_ranges, tally)
    _BINOP.put(key, (result, tally.sub_operations - before))
    return result


def compare_sets(op, a, b, a_name=None, b_name=None, symbol_range=None):
    """``comparisons.compare_sets`` with caching + sub-operation replay.

    Falls through uncached whenever ``symbol_range`` is given: that
    callback reads live engine state the memo key cannot represent.
    """
    if symbol_range is not None:
        return _comparisons.compare_sets(op, a, b, a_name, b_name, symbol_range=symbol_range)
    key = (op, a, b, a_name, b_name)
    cached = _COMPARE.get(key)
    tally = counters.active()
    if cached is not None:
        outcome, sub_ops = cached
        tally.sub_operations += sub_ops
        return outcome
    before = tally.sub_operations
    outcome = _comparisons.compare_sets(op, a, b, a_name, b_name, tally=tally)
    _COMPARE.put(key, (outcome, tally.sub_operations - before))
    return outcome


def refine_set(src, op, bound, max_ranges=_rangeset.DEFAULT_MAX_RANGES):
    """``refine.refine_set`` with caching (pure: nothing to replay)."""
    key = (src, op, bound, max_ranges)
    cached = _REFINE.get(key)
    if cached is not None:
        return cached
    result = _refine.refine_set(src, op, bound, max_ranges)
    _REFINE.put(key, result)
    return result


def constant_set(value):
    """Cached ``RangeSet.constant`` of an ``int``."""
    cached = _CONSTANT.get(value)
    if cached is not None:
        return cached
    result = _rangeset.RangeSet.constant(value)
    _CONSTANT.put(value, result)
    return result


def boolean_set(probability_true):
    """Cached ``RangeSet.boolean`` for the 0/1 comparison distributions."""
    cached = _BOOLEAN.get(probability_true)
    if cached is not None:
        return cached
    result = _rangeset.RangeSet.boolean(probability_true)
    _BOOLEAN.put(probability_true, result)
    return result


# -- maintenance ------------------------------------------------------------


def clear() -> None:
    """Drop every memoized entry."""
    for cache in _ALL_CACHES:
        cache.clear()

