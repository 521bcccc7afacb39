"""Bounded-LRU memoization of the engine's range algebra.

The engine-facing wrappers (:func:`evaluate_binop`, :func:`compare_sets`,
...) are called by :mod:`repro.core.propagation` in place of the plain
functions.  Every result they return is hash-consed by
:func:`repro.core.rangeset.intern_rangeset`; the hash-consing table and
the ``from_ranges``/``merge_weighted`` memos live in
:mod:`repro.core.rangeset`.

Two invariants keep the layer behaviour-neutral:

* **Counter replay.**  ``evaluate_binop``/``compare_sets`` tally one
  ``sub_operations`` per range pair internally; each cache entry stores
  the tally delta of its original evaluation and replays it on every
  hit, so the Figure-5/6 work counts are the same for any cache state
  (``benchmarks/seed_work_counts.json`` is asserted against them).
* **Eviction is invisible.**  Every table is a bounded
  :class:`~repro.core.perf.stats.LRUCache`; an evicted memo entry is
  recomputed, and an evicted canonical object merely loses the identity
  fast path -- consumers fall back to structural equality.

``compare_sets`` is only memoized for calls without a ``symbol_range``
callback (94% of them): with a callback the result depends on *live*
engine state that a key over the operands cannot capture.
"""

from __future__ import annotations

from repro.core import counters
from repro.core import comparisons as _comparisons
from repro.core import range_arith as _range_arith
from repro.core import rangeset as _rangeset
from repro.core import refine as _refine
from repro.core.perf.stats import LRUCache, stats
from repro.core.rangeset import MEMO_SIZE, intern_rangeset


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
    if cached is not None:
        result, sub_ops = cached
        counters.active().sub_operations += sub_ops
        return result
    tally = counters.active()
    before = tally.sub_operations
    result = intern_rangeset(
        _range_arith.evaluate_binop(op, a, b, max_ranges)
    )
    _BINOP.put(key, (result, tally.sub_operations - before))
    return result


def compare_sets(
    op,
    a,
    b,
    a_name=None,
    b_name=None,
    exact_limit=_comparisons.DEFAULT_EXACT_LIMIT,
    symbol_range=None,
):
    """``comparisons.compare_sets`` with caching + sub-operation replay.

    Falls through uncached whenever ``symbol_range`` is given: that
    callback reads live engine state the memo key cannot represent.
    """
    if symbol_range is not None:
        return _comparisons.compare_sets(
            op,
            a,
            b,
            a_name=a_name,
            b_name=b_name,
            exact_limit=exact_limit,
            symbol_range=symbol_range,
        )
    key = (op, a, b, a_name, b_name, exact_limit)
    cached = _COMPARE.get(key)
    if cached is not None:
        outcome, sub_ops = cached
        counters.active().sub_operations += sub_ops
        return outcome
    tally = counters.active()
    before = tally.sub_operations
    outcome = _comparisons.compare_sets(
        op, a, b, a_name=a_name, b_name=b_name, exact_limit=exact_limit
    )
    _COMPARE.put(key, (outcome, tally.sub_operations - before))
    return outcome


def refine_set(src, op, bound, max_ranges=_rangeset.DEFAULT_MAX_RANGES):
    """``refine.refine_set`` with caching (pure: nothing to replay)."""
    key = (src, op, bound, max_ranges)
    cached = _REFINE.get(key)
    if cached is not None:
        return cached
    result = intern_rangeset(
        _refine.refine_set(src, op, bound, max_ranges)
    )
    _REFINE.put(key, result)
    return result


def constant_set(value):
    """Cached ``RangeSet.constant``; int/float keys kept distinct."""
    key = (value.__class__, value)
    cached = _CONSTANT.get(key)
    if cached is not None:
        return cached
    result = intern_rangeset(_rangeset.RangeSet.constant(value))
    _CONSTANT.put(key, result)
    return result


def boolean_set(probability_true):
    """Cached ``RangeSet.boolean`` for the 0/1 comparison distributions."""
    cached = _BOOLEAN.get(probability_true)
    if cached is not None:
        return cached
    result = intern_rangeset(
        _rangeset.RangeSet.boolean(probability_true)
    )
    _BOOLEAN.put(probability_true, result)
    return result


# -- maintenance ------------------------------------------------------------


def clear() -> None:
    """Drop every memoized entry."""
    for cache in _ALL_CACHES:
        cache.clear()

