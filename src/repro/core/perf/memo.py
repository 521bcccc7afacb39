"""Bounded-LRU memoization and hash-consing for the pure range algebra.

Importing this module installs the :func:`from_ranges`/:func:`merge_weighted`
hooks into :mod:`repro.core.rangeset` (module-level ``_FROM_RANGES_MEMO`` /
``_MERGE_WEIGHTED_MEMO`` variables), so *every* call site benefits; the
engine-facing wrappers (:func:`evaluate_binop`, :func:`compare_sets`, ...)
are called explicitly by :mod:`repro.core.propagation`.

Every result the memos return is **hash-consed** by :func:`intern_rangeset`:
structurally-equal :class:`~repro.core.rangeset.RangeSet` values map to one
canonical object, so ``__eq__``/``approx_equal`` and the engine's "did this
value change?" checks fast-path on identity, and memo keys hash cheaply.
⊤ and ⊥ always intern to the module singletons
:data:`repro.core.rangeset.TOP` / :data:`repro.core.rangeset.BOTTOM`.

Three invariants keep the layer behaviour-neutral:

* **Counter replay.**  ``evaluate_binop``/``compare_sets`` tally one
  ``sub_operations`` per range pair internally; each cache entry stores
  the tally delta of its original evaluation and replays it on every
  hit, so the Figure-5/6 work counts stay byte-identical to a run without
  the layer (``benchmarks/seed_work_counts.json`` is asserted against both
  ways).
* **Gating.**  Every wrapper falls through to the original function when
  :func:`repro.core.perf.context.is_active` says the layer is off, so
  ``VRPConfig(perf=False)`` or ``REPRO_PERF=0`` bypasses caching entirely.
* **Eviction is invisible.**  Every table is a bounded :class:`LRUCache`;
  an evicted memo entry is recomputed, and an evicted canonical object
  merely loses the identity fast path -- consumers fall back to
  structural equality.

``compare_sets`` is only memoized for calls without a ``symbol_range``
callback (94% of them): with a callback the result depends on *live*
engine state that a key over the operands cannot capture.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.core import counters
from repro.core import comparisons as _comparisons
from repro.core import range_arith as _range_arith
from repro.core import rangeset as _rangeset
from repro.core import refine as _refine
from repro.core.perf.context import is_active
from repro.core.perf.stats import CacheStats, stats

#: Capacity of each memo cache and of the hash-consing table.
MEMO_SIZE = 16384
INTERN_SIZE = 65536


class LRUCache:
    """A bounded key -> value map with LRU eviction.

    Hits, misses and evictions are tallied into ``record``, a
    :class:`~repro.core.perf.stats.CacheStats` the caller owns: the perf
    caches pass their entry of the global statistics (zeroed in place on
    reset, never replaced, so binding it once saves a lookup per hit).
    Values are never ``None``, so ``None`` means "not cached".
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


def _perf_cache(name: str, capacity: int = MEMO_SIZE) -> LRUCache:
    return LRUCache(capacity, stats().caches[name])


_RANGESETS = _perf_cache("intern_rangeset", INTERN_SIZE)
_FROM_RANGES = _perf_cache("from_ranges")
_MERGE_WEIGHTED = _perf_cache("merge_weighted")
_BINOP = _perf_cache("binop")
_COMPARE = _perf_cache("compare")
_REFINE = _perf_cache("refine")
_CONSTANT = _perf_cache("constant")
_BOOLEAN = _perf_cache("boolean")

_ALL_CACHES = (
    _RANGESETS,
    _FROM_RANGES,
    _MERGE_WEIGHTED,
    _BINOP,
    _COMPARE,
    _REFINE,
    _CONSTANT,
    _BOOLEAN,
)


def intern_rangeset(rangeset):
    """The canonical object for a :class:`RangeSet` (⊤/⊥ -> singletons).

    Member ranges and bounds are deliberately *not* interned: identity
    of the set itself is what the engine's change checks and the memo
    keys use, and per-member table probes measurably outweigh the
    cross-set sharing they would buy.
    """
    if rangeset.is_top:
        return _rangeset.TOP
    if rangeset.is_bottom:
        return _rangeset.BOTTOM
    return _RANGESETS.intern(rangeset)


# -- rangeset hooks (installed below; rangeset checks is_active itself) -----


def from_ranges(ranges, max_ranges, renormalise):
    """Memoized ``RangeSet.from_ranges`` (``ranges`` already a tuple)."""
    key = (ranges, max_ranges, renormalise)
    cached = _FROM_RANGES.get(key)
    if cached is not None:
        return cached
    result = intern_rangeset(
        _rangeset._build_set(ranges, max_ranges, renormalise)
    )
    _FROM_RANGES.put(key, result)
    return result


def merge_weighted(contributions, max_ranges):
    """Memoized φ-merge (``contributions`` already a tuple of pairs)."""
    key = (contributions, max_ranges)
    cached = _MERGE_WEIGHTED.get(key)
    if cached is not None:
        return cached
    result = intern_rangeset(
        _rangeset._merge_weighted(contributions, max_ranges)
    )
    _MERGE_WEIGHTED.put(key, result)
    return result


# -- engine-facing wrappers -------------------------------------------------


def evaluate_binop(op, a, b, max_ranges=_rangeset.DEFAULT_MAX_RANGES):
    """``range_arith.evaluate_binop`` with caching + sub-operation replay."""
    if not is_active():
        return _range_arith.evaluate_binop(op, a, b, max_ranges)
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
    if symbol_range is not None or not is_active():
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
    if not is_active():
        return _refine.refine_set(src, op, bound, max_ranges)
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
    if not is_active():
        return _rangeset.RangeSet.constant(value)
    key = (value.__class__, value)
    cached = _CONSTANT.get(key)
    if cached is not None:
        return cached
    result = intern_rangeset(_rangeset.RangeSet.constant(value))
    _CONSTANT.put(key, result)
    return result


def boolean_set(probability_true):
    """Cached ``RangeSet.boolean`` for the 0/1 comparison distributions."""
    if not is_active():
        return _rangeset.RangeSet.boolean(probability_true)
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


# Install the rangeset hooks at import time; the call sites themselves
# check is_active() so the hooks are inert while the layer is off.
_rangeset._FROM_RANGES_MEMO = from_ranges
_rangeset._MERGE_WEIGHTED_MEMO = merge_weighted
