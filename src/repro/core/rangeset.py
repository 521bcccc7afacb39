"""Range sets: the lattice values of value range propagation.

A :class:`RangeSet` is ⊤ (undetermined), ⊥ (unpredictable), or a set of
weighted :class:`~repro.core.ranges.StridedRange` whose probabilities sum
to one.  Sets are capped at a configurable number of ranges (the paper
uses four) by merging the pair whose hull loses the least information.

Every set the two builders (:meth:`RangeSet.from_ranges` and
:func:`merge_weighted`) return is **hash-consed** by
:func:`intern_rangeset`: structurally-equal sets map to one canonical
object, so ``__eq__``/``approx_equal`` and the engine's "did this value
change?" checks fast-path on identity, and memo keys hash cheaply.  ⊤ and
⊥ always intern to the singletons :data:`TOP` / :data:`BOTTOM`.  Both
builders are memoized on their full arguments; every table is a bounded
LRU, and an evicted entry is recomputed (or, for the hash-consing table,
merely loses the identity fast path).
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.core.bounds import Bound, bound_max, bound_min, Number
from repro.core.perf.stats import LRUCache, stats
from repro.core.ranges import StridedRange

# Probabilities below this are treated as zero and dropped.
PROB_EPSILON = 1e-12

DEFAULT_MAX_RANGES = 4

#: Capacity of each memo (here and in repro.core.perf.memo) and of the
#: hash-consing table.
MEMO_SIZE = 16384
INTERN_SIZE = 65536


class RangeSet:
    """An immutable lattice value: ⊤, ⊥, or weighted ranges summing to 1."""

    __slots__ = ("_kind", "_ranges", "_hash", "_hull", "_symbols")

    _TOP_KIND = "top"
    _BOTTOM_KIND = "bottom"
    _SET_KIND = "set"

    def __init__(self, kind: str, ranges: Tuple[StridedRange, ...] = ()):
        self._kind = kind
        self._ranges = ranges
        self._hash = None
        self._hull = False  # False = not computed (None is a valid hull)
        self._symbols = None

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def top() -> "RangeSet":
        return TOP

    @staticmethod
    def bottom() -> "RangeSet":
        return BOTTOM

    @staticmethod
    def from_ranges(
        ranges: Iterable[StridedRange],
        max_ranges: int = DEFAULT_MAX_RANGES,
        renormalise: bool = False,
    ) -> "RangeSet":
        """Build a set: drops zero-probability ranges, folds duplicates,
        optionally rescales probabilities to sum 1, and compacts to the cap.
        Returns ⊥ when nothing remains or compaction fails.  Memoized;
        the result is hash-consed."""
        key = (tuple(ranges), max_ranges, renormalise)
        cached = _FROM_RANGES.get(key)
        if cached is not None:
            return cached
        result = intern_rangeset(_build_set(key[0], max_ranges, renormalise))
        _FROM_RANGES.put(key, result)
        return result

    @staticmethod
    def constant(value: Number) -> "RangeSet":
        return RangeSet.from_ranges([StridedRange.single(1.0, value)])

    @staticmethod
    def span(lo: Number, hi: Number, stride: int = 1) -> "RangeSet":
        return RangeSet.from_ranges([StridedRange.span(1.0, lo, hi, stride)])

    @staticmethod
    def symbol(name: str, offset: Number = 0) -> "RangeSet":
        return RangeSet.from_ranges([StridedRange.symbol(1.0, name, offset)])

    @staticmethod
    def boolean(probability_true: float) -> "RangeSet":
        """The 0/1 distribution of a comparison with P(true) given."""
        probability_true = min(1.0, max(0.0, probability_true))
        return RangeSet.from_ranges(
            [
                StridedRange.single(probability_true, 1),
                StridedRange.single(1.0 - probability_true, 0),
            ]
        )

    # -- lattice queries ----------------------------------------------------------

    @property
    def is_top(self) -> bool:
        return self._kind == RangeSet._TOP_KIND

    @property
    def is_bottom(self) -> bool:
        return self._kind == RangeSet._BOTTOM_KIND

    @property
    def is_set(self) -> bool:
        return self._kind == RangeSet._SET_KIND

    @property
    def ranges(self) -> Tuple[StridedRange, ...]:
        return self._ranges

    # -- value queries ----------------------------------------------------------

    def constant_value(self) -> Optional[Number]:
        """The single numeric value this set certainly holds, if any.

        A final range like ``1[7:7:0]`` means the variable is the constant
        7 for every execution (the paper's constant-propagation subsumption).
        """
        if not self.is_set or len(self._ranges) != 1:
            return None
        only = self._ranges[0]
        if only.is_single() and only.lo.is_numeric() and only.lo.is_finite():
            return only.lo.offset
        return None

    def copy_symbol(self) -> Optional[str]:
        """The variable this set is certainly a copy of, if any.

        A final range like ``1[y:y:0]`` means the variable is a copy of
        ``y`` (the paper's copy-propagation subsumption).
        """
        if not self.is_set or len(self._ranges) != 1:
            return None
        only = self._ranges[0]
        if only.is_single() and only.lo.symbol is not None and only.lo.offset == 0:
            return only.lo.symbol
        return None

    def symbols(self) -> set:
        if self._symbols is None:
            out: set = set()
            for r in self._ranges:
                out |= r.symbols()
            self._symbols = out
        return self._symbols

    def is_numeric(self) -> bool:
        return self.is_set and all(r.is_numeric() for r in self._ranges)

    def hull(self) -> Optional[StridedRange]:
        """A single range covering the whole set (probability 1), or None."""
        if self._hull is not False:
            return self._hull
        if not self.is_set:
            return None
        merged = self._ranges[0].with_probability(1.0)
        for other in self._ranges[1:]:
            hulled = _hull_pair(merged, other.with_probability(1.0))
            if hulled is None:
                self._hull = None
                return None
            merged = hulled.with_probability(1.0)
        self._hull = merged
        return merged

    # -- comparison ----------------------------------------------------------------

    def approx_equal(self, other: "RangeSet", tolerance: float = 1e-9) -> bool:
        if self is other:
            return True
        if self._kind != other._kind:
            return False
        if not self.is_set:
            return True
        if len(self._ranges) != len(other._ranges):
            return False
        return all(
            a.approx_equal(b, tolerance) for a, b in zip(self._ranges, other._ranges)
        )

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return (
            isinstance(other, RangeSet)
            and self._kind == other._kind
            and self._ranges == other._ranges
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self._kind, self._ranges))
        return self._hash

    def __repr__(self) -> str:
        if self.is_top:
            return "RangeSet.top()"
        if self.is_bottom:
            return "RangeSet.bottom()"
        return f"RangeSet({{{', '.join(str(r) for r in self._ranges)}}})"

    def __str__(self) -> str:
        if self.is_top:
            return "T"
        if self.is_bottom:
            return "_|_"
        return "{ " + ", ".join(str(r) for r in self._ranges) + " }"


TOP = RangeSet(RangeSet._TOP_KIND)
BOTTOM = RangeSet(RangeSet._BOTTOM_KIND)

_RANGESETS = LRUCache(INTERN_SIZE, stats().caches["intern_rangeset"])
_FROM_RANGES = LRUCache(MEMO_SIZE, stats().caches["from_ranges"])
_MERGE_WEIGHTED = LRUCache(MEMO_SIZE, stats().caches["merge_weighted"])


def intern_rangeset(rangeset: RangeSet) -> RangeSet:
    """The canonical object for a :class:`RangeSet` (⊤/⊥ -> singletons).

    Member ranges and bounds are deliberately *not* interned: identity
    of the set itself is what the engine's change checks and the memo
    keys use, and per-member table probes measurably outweigh the
    cross-set sharing they would buy.
    """
    if rangeset.is_top:
        return TOP
    if rangeset.is_bottom:
        return BOTTOM
    return _RANGESETS.intern(rangeset)


def merge_weighted(
    contributions: Sequence[Tuple[float, RangeSet]],
    max_ranges: int = DEFAULT_MAX_RANGES,
) -> RangeSet:
    """The paper's phi evaluation: merge sets weighted by in-edge probability.

    ⊤ contributions are ignored (optimism, as in SCCP); a ⊥ contribution
    with positive weight makes the result ⊥; weights are renormalised over
    the contributing edges.  Memoized; the result is hash-consed.
    """
    key = (tuple(contributions), max_ranges)
    cached = _MERGE_WEIGHTED.get(key)
    if cached is not None:
        return cached
    result = intern_rangeset(_merge_weighted(key[0], max_ranges))
    _MERGE_WEIGHTED.put(key, result)
    return result


def _merge_weighted(
    contributions: Sequence[Tuple[float, RangeSet]],
    max_ranges: int = DEFAULT_MAX_RANGES,
) -> RangeSet:
    """The uncached φ-merge (see :func:`merge_weighted`)."""
    weighted: List[Tuple[float, RangeSet]] = []
    for weight, rset in contributions:
        if weight <= PROB_EPSILON or rset.is_top:
            continue
        if rset.is_bottom:
            return BOTTOM
        weighted.append((weight, rset))
    if not weighted:
        return TOP
    total = sum(weight for weight, _ in weighted)
    ranges: List[StridedRange] = []
    for weight, rset in weighted:
        factor = weight / total
        ranges.extend(r.scaled(factor) for r in rset.ranges)
    return RangeSet.from_ranges(ranges, max_ranges=max_ranges, renormalise=True)


# ---------------------------------------------------------------------------
# internals
# ---------------------------------------------------------------------------


def _build_set(
    ranges: Iterable[StridedRange], max_ranges: int, renormalise: bool
) -> RangeSet:
    """The uncached set builder behind :meth:`RangeSet.from_ranges`."""
    # One pass both filters near-zero ranges and accumulates the
    # probability total used by both normalisation paths below.
    kept: List[StridedRange] = []
    total = 0.0
    for r in ranges:
        if r.probability > PROB_EPSILON:
            kept.append(r)
            total += r.probability
    if not kept:
        return BOTTOM
    if renormalise:
        if total <= PROB_EPSILON:
            return BOTTOM
        kept = [r.scaled(1.0 / total) for r in kept]
    elif abs(total - 1.0) > 1e-6:
        raise ValueError(f"range probabilities sum to {total}, expected 1")
    folded = _fold_duplicates(kept)
    compacted = _compact(folded, max_ranges)
    if compacted is None:
        return BOTTOM
    return RangeSet(RangeSet._SET_KIND, tuple(_canonical_sort(compacted)))


def _fold_duplicates(ranges: List[StridedRange]) -> List[StridedRange]:
    """Combine ranges with identical extent by summing probabilities."""
    by_extent = {}
    order: List[Tuple] = []
    for r in ranges:
        key = (r.lo, r.hi, r.stride)
        if key in by_extent:
            by_extent[key] = by_extent[key] + r.probability
        else:
            by_extent[key] = r.probability
            order.append(key)
    return [
        StridedRange(by_extent[key], key[0], key[1], key[2]) for key in order
    ]


def _canonical_sort(ranges: List[StridedRange]) -> List[StridedRange]:
    def sort_key(r: StridedRange):
        return (
            r.lo.symbol or "",
            r.lo.offset,
            r.hi.symbol or "",
            r.hi.offset,
            r.stride,
        )

    return sorted(ranges, key=sort_key)


def _hull_pair(a: StridedRange, b: StridedRange) -> Optional[StridedRange]:
    """Smallest representable range covering both, carrying summed weight."""
    lo = bound_min(a.lo, b.lo)
    hi = bound_max(a.hi, b.hi)
    if lo is None or hi is None:
        return None
    stride = math.gcd(a.stride, b.stride)
    if stride == 0 and lo != hi:
        # Two distinct single values: stride is their gap.
        gap = lo.distance(hi)
        if gap is None or math.isinf(gap):
            stride = 1
        else:
            stride = int(gap)
    # Mis-alignment between the two progressions degrades the stride.
    offset_gap = a.lo.distance(b.lo)
    if offset_gap is not None and not math.isinf(offset_gap) and stride > 1:
        stride = math.gcd(stride, int(abs(offset_gap)))
        if stride == 0:
            stride = max(a.stride, b.stride)
    return StridedRange(a.probability + b.probability, lo, hi, stride)


def _merge_cost(a: StridedRange, b: StridedRange, hull: StridedRange) -> float:
    """Information lost by replacing {a, b} with their hull (lower = better)."""
    hull_width = hull.width()
    if hull_width is None or math.isinf(hull_width):
        return math.inf
    width_a = a.width() or 0
    width_b = b.width() or 0
    growth = float(hull_width) - float(width_a) - float(width_b)
    # Weight the growth by how much probability mass gets smeared.
    return max(growth, 0.0) * (a.probability + b.probability) + 1e-9 * float(hull_width)


def _compact(ranges: List[StridedRange], max_ranges: int) -> Optional[List[StridedRange]]:
    """Greedy pairwise merging until the cap is met; None when impossible."""
    if max_ranges < 1:
        raise ValueError("max_ranges must be >= 1")
    current = list(ranges)
    while len(current) > max_ranges:
        best: Optional[Tuple[float, int, int, StridedRange]] = None
        for i in range(len(current)):
            for j in range(i + 1, len(current)):
                hull = _hull_pair(current[i], current[j])
                if hull is None:
                    continue
                cost = _merge_cost(current[i], current[j], hull)
                if math.isinf(cost):
                    continue
                if best is None or cost < best[0]:
                    best = (cost, i, j, hull)
        if best is None:
            # Try again allowing infinite-width hulls before giving up.
            for i in range(len(current)):
                for j in range(i + 1, len(current)):
                    hull = _hull_pair(current[i], current[j])
                    if hull is not None:
                        best = (math.inf, i, j, hull)
                        break
                if best is not None:
                    break
        if best is None:
            return None  # incomparable symbolic ranges: give up (⊥)
        _, i, j, hull = best
        current = [r for k, r in enumerate(current) if k not in (i, j)]
        current.append(hull)
    return current
