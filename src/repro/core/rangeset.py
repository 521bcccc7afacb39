"""Range sets: the lattice values of value range propagation.

A :class:`RangeSet` is ⊤ (undetermined), ⊥ (unpredictable), or a set of
weighted :class:`~repro.core.ranges.StridedRange` whose probabilities sum
to one.  Sets are capped at a configurable number of ranges (the paper
uses four) by merging the pair whose hull loses the least information.
A compaction computes each candidate pair's hull and cost once: n
ranges reach the cap in O(n²) hulls, C(n, 2) for the first merge and
one per survivor for each merge after it.

Every set :meth:`RangeSet.from_ranges` or :func:`replay_plan` builds is
**hash-consed** by :func:`intern_rangeset`: structurally-equal sets map
to one canonical object, so ``__eq__``/``approx_equal`` and the
engine's "did this value change?" checks fast-path on identity, and
memo keys hash cheaply.  ⊤ and ⊥ are the singletons :data:`TOP` /
:data:`BOTTOM`.  Those are the two places a set is interned:
:func:`merge_weighted`, the set-level operations and the wrappers in
:mod:`repro.core.perf.memo` return their results, ⊤ or ⊥, all
canonical already.  Bound offsets are ``int`` or ±inf
(:mod:`repro.core.bounds`), so equal sets render alike and a key of the
set alone cannot conflate two that print apart.  ``from_ranges`` is
memoized on its ranges' extents and weights, :func:`merge_weighted` on
its full arguments; every table is a bounded LRU, and an
evicted entry is recomputed (or, for the hash-consing table, merely
loses the identity fast path).  A set makes its text once, on the
first ``str``: a set that many values and predictions share is rendered
once.

``is_top``, ``is_bottom``, ``is_set``, ``ranges`` and ``shape`` are
slots the constructor fills, not properties: the engine reads them on
every evaluation, where a property costs several times a slot read.

A set's :attr:`RangeSet.shape` is its ranges' extents, the set without
its weights (a replayed plan holds it already and passes it in).  The
set-level operations (``range_arith.evaluate_binop``,
``refine.refine_set``, ``comparisons.compare_sets`` and
:func:`merge_weighted`) keep a **set plan** (:func:`build_planned`)
in the caller's :class:`PlanRecord` for their operands' shapes, and a
loop lap that only reweights them replays it (:func:`replay_plan`)
without visiting a pair.  Under the range cap the plan holds the result's extents and which input weights fold into
each, in canonical order: the replay repeats the builder's float
operations in the same order, then interns one set, with no
``from_ranges`` key and no fold or sort.  Over the cap the merges
compaction picks depend on the weights, so the plan holds the input
ranges as templates: the replay computes the same weights and looks
the set up in the ``from_ranges`` table under the templates' extents
and those weights, a key CPython hashes without a Python call, and
builds it from the templates on a miss.  A lap under the cap with a
weight at or below :data:`PROB_EPSILON` goes the full way.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.core.bounds import bound_max, bound_min, Number
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
    """An immutable lattice value: ⊤, ⊥, or weighted ranges summing to 1.
    Its public slots are set once, here; nothing may assign them later."""

    __slots__ = ("is_top", "is_bottom", "is_set", "ranges", "shape", "_hash", "_hull",
                 "_symbols", "_text")

    _TOP_KIND = "top"
    _BOTTOM_KIND = "bottom"
    _SET_KIND = "set"

    def __init__(self, kind: str, ranges: Tuple[StridedRange, ...] = (), shape=None):
        self.is_top = kind == RangeSet._TOP_KIND
        self.is_bottom = kind == RangeSet._BOTTOM_KIND
        self.is_set = kind == RangeSet._SET_KIND
        self.ranges = ranges
        #: The ranges' extents in order, the set without its weights:
        #: what a set plan is keyed on.  A caller that knows it (a
        #: replayed plan) passes it; otherwise it is made here.
        self.shape = tuple([r.extent for r in ranges]) if shape is None else shape
        self._hash = None
        self._hull = False  # False = not computed (None is a valid hull)
        self._symbols = None
        self._text = None

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
        Returns ⊥ when nothing remains or compaction fails.  Memoized
        on the ranges' extents and weights (see :data:`_FROM_RANGES`);
        the result is hash-consed."""
        ranges = tuple(ranges)
        key = from_ranges_key(ranges, max_ranges, renormalise)
        cached = _FROM_RANGES.get(key)
        if cached is not None:
            return cached
        result = intern_rangeset(_build_set(ranges, max_ranges, renormalise))
        _FROM_RANGES.put(key, result)
        return result

    @staticmethod
    def constant(value: int) -> "RangeSet":
        return RangeSet.from_ranges([StridedRange.single(1.0, value)])

    @staticmethod
    def span(lo: Number, hi: Number, stride: int = 1) -> "RangeSet":
        return RangeSet.from_ranges([StridedRange.span(1.0, lo, hi, stride)])

    @staticmethod
    def symbol(name: str, offset: int = 0) -> "RangeSet":
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

    # -- value queries ----------------------------------------------------------

    def constant_value(self) -> Optional[int]:
        """The single numeric value this set certainly holds, if any.

        A final range like ``1[7:7:0]`` means the variable is the constant
        7 for every execution (the paper's constant-propagation subsumption).
        """
        if not self.is_set or len(self.ranges) != 1:
            return None
        only = self.ranges[0]
        if only.is_single() and only.lo.is_numeric() and only.lo.is_finite():
            return only.lo.offset
        return None

    def copy_symbol(self) -> Optional[str]:
        """The variable this set is certainly a copy of, if any.

        A final range like ``1[y:y:0]`` means the variable is a copy of
        ``y`` (the paper's copy-propagation subsumption).
        """
        if not self.is_set or len(self.ranges) != 1:
            return None
        only = self.ranges[0]
        if only.is_single() and only.lo.symbol is not None and only.lo.offset == 0:
            return only.lo.symbol
        return None

    def symbols(self) -> set:
        if self._symbols is None:
            out: set = set()
            for r in self.ranges:
                out |= r.symbols()
            self._symbols = out
        return self._symbols

    def is_numeric(self) -> bool:
        return self.is_set and all(r.is_numeric() for r in self.ranges)

    def hull(self) -> Optional[StridedRange]:
        """A single range covering the whole set (probability 1), or None."""
        if self._hull is not False:
            return self._hull
        if not self.is_set:
            return None
        merged = self.ranges[0].with_probability(1.0)
        for other in self.ranges[1:]:
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
        if not (self.is_set and other.is_set):
            return self.is_set is other.is_set and self.is_top is other.is_top
        if len(self.ranges) != len(other.ranges):
            return False
        for a, b in zip(self.ranges, other.ranges):
            if a.extent != b.extent or abs(a.probability - b.probability) > tolerance:
                return False
        return True

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return (
            isinstance(other, RangeSet)
            and self.is_set is other.is_set
            and self.is_top is other.is_top
            and self.ranges == other.ranges
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.is_set, self.is_top, self.ranges))
        return self._hash

    def __repr__(self) -> str:
        if self.is_top:
            return "RangeSet.top()"
        if self.is_bottom:
            return "RangeSet.bottom()"
        return f"RangeSet({{{', '.join(str(r) for r in self.ranges)}}})"

    def __str__(self) -> str:
        # Made once: a hash-consed set is rendered wherever it is shared.
        if self._text is None:
            if self.is_top:
                self._text = "T"
            elif self.is_bottom:
                self._text = "_|_"
            else:
                self._text = "{ " + ", ".join(str(r) for r in self.ranges) + " }"
        return self._text


TOP = RangeSet(RangeSet._TOP_KIND)
BOTTOM = RangeSet(RangeSet._BOTTOM_KIND)

_RANGESETS = LRUCache(INTERN_SIZE, stats().caches["intern_rangeset"])
#: :func:`from_ranges_key` -> the built set; a set plan over the range
#: cap looks its results up here too (:func:`replay_plan`).
_FROM_RANGES = LRUCache(MEMO_SIZE, stats().caches["from_ranges"])
_MERGE_WEIGHTED = LRUCache(MEMO_SIZE, stats().caches["merge_weighted"])


def from_ranges_key(ranges: Sequence[StridedRange], max_ranges: int, renormalise: bool):
    """``(extents, weights, max_ranges, renormalise)``: the ranges'
    extents and probabilities in order, then the cap and the flag.

    Two keys are equal exactly when the tuples of ranges are (a range
    equals another of the same extent and probability) and the cap and
    flag agree, and CPython hashes and compares these tuples of ints,
    strs and floats without a Python call (a tuple of ranges would call
    each range's ``__hash__`` and ``__eq__``)."""
    return (
        tuple([r.extent for r in ranges]),
        tuple([r.probability for r in ranges]),
        max_ranges,
        renormalise,
    )


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
    canonical = _RANGESETS.get(rangeset)
    if canonical is None:
        _RANGESETS.put(rangeset, rangeset)
        return rangeset
    return canonical


def merge_weighted(
    contributions: Sequence[Tuple[float, RangeSet]],
    max_ranges: int = DEFAULT_MAX_RANGES,
    record: Optional["PlanRecord"] = None,
) -> RangeSet:
    """The paper's phi evaluation: merge sets weighted by in-edge probability.

    ⊤ contributions are ignored (optimism, as in SCCP); a ⊥ contribution
    with positive weight makes the result ⊥; weights are renormalised over
    the contributing edges.  Memoized; the result comes from
    :meth:`RangeSet.from_ranges` or a set plan (in the φ's ``record``)
    (or is ⊤/⊥), so it is canonical.
    """
    key = (tuple(contributions), max_ranges)
    cached = _MERGE_WEIGHTED.get(key)
    if cached is not None:
        return cached
    result = _merge_weighted(key[0], max_ranges, record)
    _MERGE_WEIGHTED.put(key, result)
    return result


def _merge_weighted(
    contributions: Sequence[Tuple[float, RangeSet]],
    max_ranges: int = DEFAULT_MAX_RANGES,
    record: Optional["PlanRecord"] = None,
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
    if record is not None:
        shapes = tuple([rset.shape for _, rset in weighted])
        if record.shapes == shapes:
            weights: List[float] = []
            for weight, rset in weighted:
                factor = weight / total
                weights.extend([r.probability * factor for r in rset.ranges])
            result = replay_plan(record.plan, weights)
            if result is not None:
                return result
    ranges: List[StridedRange] = []
    for weight, rset in weighted:
        factor = weight / total
        ranges.extend(r.scaled(factor) for r in rset.ranges)
    result, plan = build_planned(ranges, max_ranges)
    if record is not None and plan is not None:
        record.shapes, record.plan = shapes, plan
    return result


# ---------------------------------------------------------------------------
# set plans
# ---------------------------------------------------------------------------


class PlanRecord:
    """An instruction's set ``plan`` and the operand ``shapes`` (a π's
    limit too) it was built for; the engine keeps one per instruction
    for one run, so the op, cap and names never change under it."""

    __slots__ = ("shapes", "plan")

    def __init__(self) -> None:
        self.shapes = None
        self.plan = None


def build_planned(ranges: List[StridedRange], max_ranges: int):
    """``(RangeSet.from_ranges(ranges, max_ranges, renormalise=True),
    plan)``: the set, and the plan of how it was built, for a set-level
    operation to keep in its :class:`PlanRecord` and replay with
    :func:`replay_plan` when a later call only reweights the operands.

    When the distinct extents fit under ``max_ranges``, the plan is
    ``(shape, folds)``: the result's :attr:`RangeSet.shape`, and one
    ``(template, first, rest)`` per result range in canonical order: a
    range of the result's extent, and the indices of the ``ranges``
    whose weights fold into it, in the order they are summed.  Over the
    cap, which pairs compaction merges depends on the weights, so the
    plan is ``(None, (templates, extents, max_ranges))``: the ``ranges``
    themselves as templates, and their extents, under which a replay
    looks the set up in the ``from_ranges`` table.  The plan is ``None``
    when some range weighs at most :data:`PROB_EPSILON` (that filter
    reads the weights too, so this call says nothing about the shape),
    and the set is built as ``from_ranges`` builds it.
    """
    groups = {}
    for index, r in enumerate(ranges):
        if not r.probability > PROB_EPSILON:
            return RangeSet.from_ranges(ranges, max_ranges, renormalise=True), None
        group = groups.get(r.extent)
        if group is None:
            groups[r.extent] = (r, index, [])
        else:
            group[2].append(index)
    if not groups or len(groups) > max_ranges:
        plan = (None, (tuple(ranges), tuple([r.extent for r in ranges]), max_ranges))
        return RangeSet.from_ranges(ranges, max_ranges, renormalise=True), plan
    folds = tuple(
        [
            (template, first, tuple(rest))
            for template, first, rest in sorted(
                groups.values(), key=lambda group: _sort_key(group[0])
            )
        ]
    )
    plan = (tuple([fold[0].extent for fold in folds]), folds)
    return replay_plan(plan, [r.probability for r in ranges]), plan


def replay_plan(plan, weights: List[float]) -> Optional[RangeSet]:
    """The set ``plan`` builds from ranges of these weights.

    Under the cap: the float operations of ``from_ranges(...,
    renormalise=True)`` in its order (the running total, the factor,
    each fold's sum), then one interned set; ``None`` when a weight is
    at most :data:`PROB_EPSILON`, which ``from_ranges`` would drop.
    Over the cap: the ``from_ranges`` table's entry for the templates'
    extents and these weights, built from the reweighted templates on
    a miss, so exactly the set ``from_ranges`` returns for them."""
    shape, folds = plan
    if shape is None:
        templates, extents, max_ranges = folds
        weights = tuple(weights)
        key = (extents, weights, max_ranges, True)
        result = _FROM_RANGES.get(key)
        if result is None:
            reweighted = StridedRange._reweighted
            ranges = [reweighted(weight, template) for weight, template in zip(weights, templates)]
            result = intern_rangeset(_build_set(ranges, max_ranges, True))
            _FROM_RANGES.put(key, result)
        return result
    total = 0.0
    for weight in weights:
        if not weight > PROB_EPSILON:
            return None
        total += weight
    factor = 1.0 / total
    if factor != 1.0:
        weights = [weight * factor for weight in weights]
    reweighted = StridedRange._reweighted
    ranges = []
    for template, first, rest in folds:
        probability = weights[first]
        for index in rest:
            probability += weights[index]
        ranges.append(reweighted(probability, template))
    return intern_rangeset(RangeSet(RangeSet._SET_KIND, tuple(ranges), shape))


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
        factor = 1.0 / total
        if factor != 1.0:
            kept = [r.scaled(factor) for r in kept]
    elif abs(total - 1.0) > 1e-6:
        raise ValueError(f"range probabilities sum to {total}, expected 1")
    folded = _fold_duplicates(kept)
    compacted = _compact(folded, max_ranges)
    if compacted is None:
        return BOTTOM
    return RangeSet(RangeSet._SET_KIND, tuple(_canonical_sort(compacted)))


def _fold_duplicates(ranges: List[StridedRange]) -> List[StridedRange]:
    """Combine ranges with identical extent by summing probabilities.

    A range whose extent occurs once keeps its probability and so is
    kept as it is; a merged one is reweighted.  Normalising an extent of
    ``int`` offsets again cannot change it, so neither is rebuilt.
    """
    by_extent = {}
    for r in ranges:
        entry = by_extent.get(r.extent)
        if entry is None:
            by_extent[r.extent] = [r, r.probability]
        else:
            entry[1] += r.probability
    return [first.with_probability(probability) for first, probability in by_extent.values()]


def _sort_key(r: StridedRange):
    return (r.lo.symbol or "", r.lo.offset, r.hi.symbol or "", r.hi.offset, r.stride)


def _canonical_sort(ranges: List[StridedRange]) -> List[StridedRange]:
    return sorted(ranges, key=_sort_key)


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
            stride = gap
    # Mis-alignment between the two progressions degrades the stride.
    offset_gap = a.lo.distance(b.lo)
    if offset_gap is not None and not math.isinf(offset_gap) and stride > 1:
        stride = math.gcd(stride, offset_gap)
        if stride == 0:
            stride = max(a.stride, b.stride)
    return StridedRange(a.probability + b.probability, lo, hi, stride)


def _merge_cost(
    width_a: Optional[Number], width_b: Optional[Number], hull: StridedRange
) -> float:
    """Information lost by replacing two ranges of the given widths with
    their hull (lower = better)."""
    hull_width = hull.width()
    if hull_width is None or math.isinf(hull_width):
        return math.inf
    growth = float(hull_width) - float(width_a or 0) - float(width_b or 0)
    # Weight the growth by how much probability mass gets smeared (the
    # hull carries the pair's summed probability).
    return max(growth, 0.0) * hull.probability + 1e-9 * float(hull_width)


def _compact(ranges: List[StridedRange], max_ranges: int) -> Optional[List[StridedRange]]:
    """Greedy pairwise merging until the cap is met; None when impossible.

    Each round merges the pair of least :func:`_merge_cost`, the first in
    (i, j) order on a tie; when every hull has infinite width, the first
    pair that has a hull at all.  A pair's hull and cost are computed
    once per call and kept under the serial numbers of its two ranges,
    so a round after the first scores only the pairs of the hull the
    round before appended: n ranges reach the cap in C(n, 2) + (n - 2)
    + (n - 3) + ... hulls, 219 rather than 670 for 16 ranges to 4.
    """
    if max_ranges < 1:
        raise ValueError("max_ranges must be >= 1")
    if len(ranges) <= max_ranges:
        return ranges
    current = list(ranges)
    # Serials rise along ``current``: survivors keep their order and each
    # hull is appended under a new serial, so a key's pair never repeats.
    serials = list(range(len(current)))
    widths = [r.width() for r in current]
    fresh = len(current)
    scored = {}  # (serial, serial) -> (cost, hull), hull None if incomparable
    while len(current) > max_ranges:
        best: Optional[Tuple[float, int, int, StridedRange]] = None
        first: Optional[Tuple[float, int, int, StridedRange]] = None
        for i, a in enumerate(current):
            serial, width = serials[i], widths[i]
            for j in range(i + 1, len(current)):
                key = (serial, serials[j])
                entry = scored.get(key)
                if entry is None:
                    hull = _hull_pair(a, current[j])
                    cost = math.inf if hull is None else _merge_cost(width, widths[j], hull)
                    entry = (cost, hull)
                    scored[key] = entry
                cost, hull = entry
                if hull is None:
                    continue
                if first is None:
                    first = (math.inf, i, j, hull)
                if math.isinf(cost):
                    continue
                if best is None or cost < best[0]:
                    best = (cost, i, j, hull)
        if best is None:
            best = first  # allow an infinite-width hull before giving up
        if best is None:
            return None  # incomparable symbolic ranges: give up (⊥)
        _, i, j, hull = best
        del current[j], current[i], serials[j], serials[i], widths[j], widths[i]
        current.append(hull)
        serials.append(fresh)
        widths.append(hull.width())
        fresh += 1
    return current
