"""A frozen reference for the range algebra's builders.

The lattice primitives of :mod:`repro.core.bounds`,
:mod:`repro.core.ranges`, :mod:`repro.core.rangeset`,
:mod:`repro.core.range_arith` and :mod:`repro.core.refine` are tuned for
speed; every result must stay bit for bit what the straightforward
versions below compute.  This module keeps those versions, as they
stood before the tuning, as test-only code:

* the :class:`~repro.core.bounds.Bound` comparison and hash;
* :class:`~repro.core.ranges.StridedRange` construction (validation and
  normalisation), ``same_extent``, ``is_single``, ``count`` and hash;
* the set builder behind ``RangeSet.from_ranges`` (filter, rescale,
  fold duplicates, compact, sort);
* the pair loop of ``range_arith.evaluate_binop``, tallying one
  ``sub_operations`` per pair;
* ``refine.refine_set``'s per-range clipping;
* the pair loop of ``comparisons.compare_sets``, tallying one
  ``sub_operations`` per pair.

Each builds the production value types, so ``repr`` and interning can
be compared directly.  Beyond those types it calls four pieces of
production code: ``Bound.__eq__``/``__hash__`` (through dictionary keys
and tuples), which the tests hold equal to :func:`bound_eq` and
:func:`bound_hash`; bound arithmetic such as ``add_const``; the
pairwise handlers of ``range_arith``, which build their ranges with the
production constructor that the tests check on its own; and the pair
fraction and the averaging over a symbol's numeric range of
``comparisons`` (which symbol, and when to ask for its range, are
decided here, as they were before the compare plan stored them).
``tests/core/test_lattice_reference.py`` runs them against the
production code on generated inputs.  Do not "fix" or speed up this
module: it is the behaviour the production code must keep.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

from repro.core import counters
from repro.core.bounds import NEG_INF, POS_INF, Bound
from repro.core.comparisons import _dispatch_fraction, _integrate
from repro.core.range_arith import FULL_RANGE, _BINOP_HANDLERS, _is_unbounded
from repro.core.ranges import RangeError, StridedRange
from repro.core.rangeset import BOTTOM, DEFAULT_MAX_RANGES, PROB_EPSILON, TOP, RangeSet

# -- Bound ------------------------------------------------------------------------


def comparable_with(a: Bound, b: Bound) -> bool:
    if a.symbol is None and b.symbol is None:
        return True
    return a.symbol == b.symbol


def compare(a: Bound, b: Bound) -> Optional[int]:
    if not comparable_with(a, b):
        return None
    if a.offset < b.offset:
        return -1
    if a.offset > b.offset:
        return 1
    return 0


def distance(a: Bound, b: Bound):
    if not comparable_with(a, b):
        return None
    difference = b.offset - a.offset
    if math.isnan(difference):
        return None
    return difference


def bound_eq(a: Bound, b: object) -> bool:
    if a is b:
        return True
    return isinstance(b, Bound) and a.symbol == b.symbol and a.offset == b.offset


def bound_hash(a: Bound) -> int:
    return hash((a.symbol, a.offset))


def bound_min(a: Bound, b: Bound) -> Optional[Bound]:
    order = compare(a, b)
    if order is None:
        return None
    return a if order <= 0 else b


def bound_max(a: Bound, b: Bound) -> Optional[Bound]:
    order = compare(a, b)
    if order is None:
        return None
    return a if order >= 0 else b


# -- StridedRange -------------------------------------------------------------------

_SATURATION = 2 ** 1022


def _made(probability: float, lo: Bound, hi: Bound, stride: int) -> StridedRange:
    r = StridedRange.__new__(StridedRange)
    r.probability = float(probability)
    r.lo = lo
    r.hi = hi
    r.stride = stride
    r.extent = (lo.symbol, lo.offset, hi.symbol, hi.offset, stride)
    r._hash = None
    return r


def strided_range(probability: float, lo: Bound, hi: Bound, stride: int) -> StridedRange:
    """``StridedRange(probability, lo, hi, stride)``."""
    if probability < 0:
        raise RangeError(f"negative probability {probability}")
    if stride < 0:
        raise RangeError(f"negative stride {stride}")
    order = compare(lo, hi)
    if order is not None and order > 0:
        raise RangeError(f"inverted range [{lo}:{hi}]")
    lo, hi, stride = _normalise(lo, hi, stride)
    return _made(probability, lo, hi, stride)


def _normalise(lo: Bound, hi: Bound, stride: int):
    if not -_SATURATION <= lo.offset <= _SATURATION and type(lo.offset) is int:
        lo = Bound(NEG_INF)
    if not -_SATURATION <= hi.offset <= _SATURATION and type(hi.offset) is int:
        hi = Bound(POS_INF)
    if bound_eq(lo, hi):
        return lo, hi, 0
    width = distance(lo, hi)
    if stride == 0:
        stride = 1
    if width is not None and not math.isinf(width):
        if width < stride:
            stride = int(width) if width >= 1 else 1
        else:
            aligned = (int(width) // stride) * stride
            if aligned != width and hi.is_numeric():
                hi = Bound.number(lo.offset + aligned) if lo.is_numeric() else hi
            elif aligned != width and not hi.is_numeric():
                hi = Bound(lo.offset + aligned, lo.symbol)
    return lo, hi, stride


def reweighted(probability: float, source: StridedRange) -> StridedRange:
    return _made(probability, source.lo, source.hi, source.stride)


def same_extent(a: StridedRange, b: StridedRange) -> bool:
    return bound_eq(a.lo, b.lo) and bound_eq(a.hi, b.hi) and a.stride == b.stride


def is_single(r: StridedRange) -> bool:
    return bound_eq(r.lo, r.hi)


def count(r: StridedRange) -> Optional[int]:
    if is_single(r):
        return 1
    width = distance(r.lo, r.hi)
    if width is None or math.isinf(width):
        return None
    if r.stride == 0:
        return 1
    return int(width // r.stride) + 1


def width(r: StridedRange):
    return distance(r.lo, r.hi)


def range_hash(r: StridedRange) -> int:
    # The tuple hashes each Bound with its own __hash__, which the tests
    # hold equal to bound_hash.
    return hash((r.probability, r.lo, r.hi, r.stride))


# -- the set builder ----------------------------------------------------------------


def build_set(ranges, max_ranges: int, renormalise: bool) -> RangeSet:
    """The uncached, un-interned ``RangeSet.from_ranges``."""
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
        kept = [reweighted(r.probability * (1.0 / total), r) for r in kept]
    elif abs(total - 1.0) > 1e-6:
        raise ValueError(f"range probabilities sum to {total}, expected 1")
    folded = _fold_duplicates(kept)
    compacted = _compact(folded, max_ranges)
    if compacted is None:
        return BOTTOM
    return RangeSet(RangeSet._SET_KIND, tuple(_canonical_sort(compacted)))


def _fold_duplicates(ranges: List[StridedRange]) -> List[StridedRange]:
    # Keys hash and compare through Bound.__hash__/__eq__, which the
    # tests hold equal to bound_hash/bound_eq.
    by_extent = {}
    order: List[Tuple] = []
    for r in ranges:
        key = (r.lo, r.hi, r.stride)
        if key in by_extent:
            by_extent[key] = by_extent[key] + r.probability
        else:
            by_extent[key] = r.probability
            order.append(key)
    return [strided_range(by_extent[key], key[0], key[1], key[2]) for key in order]


def _canonical_sort(ranges: List[StridedRange]) -> List[StridedRange]:
    def sort_key(r: StridedRange):
        return (r.lo.symbol or "", r.lo.offset, r.hi.symbol or "", r.hi.offset, r.stride)

    return sorted(ranges, key=sort_key)


def _hull_pair(a: StridedRange, b: StridedRange) -> Optional[StridedRange]:
    lo = bound_min(a.lo, b.lo)
    hi = bound_max(a.hi, b.hi)
    if lo is None or hi is None:
        return None
    stride = math.gcd(a.stride, b.stride)
    if stride == 0 and not bound_eq(lo, hi):
        gap = distance(lo, hi)
        if gap is None or math.isinf(gap):
            stride = 1
        else:
            stride = int(gap)
    offset_gap = distance(a.lo, b.lo)
    if offset_gap is not None and not math.isinf(offset_gap) and stride > 1:
        stride = math.gcd(stride, int(abs(offset_gap)))
        if stride == 0:
            stride = max(a.stride, b.stride)
    return strided_range(a.probability + b.probability, lo, hi, stride)


def _merge_cost(a: StridedRange, b: StridedRange, hull: StridedRange) -> float:
    hull_width = width(hull)
    if hull_width is None or math.isinf(hull_width):
        return math.inf
    width_a = width(a) or 0
    width_b = width(b) or 0
    growth = float(hull_width) - float(width_a) - float(width_b)
    return max(growth, 0.0) * (a.probability + b.probability) + 1e-9 * float(hull_width)


def _compact(ranges: List[StridedRange], max_ranges: int) -> Optional[List[StridedRange]]:
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
            for i in range(len(current)):
                for j in range(i + 1, len(current)):
                    hull = _hull_pair(current[i], current[j])
                    if hull is not None:
                        best = (math.inf, i, j, hull)
                        break
                if best is not None:
                    break
        if best is None:
            return None
        _, i, j, hull = best
        current = [r for k, r in enumerate(current) if k not in (i, j)]
        current.append(hull)
    return current


# -- evaluate_binop's pair loop -----------------------------------------------------


def evaluate_binop(op: str, a: RangeSet, b: RangeSet, max_ranges: int) -> RangeSet:
    """The un-interned ``range_arith.evaluate_binop`` (the production
    pairwise handlers, this module's set builder)."""
    if a.is_top or b.is_top:
        return TOP
    if a.is_bottom and b.is_bottom:
        return BOTTOM
    a_ranges = a.ranges if a.is_set else (FULL_RANGE,)
    b_ranges = b.ranges if b.is_set else (FULL_RANGE,)
    handler = _BINOP_HANDLERS.get(op)
    if handler is None:
        raise ValueError(f"unknown binary op {op!r}")
    out: List[StridedRange] = []
    for left in a_ranges:
        for right in b_ranges:
            counters.active().sub_operations += 1
            pair = handler(left, right)
            if pair is None:
                return BOTTOM
            out.append(pair)
    result = build_set(out, max_ranges, True)
    if (a.is_bottom or b.is_bottom) and _is_unbounded(result):
        return BOTTOM
    return result


# -- refine_set's per-range clipping ------------------------------------------------


def refine_set(src: RangeSet, op: str, bound: Bound, max_ranges: int) -> RangeSet:
    """The un-interned ``refine.refine_set``."""
    if src.is_top:
        return TOP
    if src.is_bottom:
        predicate = _predicate_range(op, bound)
        if predicate is None:
            return BOTTOM
        return build_set([predicate], DEFAULT_MAX_RANGES, False)
    kept: List[StridedRange] = []
    for r in src.ranges:
        clipped, fraction = _refine_range(r, op, bound)
        if clipped is not None and fraction > 0:
            probability = r.probability * fraction
            if probability != clipped.probability:
                clipped = reweighted(probability, clipped)
            kept.append(clipped)
    if not kept:
        return BOTTOM
    return build_set(kept, max_ranges, True)


def _predicate_range(op: str, bound: Bound) -> Optional[StridedRange]:
    if op == "lt":
        return strided_range(1.0, Bound.number(NEG_INF), bound.add_const(-1), 1)
    if op == "le":
        return strided_range(1.0, Bound.number(NEG_INF), bound, 1)
    if op == "gt":
        return strided_range(1.0, bound.add_const(1), Bound.number(POS_INF), 1)
    if op == "ge":
        return strided_range(1.0, bound, Bound.number(POS_INF), 1)
    if op == "eq":
        return strided_range(1.0, bound, bound, 0)
    if op == "ne":
        return None
    raise ValueError(f"unknown assertion relop {op!r}")


def _refine_range(r: StridedRange, op: str, bound: Bound):
    if op == "eq":
        return _refine_eq(r, bound)
    if op == "ne":
        return _refine_ne(r, bound)
    if op in ("lt", "le"):
        limit = bound.add_const(-1) if op == "lt" else bound
        return _clip_upper(r, limit)
    if op in ("gt", "ge"):
        limit = bound.add_const(1) if op == "gt" else bound
        return _clip_lower(r, limit)
    raise ValueError(f"unknown assertion relop {op!r}")


def _refine_eq(r: StridedRange, bound: Bound):
    if not _may_contain(r, bound):
        return None, 0.0
    pinned = strided_range(1.0, bound, bound, 0)
    n = count(r)
    fraction = 1.0 / n if n else 1.0
    return pinned, fraction


def _refine_ne(r: StridedRange, bound: Bound):
    if is_single(r):
        if bound_eq(r.lo, bound):
            return None, 0.0
        return r, 1.0
    n = count(r)
    if not _may_contain(r, bound):
        return r, 1.0
    stride = r.stride if r.stride else 1
    lo, hi = r.lo, r.hi
    if bound_eq(lo, bound):
        lo = lo.add_const(stride)
    elif bound_eq(hi, bound):
        hi = hi.add_const(-stride)
    order = compare(lo, hi)
    if order is not None and order > 0:
        return None, 0.0
    fraction = (n - 1) / n if n else 1.0
    return strided_range(1.0, lo, hi, r.stride), fraction


def _may_contain(r: StridedRange, bound: Bound) -> bool:
    below = compare(bound, r.lo)
    if below is not None and below < 0:
        return False
    above = compare(bound, r.hi)
    if above is not None and above > 0:
        return False
    gap = distance(r.lo, bound)
    if gap is not None and not math.isinf(gap) and r.stride > 1:
        if int(gap) % r.stride != 0:
            return False
    return True


def _clip_upper(r: StridedRange, limit: Bound):
    order_hi = compare(r.hi, limit)
    if order_hi is not None and order_hi <= 0:
        return r, 1.0
    order_lo = compare(r.lo, limit)
    if order_lo is None or (order_hi is None):
        return r, 1.0
    if order_lo > 0:
        return None, 0.0
    new_hi = _snap_down(r, limit)
    if new_hi is None:
        return None, 0.0
    clipped = strided_range(1.0, r.lo, new_hi, r.stride)
    return clipped, _kept_fraction(r, clipped)


def _clip_lower(r: StridedRange, limit: Bound):
    order_lo = compare(r.lo, limit)
    if order_lo is not None and order_lo >= 0:
        return r, 1.0
    order_hi = compare(r.hi, limit)
    if order_hi is None or order_lo is None:
        return r, 1.0
    if order_hi < 0:
        return None, 0.0
    new_lo = _snap_up(r, limit)
    if new_lo is None:
        return None, 0.0
    clipped = strided_range(1.0, new_lo, r.hi, r.stride)
    return clipped, _kept_fraction(r, clipped)


def _snap_down(r: StridedRange, limit: Bound) -> Optional[Bound]:
    gap = distance(r.lo, limit)
    if gap is None or math.isinf(gap):
        return _onto_phase_of_hi(r, limit, down=True)
    if gap < 0:
        return None
    stride = r.stride if r.stride else 1
    aligned = int(gap) // stride * stride
    return r.lo.add_const(aligned)


def _snap_up(r: StridedRange, limit: Bound) -> Optional[Bound]:
    gap = distance(r.lo, limit)
    if gap is None or math.isinf(gap):
        return _onto_phase_of_hi(r, limit, down=False)
    if gap <= 0:
        return r.lo
    stride = r.stride if r.stride else 1
    aligned = (int(gap) + stride - 1) // stride * stride
    candidate = r.lo.add_const(aligned)
    order = compare(candidate, r.hi)
    if order is not None and order > 0:
        return None
    return candidate


def _onto_phase_of_hi(r: StridedRange, limit: Bound, down: bool) -> Bound:
    # A range unbounded below has its phase at hi: points hi - k*stride.
    back = distance(limit, r.hi)
    if not r.lo.is_neg_inf() or back is None or math.isinf(back) or r.stride <= 1:
        return limit
    steps = -(-int(back) // r.stride) if down else int(back) // r.stride
    return r.hi.add_const(-steps * r.stride)


def _kept_fraction(original: StridedRange, clipped: StridedRange) -> float:
    count_before = count(original)
    count_after = count(clipped)
    if count_before and count_after:
        return min(1.0, count_after / count_before)
    width_before = width(original)
    width_after = width(clipped)
    if (
        width_before is not None
        and width_after is not None
        and not math.isinf(width_before)
        and width_before > 0
    ):
        return min(1.0, float(width_after) / float(width_before))
    return 1.0


# -- compare_sets' pair loop ----------------------------------------------------------


def compare_sets(op: str, a: RangeSet, b: RangeSet, a_name, b_name, exact_limit: int, symbol_range):
    """The uncached ``comparisons.compare_sets``: ``(known, unknown)``
    masses, or None when either side is ⊤/⊥."""
    if not (a.is_set and b.is_set):
        return None
    known = 0.0
    unknown = 0.0
    for ra in a.ranges:
        for rb in b.ranges:
            counters.active().sub_operations += 1
            weight = ra.probability * rb.probability
            fraction = _pair_fraction(op, ra, rb, a_name, b_name, exact_limit, symbol_range)
            if fraction is None:
                unknown += weight
            else:
                known += weight * fraction
    return known, unknown


def _pair_fraction(op, ra, rb, a_name, b_name, exact_limit, symbol_range):
    if b_name is not None and b_name in ra.symbols():
        rb = StridedRange.symbol(rb.probability, b_name)
    elif a_name is not None and a_name in rb.symbols():
        ra = StridedRange.symbol(ra.probability, a_name)
    fraction = _dispatch_fraction(op, ra, rb, exact_limit)
    if fraction is not None:
        return fraction
    if symbol_range is None:
        return None
    symbols = ra.symbols() | rb.symbols()
    if len(symbols) != 1:
        return None
    symbol = next(iter(symbols))
    distribution = symbol_range(symbol)
    if distribution is None or not distribution.is_set or not distribution.is_numeric():
        return None
    return _integrate(op, ra, rb, exact_limit, symbol, distribution)
