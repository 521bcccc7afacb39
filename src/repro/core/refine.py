"""Range refinement under branch assertions (Pi nodes).

On the true edge of ``branch x < B`` the asserted variable's range is the
conditional distribution of its old range given ``x < B``: each
constituent range is clipped against the bound, kept mass is
renormalised.  When the source range is ⊥ the assertion *creates*
information -- a half-open range like ``[-inf : B-1]`` -- which is how
one-sided facts such as ``n > 0`` enter the analysis.

Bounds may be numeric constants or symbolic (the other operand's SSA
name), giving the paper's ``x > y + 2``-style symbolic ranges.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

from repro.core.bounds import Bound, NEG_INF, POS_INF
from repro.core.ranges import StridedRange
from repro.core.rangeset import BOTTOM, DEFAULT_MAX_RANGES, RangeSet, TOP


def refine_set(
    src: RangeSet,
    op: str,
    bound: Bound,
    max_ranges: int = DEFAULT_MAX_RANGES,
) -> RangeSet:
    """The range of a value drawn from ``src`` given that ``value op bound``.

    ⊤ stays ⊤ (the operand has not been evaluated yet); ⊥ becomes the
    pure predicate range; a contradiction (no value can satisfy the
    assertion) yields ⊥ -- the edge is then effectively never taken.
    """
    if src.is_top:
        return TOP
    if src.is_bottom:
        predicate = _predicate_range(op, bound)
        if predicate is None:
            return BOTTOM
        return RangeSet.from_ranges([predicate])
    refine, limit = _range_refiner(op, bound)
    kept: List[StridedRange] = []
    for r in src.ranges:
        clipped, fraction = refine(r, limit)
        if clipped is not None and fraction > 0:
            kept.append(clipped.with_probability(r.probability * fraction))
    if not kept:
        return BOTTOM
    return RangeSet.from_ranges(kept, max_ranges, renormalise=True)


def _predicate_range(op: str, bound: Bound) -> Optional[StridedRange]:
    """The range implied by the predicate alone (source unknown)."""
    if op == "lt":
        hi = bound.add_const(-1)
        return StridedRange(1.0, Bound.number(NEG_INF), hi, 1)
    if op == "le":
        return StridedRange(1.0, Bound.number(NEG_INF), bound, 1)
    if op == "gt":
        lo = bound.add_const(1)
        return StridedRange(1.0, lo, Bound.number(POS_INF), 1)
    if op == "ge":
        return StridedRange(1.0, bound, Bound.number(POS_INF), 1)
    if op == "eq":
        return StridedRange(1.0, bound, bound, 0)
    if op == "ne":
        return None  # a hole is not representable; stay ⊥
    raise ValueError(f"unknown assertion relop {op!r}")


def _range_refiner(op: str, bound: Bound):
    """``(refine, limit)``: ``refine(r, limit)`` clips one range against
    the predicate, returning ``(kept_range, kept_fraction)``, and
    ``(None, 0)`` when nothing survives.  Incomparable bases keep the
    range unchanged (no weight adjustment) except for ``eq``, which
    always pins the value.
    """
    if op == "eq":
        return _refine_eq, bound
    if op == "ne":
        return _refine_ne, bound
    if op in ("lt", "le"):
        return _clip_upper, bound.add_const(-1) if op == "lt" else bound
    if op in ("gt", "ge"):
        return _clip_lower, bound.add_const(1) if op == "gt" else bound
    raise ValueError(f"unknown assertion relop {op!r}")


def _refine_eq(r: StridedRange, bound: Bound) -> Tuple[Optional[StridedRange], float]:
    if not _may_contain(r, bound):
        return None, 0.0
    pinned = StridedRange(1.0, bound, bound, 0)
    count = r.count()
    fraction = 1.0 / count if count else 1.0
    return pinned, fraction


def _refine_ne(r: StridedRange, bound: Bound) -> Tuple[Optional[StridedRange], float]:
    if r.is_single():
        if r.lo == bound:
            return None, 0.0
        return r, 1.0
    count = r.count()
    if not _may_contain(r, bound):
        return r, 1.0
    stride = r.stride if r.stride else 1
    lo, hi = r.lo, r.hi
    if lo == bound:
        lo = lo.add_const(stride)
    elif hi == bound:
        hi = hi.add_const(-stride)
    order = lo.compare(hi)
    if order is not None and order > 0:
        return None, 0.0
    fraction = (count - 1) / count if count else 1.0
    return StridedRange(1.0, lo, hi, r.stride), fraction


def _may_contain(r: StridedRange, bound: Bound) -> bool:
    """False only when the range provably excludes the bound."""
    below = bound.compare(r.lo)
    if below is not None and below < 0:
        return False
    above = bound.compare(r.hi)
    if above is not None and above > 0:
        return False
    # Progression membership when the phase is checkable.
    gap = r.lo.distance(bound)
    if gap is not None and not math.isinf(gap) and r.stride > 1:
        if gap % r.stride != 0:
            return False
    return True


def _clip_upper(r: StridedRange, limit: Bound) -> Tuple[Optional[StridedRange], float]:
    """Keep values <= limit."""
    order_hi = r.hi.compare(limit)
    if order_hi is not None and order_hi <= 0:
        return r, 1.0  # entirely below the limit
    order_lo = r.lo.compare(limit)
    if order_lo is None or (order_hi is None):
        return r, 1.0  # incomparable basis: leave unchanged
    if order_lo > 0:
        return None, 0.0  # entirely above the limit
    new_hi = _snap_down(r, limit)
    if new_hi is None:
        return None, 0.0
    clipped = StridedRange(1.0, r.lo, new_hi, r.stride)
    return clipped, _kept_fraction(r, clipped)


def _clip_lower(r: StridedRange, limit: Bound) -> Tuple[Optional[StridedRange], float]:
    """Keep values >= limit."""
    order_lo = r.lo.compare(limit)
    if order_lo is not None and order_lo >= 0:
        return r, 1.0
    order_hi = r.hi.compare(limit)
    if order_hi is None or order_lo is None:
        return r, 1.0
    if order_hi < 0:
        return None, 0.0
    new_lo = _snap_up(r, limit)
    if new_lo is None:
        return None, 0.0
    clipped = StridedRange(1.0, new_lo, r.hi, r.stride)
    return clipped, _kept_fraction(r, clipped)


def _snap_down(r: StridedRange, limit: Bound) -> Optional[Bound]:
    """Largest progression point <= limit (phase-preserving when possible)."""
    gap = r.lo.distance(limit)
    if gap is None or math.isinf(gap):
        return _onto_phase_of_hi(r, limit, down=True)
    if gap < 0:
        return None
    stride = r.stride if r.stride else 1
    aligned = gap // stride * stride
    return r.lo.add_const(aligned)


def _snap_up(r: StridedRange, limit: Bound) -> Optional[Bound]:
    """Smallest progression point >= limit (phase-preserving when possible)."""
    gap = r.lo.distance(limit)
    if gap is None or math.isinf(gap):
        return _onto_phase_of_hi(r, limit, down=False)
    if gap <= 0:
        return r.lo
    stride = r.stride if r.stride else 1
    aligned = (gap + stride - 1) // stride * stride
    candidate = r.lo.add_const(aligned)
    order = candidate.compare(r.hi)
    if order is not None and order > 0:
        return None
    return candidate


def _onto_phase_of_hi(r: StridedRange, limit: Bound, down: bool) -> Bound:
    """``limit`` moved down (or up) onto the progression of a range whose
    ``lo`` carries no phase (``-inf``): its points are ``hi - k*stride``.
    ``limit`` itself when ``hi`` is no anchor either, or ``lo`` is a
    symbol (whose phase is unknown)."""
    back = limit.distance(r.hi)
    if not r.lo.is_neg_inf() or back is None or math.isinf(back) or r.stride <= 1:
        return limit
    steps = -(-back // r.stride) if down else back // r.stride
    return r.hi.add_const(-steps * r.stride)


def _kept_fraction(original: StridedRange, clipped: StridedRange) -> float:
    """The share of ``original``'s values that ``clipped`` keeps; 1 when
    either count is unknowable (an unbounded or incomparable width)."""
    count_before = original.count()
    count_after = clipped.count()
    if count_before and count_after:
        return min(1.0, count_after / count_before)
    return 1.0
