"""Arithmetic over range sets (paper §3.5).

Binary operations cross every range of the left set with every range of
the right set -- up to R² pairwise *sub-operations* per evaluation, each
tallied in the active :mod:`~repro.core.counters` (Figure 6 reproduces
the sub-operation counts).  A pair that cannot be represented (symbolic
product, division by a range containing zero, ...) makes the whole
result ⊥, exactly as the paper's "problematic ranges quickly become ⊥".

Arithmetic follows the toy language's semantics, which are Python's:
floor division, floor modulo (sign of divisor), arithmetic shifts.

A loop lap that only reweights its operands replays the set plan its
instruction's record holds for both shapes (see :mod:`repro.core.rangeset`)
without visiting a pair: it recombines the pair products into the
result, looks a result over the range cap up under its pairs' extents
and weights, or replays "pair k is ⊥".  Either way every pair tallies
its sub-operation, as the pair loop does.  The pair loop calls each
pair handler afresh; it runs on a plan's first evaluation, on a ⊥
operand, and on a lap that drops a weight at or below ``PROB_EPSILON``.
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional

from repro.core import counters
from repro.core.bounds import Bound, NEG_INF, Number, POS_INF, bound_max, bound_min
from repro.core.ranges import StridedRange
from repro.core.rangeset import (
    BOTTOM,
    DEFAULT_MAX_RANGES,
    PlanRecord,
    RangeSet,
    TOP,
    build_planned,
    replay_plan,
)


# The "anything" range: stands in for a ⊥ operand so that bounding
# operations (mod, masking, ...) can still constrain the result.
FULL_RANGE = StridedRange(1.0, Bound.number(NEG_INF), Bound.number(POS_INF), 1)


def evaluate_binop(
    op: str,
    a: RangeSet,
    b: RangeSet,
    max_ranges: int = DEFAULT_MAX_RANGES,
    tally=None,
    record: Optional[PlanRecord] = None,
) -> RangeSet:
    """Evaluate ``a <op> b`` over range sets.

    A ⊥ operand is modelled as the full range ``[-inf:+inf]``: most
    operations then stay unbounded and collapse back to ⊥, but the ones
    that bound their result regardless of one input -- ``x % 70`` is in
    ``[0:69]`` whatever ``x`` holds -- recover a usable range, exactly
    the fact a compiler knows statically.  Sub-operations are tallied
    in ``tally``, by default the active counters.  ``record`` keeps the
    set plan of two sets (:func:`~repro.core.rangeset.build_planned`),
    or the ``int`` index of their first ⊥ pair.  Every pair handler gives
    its result the probability ``left.probability * right.probability``
    and reads nothing else of the probabilities, so a replay recomputes
    exactly those products.
    """
    if a.is_top or b.is_top:
        return TOP
    if a.is_bottom and b.is_bottom:
        return BOTTOM
    a_ranges = a.ranges if a.is_set else (FULL_RANGE,)
    b_ranges = b.ranges if b.is_set else (FULL_RANGE,)
    handler = _BINOP_HANDLERS.get(op)
    if handler is None:
        raise ValueError(f"unknown binary op {op!r}")
    if tally is None:
        tally = counters.active()
    shapes = None  # set when ``record`` keeps what this call builds
    if record is not None and a.is_set and b.is_set:
        shapes = (a.shape, b.shape)
        if record.shapes == shapes:
            plan = record.plan
            if plan.__class__ is int:
                tally.sub_operations += plan + 1
                return BOTTOM
            weights = [
                left.probability * right.probability for left in a_ranges for right in b_ranges
            ]
            result = replay_plan(plan, weights)
            if result is not None:
                tally.sub_operations += len(weights)
                return result
    out: List[StridedRange] = []
    for left in a_ranges:
        for right in b_ranges:
            tally.sub_operations += 1
            pair = handler(left, right)
            if pair is None:
                if shapes is not None:
                    record.shapes, record.plan = shapes, len(out)
                return BOTTOM
            out.append(pair)
    if a.is_set and b.is_set:
        result, plan = build_planned(out, max_ranges)
        if shapes is not None and plan is not None:
            record.shapes, record.plan = shapes, plan
        return result
    result = RangeSet.from_ranges(out, max_ranges=max_ranges, renormalise=True)
    if (a.is_bottom or b.is_bottom) and _is_unbounded(result):
        return BOTTOM  # no information was recovered
    return result


def _is_unbounded(result: RangeSet) -> bool:
    if not result.is_set:
        return True
    hull = result.hull()
    if hull is None:
        return False
    return hull.lo.is_neg_inf() and hull.hi.is_pos_inf()


def evaluate_unop(
    op: str, a: RangeSet, max_ranges: int = DEFAULT_MAX_RANGES
) -> RangeSet:
    """Evaluate a unary op over a range set."""
    if a.is_bottom:
        return BOTTOM
    if a.is_top:
        return TOP
    out: List[StridedRange] = []
    tally = counters.active()
    for r in a.ranges:
        tally.sub_operations += 1
        if op == "neg":
            single = _negate(r)
        elif op == "not":
            single = None  # 'not' is lowered to cmp.eq 0; no direct handler
        else:
            raise ValueError(f"unknown unary op {op!r}")
        if single is None:
            return BOTTOM
        out.append(single)
    return RangeSet.from_ranges(out, max_ranges=max_ranges, renormalise=True)


# ---------------------------------------------------------------------------
# pairwise handlers -- each returns None when unrepresentable
# ---------------------------------------------------------------------------


def _combined_stride(a: StridedRange, b: StridedRange) -> int:
    """Stride of a sum/difference: singles preserve the other's stride,
    otherwise the gcd (matching the paper's worked example)."""
    if a.is_single():
        return b.stride
    if b.is_single():
        return a.stride
    return math.gcd(a.stride, b.stride)


def _add(a: StridedRange, b: StridedRange) -> Optional[StridedRange]:
    lo = a.lo.add(b.lo)
    hi = a.hi.add(b.hi)
    if lo is None or hi is None:
        return None
    return StridedRange(a.probability * b.probability, lo, hi, _combined_stride(a, b))


def _sub(a: StridedRange, b: StridedRange) -> Optional[StridedRange]:
    lo = a.lo.sub(b.hi)
    hi = a.hi.sub(b.lo)
    if lo is None or hi is None:
        return None
    order = lo.compare(hi)
    if order is None or order > 0:
        return None
    return StridedRange(a.probability * b.probability, lo, hi, _combined_stride(a, b))


def _negate(a: StridedRange) -> Optional[StridedRange]:
    lo = a.hi.negate()
    hi = a.lo.negate()
    if lo is None or hi is None:
        return None
    return StridedRange(a.probability, lo, hi, a.stride)


def _numeric_endpoints(r: StridedRange) -> Optional[tuple]:
    if not r.is_numeric():
        return None
    return (r.lo.offset, r.hi.offset)


def _mul(a: StridedRange, b: StridedRange) -> Optional[StridedRange]:
    probability = a.probability * b.probability
    # Single constant times a range scales bounds and stride.
    for single, other in ((a, b), (b, a)):
        factor = _single_value(single)
        if factor is not None:
            return _scale_range(other, factor, probability)
    ends_a = _numeric_endpoints(a)
    ends_b = _numeric_endpoints(b)
    if ends_a is None or ends_b is None:
        return None
    products = [_mul_num(x, y) for x in ends_a for y in ends_b]
    return StridedRange(
        probability, Bound.number(min(products)), Bound.number(max(products)), 1
    )


def _mul_num(x: Number, y: Number) -> Number:
    if (x == 0 and math.isinf(y)) or (y == 0 and math.isinf(x)):
        return 0
    return x * y


def _scale_range(r: StridedRange, factor: int, probability: float) -> Optional[StridedRange]:
    if factor == 0:
        return StridedRange.single(probability, 0)
    lo = r.lo.scale(factor)
    hi = r.hi.scale(factor)
    if lo is None or hi is None:
        return None
    if factor < 0:
        lo, hi = hi, lo
    return StridedRange(probability, lo, hi, abs(factor) * r.stride)


def _floordiv_num(x: Number, y: Number) -> Number:
    if math.isinf(x):
        return x if y > 0 else -x
    if math.isinf(y):
        return 0 if x >= 0 else -1  # floor semantics toward the divisor sign
    return x // y


def _div(a: StridedRange, b: StridedRange) -> Optional[StridedRange]:
    probability = a.probability * b.probability
    ends_b = _numeric_endpoints(b)
    if ends_b is None:
        # x / same-symbol single? Only division by literal 1 keeps symbols.
        if b.is_single() and b.lo == Bound.number(1):
            return a.with_probability(probability)
        return None
    b_lo, b_hi = ends_b
    if b_lo <= 0 <= b_hi:
        return None  # divisor may be zero: unpredictable (runtime trap)
    if b_lo == math.inf:
        return None  # no integer divides by +inf, as in shr, mod and and
    if a.lo.symbol is not None or a.hi.symbol is not None:
        if b.is_single() and b_lo == 1:
            return a.with_probability(probability)
        return None
    ends_a = _numeric_endpoints(a)
    assert ends_a is not None
    quotients = [_floordiv_num(x, y) for x in ends_a for y in ends_b]
    stride = 1
    if b.is_single() and a.stride and b_lo > 0 and a.stride % int(b_lo) == 0:
        stride = a.stride // int(b_lo)
    return StridedRange(
        probability, Bound.number(min(quotients)), Bound.number(max(quotients)), stride
    )


def _mod(a: StridedRange, b: StridedRange) -> Optional[StridedRange]:
    probability = a.probability * b.probability
    modulus = _single_value(b)
    if modulus is None or modulus == 0:
        return None
    if modulus < 0:
        return None  # rare; keep the algebra simple and give up
    ends_a = _numeric_endpoints(a)
    if ends_a is not None and 0 <= ends_a[0] and ends_a[1] < modulus:
        return a.with_probability(probability)  # already reduced
    # Python floor modulo lands in [0, modulus); the residues of an
    # arithmetic progression all agree with lo modulo gcd(stride, modulus),
    # so the result is the phase-correct window of that sub-progression.
    stride = math.gcd(a.stride, modulus)
    if stride == 0:
        stride = 1
    phase = 0
    if ends_a is not None and not math.isinf(ends_a[0]):
        phase = ends_a[0] % stride
    hi = phase + (modulus - 1 - phase) // stride * stride
    return StridedRange(probability, Bound.number(phase), Bound.number(hi), stride)


def _shl(a: StridedRange, b: StridedRange) -> Optional[StridedRange]:
    shift = _small_constant(b)
    if shift is None or shift < 0:
        return None
    return _scale_range(a, 2 ** shift, a.probability * b.probability)


def _shr(a: StridedRange, b: StridedRange) -> Optional[StridedRange]:
    shift = _small_constant(b)
    if shift is None or shift < 0:
        return None
    divisor = StridedRange.single(b.probability, 2 ** shift)
    return _div(a, divisor)


def _small_constant(r: StridedRange) -> Optional[int]:
    value = _single_value(r)
    if value is not None and abs(value) < 64:
        return value
    return None


def _bit_and(a: StridedRange, b: StridedRange) -> Optional[StridedRange]:
    probability = a.probability * b.probability
    const_a = _single_value(a)
    const_b = _single_value(b)
    if const_a is not None and const_b is not None:
        return StridedRange.single(probability, const_a & const_b)
    # x & mask with a non-negative mask lands in [0:mask] whatever x is
    # (Python/two's-complement semantics); a known-non-negative x
    # tightens the top end further.
    for mask_range, other in ((b, a), (a, b)):
        mask = _single_value(mask_range)
        if mask is not None and mask >= 0:
            hi = mask
            if _non_negative(other):
                ends = _numeric_endpoints(other)
                if ends is not None and not math.isinf(ends[1]):
                    hi = min(mask, ends[1])
            return StridedRange(probability, Bound.number(0), Bound.number(hi), 1)
    return None


def _bit_or(a: StridedRange, b: StridedRange) -> Optional[StridedRange]:
    probability = a.probability * b.probability
    const_a = _single_value(a)
    const_b = _single_value(b)
    if const_a is not None and const_b is not None:
        return StridedRange.single(probability, const_a | const_b)
    return _bit_span(a, b, probability)


def _bit_xor(a: StridedRange, b: StridedRange) -> Optional[StridedRange]:
    probability = a.probability * b.probability
    const_a = _single_value(a)
    const_b = _single_value(b)
    if const_a is not None and const_b is not None:
        return StridedRange.single(probability, const_a ^ const_b)
    return _bit_span(a, b, probability)


def _bit_span(a: StridedRange, b: StridedRange, probability: float) -> Optional[StridedRange]:
    """or/xor of non-negative ranges stay below the next power of two."""
    if not (_non_negative(a) and _non_negative(b)):
        return None
    ends_a = _numeric_endpoints(a)
    ends_b = _numeric_endpoints(b)
    if ends_a is None or ends_b is None:
        return None
    hi = max(ends_a[1], ends_b[1])
    if math.isinf(hi):
        return None
    bits = max(1, hi.bit_length())
    return StridedRange(probability, Bound.number(0), Bound.number(2 ** bits - 1), 1)


def _minmax(pick: Callable) -> Callable:
    def handler(a: StridedRange, b: StridedRange) -> Optional[StridedRange]:
        lo = pick(a.lo, b.lo)
        hi = pick(a.hi, b.hi)
        if lo is None or hi is None:
            return None
        # Results come from either progression, so the stride must also
        # divide their phase difference to stay sound.
        stride = math.gcd(a.stride, b.stride)
        offset_gap = a.lo.distance(b.lo)
        if offset_gap is not None and not math.isinf(offset_gap):
            stride = math.gcd(stride, offset_gap)
        else:
            stride = 1
        return StridedRange(a.probability * b.probability, lo, hi, stride or 1)

    return handler


def _single_value(r: StridedRange) -> Optional[int]:
    if r.is_single() and r.lo.is_numeric() and r.lo.is_finite():
        return r.lo.offset
    return None


def _non_negative(r: StridedRange) -> bool:
    return r.lo.is_numeric() and r.lo.offset >= 0


_BINOP_HANDLERS = {
    "add": _add,
    "sub": _sub,
    "mul": _mul,
    "div": _div,
    "mod": _mod,
    "shl": _shl,
    "shr": _shr,
    "and": _bit_and,
    "or": _bit_or,
    "xor": _bit_xor,
    "min": _minmax(bound_min),
    "max": _minmax(bound_max),
}
