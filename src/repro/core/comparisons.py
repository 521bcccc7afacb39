"""Comparison probabilities between range sets.

Branch prediction in the paper is "simply consulting the value range of
the appropriate variable": the probability that ``lhs relop rhs`` holds
is computed by crossing the operands' weighted ranges, assuming an even
distribution inside each range and independence between operands --
*except* when one operand's range is symbolic in the other operand
itself (``x in [n-4:n-1]`` compared against ``n``), where the comparison
is resolved by offsets, which is exactly the paper's symbolic-range win.

Exact pair fractions are used whenever counting is cheap (arithmetic
progression intersection for ``==``, a linear sweep over the smaller
progression for orderings); wide ranges fall back to a continuous
uniform approximation.  Pairs whose bounds are incomparable contribute
*unknown* probability mass; callers decide when the unknown mass is
large enough to require heuristic fallback.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

from repro.core import counters
from repro.core.bounds import Bound
from repro.core.ranges import StridedRange
from repro.core.rangeset import RangeSet

DEFAULT_EXACT_LIMIT = 8192


class CompareOutcome:
    """Result of a probabilistic comparison.

    ``probability`` is the mass known to satisfy the predicate;
    ``unknown_mass`` is the mass whose outcome could not be determined.
    ``estimate()`` splits the unknown mass evenly (maximum entropy).
    """

    __slots__ = ("probability", "unknown_mass")

    def __init__(self, probability: float, unknown_mass: float):
        self.probability = probability
        self.unknown_mass = unknown_mass

    def estimate(self, neutral: float = 0.5) -> float:
        return min(1.0, max(0.0, self.probability + neutral * self.unknown_mass))

    def is_known(self, tolerance: float = 1e-9) -> bool:
        return self.unknown_mass <= tolerance

    def __repr__(self) -> str:
        return f"CompareOutcome(p={self.probability:.4g}, unknown={self.unknown_mass:.4g})"


def compare_sets(
    op: str,
    a: RangeSet,
    b: RangeSet,
    a_name: Optional[str] = None,
    b_name: Optional[str] = None,
    exact_limit: int = DEFAULT_EXACT_LIMIT,
    symbol_range=None,
    tally=None,
) -> Optional[CompareOutcome]:
    """Probability that ``a <op> b`` holds; None when either side is ⊤/⊥.

    ``a_name``/``b_name`` are the SSA names of the operands, enabling the
    correlated symbolic comparison described above.  ``symbol_range`` is
    an optional ``name -> RangeSet`` lookup: when a pair mixes absolute
    and symbolic bounds over one symbol whose own range is numeric (the
    triangular-loop case ``j in [0:i+1]`` versus ``i``), the fraction is
    computed by integrating over the symbol's distribution.
    Sub-operations are tallied in ``tally``, by default the active
    counters.
    """
    if not (a.is_set and b.is_set):
        return None
    known = 0.0
    unknown = 0.0
    if tally is None:
        tally = counters.active()
    for ra in a.ranges:
        for rb in b.ranges:
            tally.sub_operations += 1
            weight = ra.probability * rb.probability
            pair = _correlated(ra, rb, a_name, b_name)
            fraction = _dispatch_fraction(op, *pair, exact_limit)
            if fraction is None:
                # Unknown from the extents: average over the pair's one
                # symbol's live range when that is numeric.
                symbols = pair[0].symbols() | pair[1].symbols()
                if len(symbols) == 1:
                    symbol = next(iter(symbols))
                    live = None if symbol_range is None else symbol_range(symbol)
                    if live is not None and live.is_set and live.is_numeric():
                        fraction = _integrate(op, *pair, exact_limit, symbol, live)
            if fraction is None:
                unknown += weight
            else:
                known += weight * fraction
    return CompareOutcome(known, unknown)


# ---------------------------------------------------------------------------
# pair-level comparison
# ---------------------------------------------------------------------------


def _correlated(
    ra: StridedRange, rb: StridedRange, a_name: Optional[str], b_name: Optional[str]
) -> Tuple[StridedRange, StridedRange]:
    """The pair as compared.  Correlated comparison: when a's range is
    expressed relative to the very variable on the other side (or vice
    versa), that side is the bare symbol."""
    if b_name is not None and b_name in (ra.lo.symbol, ra.hi.symbol):
        rb = StridedRange.symbol(rb.probability, b_name)
    elif a_name is not None and a_name in (rb.lo.symbol, rb.hi.symbol):
        ra = StridedRange.symbol(ra.probability, a_name)
    return ra, rb


def _dispatch_fraction(
    op: str, ra: StridedRange, rb: StridedRange, exact_limit: int
) -> Optional[float]:
    if op == "eq":
        return _fraction_eq(ra, rb, exact_limit)
    if op == "ne":
        eq = _fraction_eq(ra, rb, exact_limit)
        return None if eq is None else 1.0 - eq
    if op == "lt":
        return _fraction_lt(ra, rb, exact_limit)
    if op == "gt":
        return _fraction_lt(rb, ra, exact_limit)
    if op == "le":
        gt = _fraction_lt(rb, ra, exact_limit)
        return None if gt is None else 1.0 - gt
    if op == "ge":
        lt = _fraction_lt(ra, rb, exact_limit)
        return None if lt is None else 1.0 - lt
    raise ValueError(f"unknown comparison op {op!r}")


# How many sample points integration uses for wide symbol ranges.
_INTEGRATION_SAMPLES = 64


def _integrate(
    op: str,
    ra: StridedRange,
    rb: StridedRange,
    exact_limit: int,
    symbol: str,
    distribution: RangeSet,
) -> Optional[float]:
    """Average the pair fraction over ``symbol``'s numeric range set.

    Handles mixed-basis pairs like ``j in [0 : i+1]`` compared against
    ``i`` when ``i``'s range is numeric: for each candidate value of the
    symbol both sides are instantiated (preserving the correlation) and
    the resulting numeric fractions averaged.  Values of the symbol that
    make a range empty are excluded and the remainder renormalised.
    """
    accumulated = 0.0
    valid_weight = 0.0
    for symbol_piece in distribution.ranges:
        count = symbol_piece.count()
        if count is None:
            return None
        points = _sample_points(symbol_piece, count)
        if not points:
            return None
        point_weight = symbol_piece.probability / len(points)
        for value in points:
            ra_inst = _instantiate(ra, symbol, value)
            rb_inst = _instantiate(rb, symbol, value)
            if ra_inst is None or rb_inst is None:
                continue  # symbol value makes a side empty: impossible here
            fraction = _dispatch_fraction(op, ra_inst, rb_inst, exact_limit)
            if fraction is None:
                return None
            accumulated += point_weight * fraction
            valid_weight += point_weight
    if valid_weight <= 0.0:
        return None
    return accumulated / valid_weight


def _sample_points(piece: StridedRange, count: int) -> list:
    lo = int(piece.lo.offset)
    stride = piece.stride if piece.stride else 1
    if count <= _INTEGRATION_SAMPLES:
        return [lo + i * stride for i in range(count)]
    # Evenly spaced sample across the progression.
    step = (count - 1) / (_INTEGRATION_SAMPLES - 1)
    return [lo + int(round(i * step)) * stride for i in range(_INTEGRATION_SAMPLES)]


def _instantiate(
    r: StridedRange, symbol: str, value: int
) -> Optional[StridedRange]:
    """Substitute a concrete value for the symbol in a range's bounds."""
    lo = Bound.number(value + r.lo.offset) if r.lo.symbol == symbol else r.lo
    hi = Bound.number(value + r.hi.offset) if r.hi.symbol == symbol else r.hi
    order = lo.compare(hi)
    if order is not None and order > 0:
        return None
    return StridedRange(1.0, lo, hi, r.stride)


def _decisive(ra: StridedRange, rb: StridedRange) -> Optional[float]:
    """Certain outcomes decidable from bound ordering alone (works for
    infinite and symbolic bounds)."""
    hi_lo = ra.hi.compare(rb.lo)
    if hi_lo is not None and hi_lo < 0:
        return 1.0  # every a < every b
    lo_hi = ra.lo.compare(rb.hi)
    if lo_hi is not None and lo_hi >= 0:
        return 0.0  # every a >= every b
    return None


def _fraction_lt(ra: StridedRange, rb: StridedRange, exact_limit: int) -> Optional[float]:
    decisive = _decisive(ra, rb)
    if decisive is not None:
        return decisive
    basis = _common_basis(ra, rb)
    if basis is None:
        return None
    (a_lo, a_hi, sa, na), (b_lo, b_hi, sb, nb) = basis
    if na is None or nb is None:
        return None  # unbounded overlap: no distribution to integrate
    if min(na, nb) <= exact_limit:
        if na <= nb:
            return _exact_lt_sweep(a_lo, sa, na, b_lo, sb, nb)
        gt = _exact_lt_sweep(b_lo, sb, nb, a_lo, sa, na)
        eq = _exact_eq(a_lo, a_hi, sa, na, b_lo, b_hi, sb, nb)
        return 1.0 - gt - eq
    return _continuous_lt(a_lo, a_hi, b_lo, b_hi)


def _fraction_eq(ra: StridedRange, rb: StridedRange, exact_limit: int) -> Optional[float]:
    # Disjoint ranges can never be equal.
    hi_lo = ra.hi.compare(rb.lo)
    if hi_lo is not None and hi_lo < 0:
        return 0.0
    lo_hi = ra.lo.compare(rb.hi)
    if lo_hi is not None and lo_hi > 0:
        return 0.0
    if ra.is_single() and rb.is_single():
        order = ra.lo.compare(rb.lo)
        return None if order is None else (1.0 if order == 0 else 0.0)
    basis = _common_basis(ra, rb)
    if basis is None:
        return None
    (a_lo, a_hi, sa, na), (b_lo, b_hi, sb, nb) = basis
    if na is None or nb is None:
        return None
    return _exact_eq(a_lo, a_hi, sa, na, b_lo, b_hi, sb, nb)


def _common_basis(
    ra: StridedRange, rb: StridedRange
) -> Optional[Tuple[Tuple, Tuple]]:
    """Reduce both ranges to numeric progressions over a shared basis.

    Works when all four bounds are numeric, or all carry the same symbol
    (offsets then form the progression).  Returns
    ``((lo, hi, stride, count), (lo, hi, stride, count))`` with count None
    for unbounded ranges.
    """
    symbols = ra.symbols() | rb.symbols()
    if len(symbols) > 1:
        return None
    if len(symbols) == 1:
        symbol = next(iter(symbols))
        bounds = (ra.lo, ra.hi, rb.lo, rb.hi)
        if any(b.symbol not in (symbol, None) for b in bounds):
            return None
        if any(b.symbol is None and b.is_finite() for b in bounds):
            return None  # mixing absolute numbers with symbolic offsets
    return (
        (ra.lo.offset, ra.hi.offset, ra.stride, ra.count()),
        (rb.lo.offset, rb.hi.offset, rb.stride, rb.count()),
    )


def _exact_lt_sweep(a_lo, sa, na, b_lo, sb, nb) -> float:
    """Exact P(a < b): sweep the smaller progression, count in the other."""
    if sb == 0:
        sb_count = lambda x: nb if b_lo > x else 0  # single value b_lo
    else:
        def sb_count(x):
            # number of b values strictly greater than x
            if b_lo > x:
                return nb
            le = int((x - b_lo) // sb) + 1
            return max(0, nb - min(le, nb))
    step = sa if sa else 1
    total = 0
    value = a_lo
    for _ in range(na):
        total += sb_count(value)
        value += step
    return total / (na * nb)


def _exact_eq(a_lo, a_hi, sa, na, b_lo, b_hi, sb, nb) -> float:
    """Exact P(a == b) via arithmetic-progression intersection."""
    sa_eff = sa if sa else 1
    sb_eff = sb if sb else 1
    lo = max(a_lo, b_lo)
    hi = min(a_hi, b_hi)
    if lo > hi:
        return 0.0
    g = math.gcd(sa_eff, sb_eff)
    if (b_lo - a_lo) % g != 0:
        return 0.0
    lcm = sa_eff * sb_eff // g
    first = _first_common(a_lo, sa_eff, b_lo, sb_eff, lo)
    if first is None or first > hi:
        return 0.0
    common = int((hi - first) // lcm) + 1
    return common / (na * nb)


def _first_common(a_lo, sa, b_lo, sb, at_least) -> Optional[int]:
    """Smallest value >= at_least in both progressions (CRT-style search)."""
    g = math.gcd(sa, sb)
    diff = b_lo - a_lo
    if diff % g != 0:
        return None
    lcm = sa * sb // g
    # Solve a_lo + i*sa == b_lo (mod sb): i == diff/g * inv(sa/g) (mod sb/g)
    sa_red, sb_red = sa // g, sb // g
    try:
        inverse = pow(sa_red, -1, sb_red) if sb_red > 1 else 0
    except ValueError:
        return None
    i0 = (diff // g * inverse) % sb_red if sb_red > 0 else 0
    candidate = a_lo + i0 * sa
    # candidate is the smallest common point >= a_lo; shift to >= max(b_lo, at_least)
    target = max(b_lo, at_least, a_lo)
    if candidate < target:
        steps = (target - candidate + lcm - 1) // lcm
        candidate += steps * lcm
    return int(candidate)


def _continuous_lt(a_lo, a_hi, b_lo, b_hi) -> Optional[float]:
    """P(A < B) for independent uniforms; degenerate widths handled."""
    if any(math.isinf(v) for v in (a_lo, a_hi, b_lo, b_hi)):
        return None
    wa = a_hi - a_lo
    wb = b_hi - b_lo
    if wa == 0 and wb == 0:
        return 1.0 if a_lo < b_lo else 0.0
    if wa == 0:
        return _clamp01((b_hi - a_lo) / wb)
    if wb == 0:
        return _clamp01((b_lo - a_lo) / wa)
    # Integrate P(B > x) over x uniform in [a_lo, a_hi].
    # P(B > x) is 1 for x < b_lo, 0 for x > b_hi, linear in between.
    left = max(a_lo, b_lo)
    right = min(a_hi, b_hi)
    prob = max(0.0, (min(a_hi, b_lo) - a_lo)) / wa  # region where B certainly bigger
    if right > left:
        # average of the linear section over [left, right]
        mid_lo = (b_hi - left) / wb
        mid_hi = (b_hi - right) / wb
        prob += ((mid_lo + mid_hi) / 2.0) * ((right - left) / wa)
    return _clamp01(prob)


def _clamp01(value: float) -> float:
    return min(1.0, max(0.0, value))
