"""Weighted strided ranges: the paper's ``P[L:U:S]`` building block.

A :class:`StridedRange` is a probability-weighted arithmetic progression
``{L, L+S, L+2S, ..., U}``.  ``S == 0`` encodes a single value (``L == U``).
Bounds may be symbolic (``n-1``) or infinite on the numeric side; an even
distribution over the progression is assumed (uneven distributions are
expressed as several ranges, exactly as in the paper).
"""

from __future__ import annotations

import math
from typing import Optional

from repro.core.bounds import Bound, NEG_INF, POS_INF, Number
from repro.core.perf.context import is_active as _perf_active


class RangeError(ValueError):
    """Raised when constructing a malformed strided range."""


class StridedRange:
    """Immutable weighted range ``probability[lo:hi:stride]``."""

    __slots__ = ("probability", "lo", "hi", "stride", "_hash")

    def __init__(self, probability: float, lo: Bound, hi: Bound, stride: int):
        if probability < 0:
            raise RangeError(f"negative probability {probability}")
        if stride < 0:
            raise RangeError(f"negative stride {stride}")
        order = lo.compare(hi)
        if order is not None and order > 0:
            raise RangeError(f"inverted range [{lo}:{hi}]")
        lo, hi, stride = _normalise(lo, hi, stride)
        self.probability = float(probability)
        self.lo = lo
        self.hi = hi
        self.stride = stride
        self._hash = None

    @classmethod
    def _reweighted(
        cls, probability: float, source: "StridedRange"
    ) -> "StridedRange":
        """Same extent as ``source`` with a new probability, skipping
        validation and normalisation (both idempotent on an existing
        range).  Perf-layer fast path for :meth:`scaled`/
        :meth:`with_probability`."""
        self = cls.__new__(cls)
        self.probability = float(probability)
        self.lo = source.lo
        self.hi = source.hi
        self.stride = source.stride
        self._hash = None
        return self

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def single(probability: float, value: Number) -> "StridedRange":
        bound = Bound.number(value)
        return StridedRange(probability, bound, bound, 0)

    @staticmethod
    def span(probability: float, lo: Number, hi: Number, stride: int = 1) -> "StridedRange":
        return StridedRange(probability, Bound.number(lo), Bound.number(hi), stride)

    @staticmethod
    def symbol(probability: float, name: str, offset: Number = 0) -> "StridedRange":
        bound = Bound.symbolic(name, offset)
        return StridedRange(probability, bound, bound, 0)

    # -- shape queries -----------------------------------------------------------

    def is_single(self) -> bool:
        return self.lo == self.hi

    def is_numeric(self) -> bool:
        return self.lo.is_numeric() and self.hi.is_numeric()

    def is_finite(self) -> bool:
        return self.lo.is_finite() and self.hi.is_finite()

    def symbols(self) -> set:
        out = set()
        if self.lo.symbol is not None:
            out.add(self.lo.symbol)
        if self.hi.symbol is not None:
            out.add(self.hi.symbol)
        return out

    def count(self) -> Optional[int]:
        """Number of values in the progression; None when unknowable.

        Computable for purely numeric finite ranges and for ranges whose
        two bounds share a symbol (their width is then numeric).
        """
        if self.is_single():
            return 1
        width = self.lo.distance(self.hi)
        if width is None or math.isinf(width):
            return None
        if self.stride == 0:
            return 1
        return int(width // self.stride) + 1

    def width(self) -> Optional[Number]:
        """``hi - lo`` when the bounds are comparable, else None."""
        return self.lo.distance(self.hi)

    # -- weighting ----------------------------------------------------------------

    def scaled(self, factor: float) -> "StridedRange":
        """Same range with probability multiplied by ``factor``."""
        if _perf_active():
            return StridedRange._reweighted(self.probability * factor, self)
        return StridedRange(self.probability * factor, self.lo, self.hi, self.stride)

    def with_probability(self, probability: float) -> "StridedRange":
        if _perf_active():
            if probability == self.probability:
                return self
            return StridedRange._reweighted(probability, self)
        return StridedRange(probability, self.lo, self.hi, self.stride)

    # -- identity -----------------------------------------------------------------

    def same_extent(self, other: "StridedRange") -> bool:
        """True when lo/hi/stride agree (probability ignored)."""
        return self.lo == other.lo and self.hi == other.hi and self.stride == other.stride

    def approx_equal(self, other: "StridedRange", tolerance: float = 1e-9) -> bool:
        return self.same_extent(other) and abs(self.probability - other.probability) <= tolerance

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return (
            isinstance(other, StridedRange)
            and self.same_extent(other)
            and self.probability == other.probability
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.probability, self.lo, self.hi, self.stride))
        return self._hash

    def __repr__(self) -> str:
        return f"StridedRange({self.probability!r}, {self.lo!r}, {self.hi!r}, {self.stride})"

    def __str__(self) -> str:
        prob = f"{self.probability:.4g}"
        return f"{prob}[{self.lo}:{self.hi}:{self.stride}]"


# Integer bounds larger in magnitude than this are dropped to the
# infinity on their side of the range (lo to -inf, hi to +inf), which only
# widens.  Half the float range, so that the sum or width of two bounds
# still converts to float: ``math.isnan`` on a larger int raises.
_SATURATION = 2 ** 1022


def _normalise(lo: Bound, hi: Bound, stride: int):
    """Canonicalise: single values get stride 0; numeric his align to the
    progression; multi-value ranges need stride >= 1 (defaulting to 1 when
    alignment is unknowable); integer bounds beyond :data:`_SATURATION`
    saturate to infinity."""
    if not -_SATURATION <= lo.offset <= _SATURATION and type(lo.offset) is int:
        lo = Bound(NEG_INF)
    if not -_SATURATION <= hi.offset <= _SATURATION and type(hi.offset) is int:
        hi = Bound(POS_INF)
    if lo == hi:
        return lo, hi, 0
    width = lo.distance(hi)
    if stride == 0:
        stride = 1
    if width is not None and not math.isinf(width):
        if width < stride:
            # Fewer than two full steps: snap to the two endpoints if they
            # do not align, else collapse handled above.
            stride = int(width) if width >= 1 else 1
        else:
            aligned = (int(width) // stride) * stride
            if aligned != width and hi.is_numeric():
                hi = Bound.number(lo.offset + aligned) if lo.is_numeric() else hi
            elif aligned != width and not hi.is_numeric():
                hi = Bound(lo.offset + aligned, lo.symbol)
    return lo, hi, stride
