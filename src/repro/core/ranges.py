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


class RangeError(ValueError):
    """Raised when constructing a malformed strided range."""


class StridedRange:
    """Immutable weighted range ``probability[lo:hi:stride]``.

    ``extent`` is the hashable key ``(lo.symbol, lo.offset, hi.symbol,
    hi.offset, stride)``: everything but the probability.  Two ranges
    have the same extent exactly when their keys are equal, and the
    range algebra's set plans and ``from_ranges`` memo key on it, so a
    set that is only reweighted meets its own arithmetic again.
    """

    __slots__ = ("probability", "lo", "hi", "stride", "extent", "_hash")

    def __init__(self, probability: float, lo: Bound, hi: Bound, stride: int):
        if probability < 0:
            raise RangeError(f"negative probability {probability}")
        if stride < 0:
            raise RangeError(f"negative stride {stride}")
        # Two bounds compare exactly when their symbols are equal (None
        # for two numeric bounds); each bound is read once, here.
        comparable = lo.symbol == hi.symbol
        if comparable and lo.offset > hi.offset:
            raise RangeError(f"inverted range [{lo}:{hi}]")
        lo, hi, stride = _normalise(lo, hi, stride, comparable)
        self.probability = float(probability)
        self.lo = lo
        self.hi = hi
        self.stride = stride
        self.extent = (lo.symbol, lo.offset, hi.symbol, hi.offset, stride)
        self._hash = None

    @classmethod
    def _reweighted(
        cls, probability: float, source: "StridedRange"
    ) -> "StridedRange":
        """Same extent as ``source`` with a new probability, skipping
        validation and normalisation (the extent is already valid and
        normal).  The fast path behind :meth:`scaled`/
        :meth:`with_probability`."""
        self = cls.__new__(cls)
        self.probability = float(probability)
        self.lo = source.lo
        self.hi = source.hi
        self.stride = source.stride
        self.extent = source.extent
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
    def symbol(probability: float, name: str, offset: int = 0) -> "StridedRange":
        bound = Bound.symbolic(name, offset)
        return StridedRange(probability, bound, bound, 0)

    # -- shape queries -----------------------------------------------------------

    def is_single(self) -> bool:
        # Normalisation gives stride 0 exactly to ranges with lo == hi.
        return self.stride == 0

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
        if self.stride == 0:
            return 1
        width = self.lo.distance(self.hi)
        if width is None or math.isinf(width):
            return None
        return width // self.stride + 1

    def width(self) -> Optional[Number]:
        """``hi - lo`` when the bounds are comparable, else None."""
        return self.lo.distance(self.hi)

    # -- weighting ----------------------------------------------------------------

    def scaled(self, factor: float) -> "StridedRange":
        """Same range with probability multiplied by ``factor``."""
        return StridedRange._reweighted(self.probability * factor, self)

    def with_probability(self, probability: float) -> "StridedRange":
        if probability == self.probability:
            return self
        return StridedRange._reweighted(probability, self)

    # -- identity -----------------------------------------------------------------

    def same_extent(self, other: "StridedRange") -> bool:
        """True when lo/hi/stride agree (probability ignored)."""
        return self.extent == other.extent

    def approx_equal(self, other: "StridedRange", tolerance: float = 1e-9) -> bool:
        return (
            self.extent == other.extent
            and abs(self.probability - other.probability) <= tolerance
        )

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return (
            isinstance(other, StridedRange)
            and self.extent == other.extent
            and self.probability == other.probability
        )

    def __hash__(self) -> int:
        if self._hash is None:
            # The bounds' own hashes, (symbol, offset), without calling them.
            lo, hi = self.lo, self.hi
            self._hash = hash(
                (self.probability, (lo.symbol, lo.offset), (hi.symbol, hi.offset), self.stride)
            )
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


def _normalise(lo: Bound, hi: Bound, stride: int, comparable: bool):
    """Canonicalise: single values get stride 0; numeric his align to the
    progression; multi-value ranges need stride >= 1 (defaulting to 1 when
    alignment is unknowable); integer bounds beyond :data:`_SATURATION`
    saturate to infinity.  ``comparable`` says whether the two bounds
    share a symbol."""
    lo_offset, hi_offset = lo.offset, hi.offset
    if lo_offset.__class__ is int and not -_SATURATION <= lo_offset <= _SATURATION:
        lo, lo_offset = Bound(NEG_INF), NEG_INF
        comparable = hi.symbol is None
    if hi_offset.__class__ is int and not -_SATURATION <= hi_offset <= _SATURATION:
        hi, hi_offset = Bound(POS_INF), POS_INF
        comparable = lo.symbol is None
    if lo is hi or (comparable and lo_offset == hi_offset):
        return lo, hi, 0
    if stride == 0:
        stride = 1
    if comparable:
        width = hi_offset - lo_offset
        if not math.isnan(width) and not math.isinf(width):
            if width < stride:
                # Fewer than two full steps: snap to the two endpoints if
                # they do not align, else collapse handled above.
                stride = width if width >= 1 else 1
            else:
                aligned = width // stride * stride
                if aligned != width:
                    hi = Bound(lo_offset + aligned, lo.symbol)
    return lo, hi, stride
