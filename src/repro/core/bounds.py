"""Range bounds: numeric or symbolic ``variable + constant``.

The paper (§3.4) allows each number in a range definition to be
``SSA-variable operator constant``: purely numeric bounds have no symbol,
purely symbolic bounds have offset 0.  Bounds referring to *different*
symbols are incomparable ("operations and comparisons are only meaningful
between variables which share a single common ancestor").

Offsets are program values, and the toy language has only integers, so
a finite offset is always an ``int``.  Numeric bounds may also be
infinite (``NEG_INF`` / ``POS_INF``, the only floats a bound holds) to
express half-open ranges produced by one-sided assertions like
``x > 5``.
"""

from __future__ import annotations

import math
from typing import Optional, Union

#: A bound offset: an ``int``, or ±inf for a numeric bound.
Number = Union[int, float]

POS_INF = math.inf
NEG_INF = -math.inf


class Bound:
    """An immutable bound ``symbol + offset`` (symbol may be None)."""

    __slots__ = ("symbol", "offset")

    def __init__(self, offset: Number, symbol: Optional[str] = None):
        if offset.__class__ is not int:
            if offset.__class__ is not float or not math.isinf(offset):
                raise ValueError(f"a finite bound offset must be an int, not {offset!r}")
            if symbol is not None:
                raise ValueError("symbolic bounds must have a finite offset")
        self.symbol = symbol
        self.offset = offset

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def number(value: Number) -> "Bound":
        return Bound(value)

    @staticmethod
    def symbolic(symbol: str, offset: int = 0) -> "Bound":
        return Bound(offset, symbol)

    # -- predicates -----------------------------------------------------------

    def is_numeric(self) -> bool:
        return self.symbol is None

    def is_finite(self) -> bool:
        return not math.isinf(self.offset)

    def is_pos_inf(self) -> bool:
        return self.symbol is None and self.offset == POS_INF

    def is_neg_inf(self) -> bool:
        return self.symbol is None and self.offset == NEG_INF

    # -- arithmetic -------------------------------------------------------------

    def add_const(self, constant: Number) -> "Bound":
        if math.isinf(self.offset):
            return self
        return Bound(self.offset + constant, self.symbol)

    def add(self, other: "Bound") -> Optional["Bound"]:
        """Bound addition; None when the result is not representable.

        ``sym + num`` works; ``sym + sym`` does not (the representation has
        no two-variable form).
        """
        if self.symbol is not None and other.symbol is not None:
            return None
        symbol = self.symbol or other.symbol
        offset = self.offset + other.offset
        if math.isnan(offset):
            return None
        if symbol is not None and math.isinf(offset):
            return None
        return Bound(offset, symbol)

    def sub(self, other: "Bound") -> Optional["Bound"]:
        """Bound subtraction; ``sym - sym`` of the *same* symbol is numeric."""
        if self.symbol is not None and other.symbol is not None:
            if self.symbol != other.symbol:
                return None
            return Bound(self.offset - other.offset)
        if other.symbol is not None:
            # num - sym would need a negated symbol: not representable.
            return None
        offset = self.offset - other.offset
        if math.isnan(offset):
            return None
        if self.symbol is not None and math.isinf(offset):
            return None
        return Bound(offset, self.symbol)

    def negate(self) -> Optional["Bound"]:
        if self.symbol is not None:
            return None
        return Bound(-self.offset)

    def scale(self, factor: Number) -> Optional["Bound"]:
        if self.symbol is not None:
            return Bound(self.offset * factor, self.symbol) if factor == 1 else None
        return Bound(self.offset * factor)

    # -- comparison ---------------------------------------------------------------

    def compare(self, other: "Bound") -> Optional[int]:
        """-1/0/+1 ordering, or None when incomparable.

        Bounds compare when numeric or when sharing the same symbol, that
        is, when their symbols are equal (``None`` for both numeric).
        """
        if self.symbol != other.symbol:
            return None
        if self.offset < other.offset:
            return -1
        if self.offset > other.offset:
            return 1
        return 0

    def less_equal(self, other: "Bound") -> Optional[bool]:
        order = self.compare(other)
        return None if order is None else order <= 0

    def distance(self, other: "Bound") -> Optional[Number]:
        """``other - self`` as a number, or None when incomparable.

        Two like-signed infinities have no defined distance (inf - inf);
        that also reports as None rather than NaN.
        """
        if self.symbol != other.symbol:
            return None
        difference = other.offset - self.offset
        if math.isnan(difference):
            return None
        return difference

    # -- identity -----------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return (
            isinstance(other, Bound)
            and self.symbol == other.symbol
            and self.offset == other.offset
        )

    def __hash__(self) -> int:
        return hash((self.symbol, self.offset))

    def __repr__(self) -> str:
        return f"Bound({self.offset!r}, {self.symbol!r})"

    def __str__(self) -> str:
        if self.symbol is None:
            if self.offset == POS_INF:
                return "+inf"
            if self.offset == NEG_INF:
                return "-inf"
            return str(self.offset)
        if self.offset == 0:
            return self.symbol
        sign = "+" if self.offset >= 0 else "-"
        return f"{self.symbol}{sign}{abs(self.offset)}"


def bound_min(a: Bound, b: Bound) -> Optional[Bound]:
    order = a.compare(b)
    if order is None:
        return None
    return a if order <= 0 else b


def bound_max(a: Bound, b: Bound) -> Optional[Bound]:
    order = a.compare(b)
    if order is None:
        return None
    return a if order >= 0 else b
