"""Array bounds-check elimination from value ranges (paper §6).

"Many array bounds checks can be shown to be redundant by value range
propagation": an access ``a[i]`` with ``i``'s range provably inside
``[0, len(a))`` needs no dynamic check.  This module classifies every
array access of a function and can count the dynamic checks an
instrumented interpreter run would actually skip.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.bounds import Bound
from repro.core.propagation import FunctionPrediction
from repro.core.rangeset import RangeSet
from repro.ir.function import Function
from repro.ir.instructions import Load, Store
from repro.ir.values import Constant, Temp

# Classification outcomes.
SAFE = "safe"  # check provably redundant
UNSAFE = "unsafe"  # provably out of bounds on some executions
UNKNOWN = "unknown"  # range too weak to decide


@dataclass
class AccessReport:
    """One array access and what the ranges prove about it."""

    block_label: str
    array: str
    size: Optional[int]
    index_range: RangeSet
    classification: str
    kind: str  # "load" or "store"

    def __repr__(self) -> str:
        return (
            f"AccessReport({self.kind} {self.array}[{self.index_range}] "
            f"in {self.block_label}: {self.classification})"
        )


def classify_index(index_range: RangeSet, size: Optional[int]) -> str:
    """Decide whether an index range needs a bounds check."""
    if size is None or not index_range.is_set:
        return UNKNOWN
    hull = index_range.hull()
    if hull is None:
        return UNKNOWN
    below = hull.lo.compare(Bound.number(0))
    above = hull.hi.compare(Bound.number(size - 1))
    if below is not None and below >= 0 and above is not None and above <= 0:
        return SAFE
    # Entirely outside on either side is a guaranteed violation.
    if hull.hi.compare(Bound.number(0)) is not None and hull.hi.compare(
        Bound.number(0)
    ) < 0:
        return UNSAFE
    low_ok = hull.lo.compare(Bound.number(size - 1))
    if low_ok is not None and low_ok > 0:
        return UNSAFE
    return UNKNOWN


@dataclass
class AccessClassification:
    """Component-wise verdict on one index range against ``[0, size)``.

    Richer than :func:`classify_index`: instead of collapsing the set to
    its hull, each weighted component range is tested separately, giving
    the probability mass that is provably out of bounds.  Ranges with an
    infinite hull side (the engine's widening artefacts) contribute *no*
    out-of-bounds mass on partial overlap -- a widened ``[0:+inf]`` is
    an over-approximation, not a proof that large indices occur.
    """

    classification: str  # SAFE / UNSAFE / UNKNOWN
    definitely_oob: bool  # every component lies entirely outside
    oob_mass: float  # probability mass provably out of bounds


def _progression_inside(r, size: int) -> Optional[int]:
    """Values of the finite numeric progression ``r`` inside [0, size)."""
    lo = r.lo.offset
    hi = r.hi.offset
    if r.is_single():
        return 1 if 0 <= lo <= size - 1 else 0
    stride = r.stride if r.stride > 0 else 1
    clamp_lo = max(lo, 0)
    clamp_hi = min(hi, size - 1)
    if clamp_hi < clamp_lo:
        return 0
    first = lo + -(-(clamp_lo - lo) // stride) * stride
    if first > clamp_hi:
        return 0
    return (clamp_hi - first) // stride + 1


def classify_access(index_range: RangeSet, size: Optional[int]) -> AccessClassification:
    """Classify one access component-wise; see :class:`AccessClassification`."""
    if size is None or not index_range.is_set or not index_range.ranges:
        return AccessClassification(UNKNOWN, False, 0.0)
    zero = Bound.number(0)
    top = Bound.number(size - 1)
    oob_mass = 0.0
    any_entire_oob = False
    all_entire_oob = True
    all_inside = True
    undecided = False
    for r in index_range.ranges:
        below = r.hi.compare(zero)  # entire range below 0?
        above = r.lo.compare(top)  # entire range above size-1?
        if (below is not None and below < 0) or (above is not None and above > 0):
            oob_mass += r.probability
            if r.probability > 0.0:
                any_entire_oob = True
            all_inside = False
            continue
        all_entire_oob = False
        lo_in = r.lo.compare(zero)
        hi_in = r.hi.compare(top)
        if lo_in is not None and lo_in >= 0 and hi_in is not None and hi_in <= 0:
            continue  # entirely inside
        all_inside = False
        # Partial overlap.  Only a finite numeric range yields provable
        # out-of-bounds mass; symbolic or widened (infinite) ranges are
        # over-approximations and stay silent.
        if r.is_numeric() and r.is_finite():
            total = r.count()
            inside = _progression_inside(r, size)
            if total and inside is not None and total > 0:
                oob_mass += r.probability * (total - inside) / total
        else:
            undecided = True
    if any_entire_oob:
        classification = UNSAFE
    elif all_inside:
        classification = SAFE
    else:
        classification = UNKNOWN
    definitely_oob = all_entire_oob and any_entire_oob and not undecided
    return AccessClassification(classification, definitely_oob, min(1.0, oob_mass))


def analyse_bounds_checks(
    function: Function, prediction: FunctionPrediction
) -> List[AccessReport]:
    """Classify every array access of the function."""
    reports: List[AccessReport] = []
    for label, block in function.blocks.items():
        for instr in block.instructions:
            if isinstance(instr, Load):
                kind, array, index = "load", instr.array, instr.index
            elif isinstance(instr, Store):
                kind, array, index = "store", instr.array, instr.index
            else:
                continue
            size = function.arrays.get(array)
            index_range = _operand_range(prediction, index)
            reports.append(
                AccessReport(
                    block_label=label,
                    array=array,
                    size=size,
                    index_range=index_range,
                    classification=classify_index(index_range, size),
                    kind=kind,
                )
            )
    return reports


def _operand_range(prediction: FunctionPrediction, operand) -> RangeSet:
    if isinstance(operand, Constant):
        return RangeSet.constant(operand.value)
    if isinstance(operand, Temp):
        return prediction.values.get(operand.name, RangeSet.bottom())
    return RangeSet.bottom()


def eliminated_fraction(reports: List[AccessReport]) -> float:
    """Static fraction of accesses whose checks are proven redundant."""
    if not reports:
        return 0.0
    safe = sum(1 for report in reports if report.classification == SAFE)
    return safe / len(reports)


def dynamic_checks_eliminated(
    reports: List[AccessReport],
    prediction: FunctionPrediction,
) -> float:
    """Expected fraction of *dynamic* checks removed, frequency-weighted."""
    total = 0.0
    saved = 0.0
    for report in reports:
        weight = prediction.block_frequency.get(report.block_label, 0.0)
        total += weight
        if report.classification == SAFE:
            saved += weight
    return saved / total if total > 0 else 0.0
