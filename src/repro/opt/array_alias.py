"""Array-access alias disambiguation from value ranges (paper §6).

"Using value range propagation it is sometimes possible to show that the
ranges of the indices of two array accesses cannot overlap" -- a simple
false-dependency breaker for compilers without full dependence analysis
(the paper contrasts it with Banerjee's inequalities).

Two accesses to the same array are independent when their index ranges
are provably disjoint: separated hulls, same-symbol offset windows that
never meet, or interleaved strided progressions (even/odd and the like).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.core.comparisons import compare_sets
from repro.core.propagation import FunctionPrediction
from repro.core.rangeset import RangeSet
from repro.ir.function import Function
from repro.ir.instructions import Load, Store
from repro.ir.values import Constant, Temp


@dataclass
class ArrayAccess:
    """One load or store, with the range of its index."""

    block_label: str
    array: str
    kind: str  # "load" | "store"
    index_range: RangeSet

    def __repr__(self) -> str:
        return f"ArrayAccess({self.kind} {self.array}[{self.index_range}])"


def collect_accesses(
    function: Function, prediction: FunctionPrediction
) -> List[ArrayAccess]:
    out: List[ArrayAccess] = []
    for label, block in function.blocks.items():
        for instr in block.instructions:
            if isinstance(instr, Load):
                out.append(
                    ArrayAccess(label, instr.array, "load", _range_of(prediction, instr.index))
                )
            elif isinstance(instr, Store):
                out.append(
                    ArrayAccess(label, instr.array, "store", _range_of(prediction, instr.index))
                )
    return out


def _range_of(prediction: FunctionPrediction, operand) -> RangeSet:
    if isinstance(operand, Constant):
        return RangeSet.constant(operand.value)
    if isinstance(operand, Temp):
        return prediction.values.get(operand.name, RangeSet.bottom())
    return RangeSet.bottom()


def may_alias(a: ArrayAccess, b: ArrayAccess) -> bool:
    """Conservative aliasing: False only with a proof of disjointness."""
    if a.array != b.array:
        return False
    return not provably_disjoint(a.index_range, b.index_range)


def provably_disjoint(a: RangeSet, b: RangeSet) -> bool:
    """True when no value can be in both index ranges.

    Uses the comparison machinery's exact equality counting: P(a == b)
    computed with zero unknown mass and zero probability means the
    progressions share no point.
    """
    if not (a.is_set and b.is_set):
        return False
    outcome = compare_sets("eq", a, b)
    if outcome is None:
        return False
    return outcome.is_known() and outcome.probability == 0.0


@dataclass
class DependencePair:
    """Two accesses with at least one store, and the verdict."""

    first: ArrayAccess
    second: ArrayAccess
    independent: bool


def independent_pairs(accesses: List[ArrayAccess]) -> List[DependencePair]:
    """All store-involving same-array pairs, with disjointness verdicts."""
    out: List[DependencePair] = []
    for i in range(len(accesses)):
        for j in range(i + 1, len(accesses)):
            a, b = accesses[i], accesses[j]
            if a.array != b.array:
                continue
            if a.kind == "load" and b.kind == "load":
                continue  # load/load pairs never constrain reordering
            out.append(DependencePair(a, b, independent=not may_alias(a, b)))
    return out


def disambiguated_fraction(pairs: List[DependencePair]) -> float:
    """Fraction of potentially-dependent pairs proven independent."""
    if not pairs:
        return 0.0
    return sum(1 for pair in pairs if pair.independent) / len(pairs)
