"""Assertion (Pi node) insertion after conditional branches.

The paper (Figure 3 and footnote 4) places assertions along the out-edges
of conditional branches: on the true edge of ``x < 10`` the variable ``x``
is known to satisfy ``x < 10``, on the false edge ``x >= 10``.  We encode
an assertion as a :class:`~repro.ir.instructions.Pi` copy at the top of
the edge's destination block, which must therefore have that branch as
its unique predecessor -- run
:func:`repro.ir.cfg.split_critical_edges` first.

Insertion happens *before* SSA construction: the Pi assigns to the same
variable name it reads, and SSA renaming then gives the asserted value a
fresh version which dominates all uses below the branch.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.ir.cfg import predecessor_counts
from repro.ir.function import Function
from repro.ir.instructions import (
    Branch,
    Cmp,
    CMP_NEGATION,
    CMP_SWAP,
    Instruction,
    Pi,
)
from repro.ir.values import Constant, Temp, Value


def insert_assertions(
    function: Function, pred_count: Optional[Dict[str, int]] = None
) -> int:
    """Insert Pi nodes for every conditional branch; returns count inserted.

    For a branch on ``lhs relop rhs`` the true successor receives
    ``lhs = pi lhs assuming (lhs relop rhs)`` (and the swapped assertion
    for ``rhs`` when it is a variable); the false successor receives the
    negated assertions.  ``pred_count`` is the predecessor count
    :func:`~repro.ir.cfg.split_critical_edges` left (recounted when
    omitted).
    """
    if pred_count is None:
        pred_count = predecessor_counts(function)

    inserted = 0
    for block in list(function.blocks.values()):
        term = block.terminator
        if not isinstance(term, Branch):
            continue
        condition = _find_condition(block.instructions, term.cond)
        if condition is None:
            continue
        op, lhs, rhs = condition
        for target, effective_op in (
            (term.true_target, op),
            (term.false_target, CMP_NEGATION[op]),
        ):
            if pred_count[target] != 1 or target == block.label:
                # No unique home for the assertion (unsplit critical edge
                # or a self loop) -- skip rather than assert unsoundly.
                continue
            inserted += _insert_edge_assertions(
                function, target, effective_op, lhs, rhs, loc=term.loc
            )
    return inserted


def _find_condition(
    instructions: List[Instruction], cond: Value
) -> Optional[Tuple[str, Value, Value]]:
    """Resolve the branch condition to ``(relop, lhs, rhs)`` if possible.

    The condition temp must be defined by a Cmp in the same block (the
    lowering always arranges this); otherwise treat ``cond != 0``.
    """
    if isinstance(cond, Constant):
        return None
    if not isinstance(cond, Temp):
        return None
    for instr in reversed(instructions):
        result = instr.result
        if result is not None and result == cond:
            if isinstance(instr, Cmp):
                return instr.op, instr.lhs, instr.rhs
            return "ne", cond, Constant(0)
    # Defined in another block: still assert cond != 0 on the true edge.
    return "ne", cond, Constant(0)


def _insert_edge_assertions(
    function: Function,
    target_label: str,
    op: str,
    lhs: Value,
    rhs: Value,
    loc: Optional[int] = None,
) -> int:
    """Insert assertions for both comparison operands into ``target_label``."""
    target = function.block(target_label)
    inserted = 0
    position = 0
    if isinstance(lhs, Temp) and lhs != rhs:
        pi = Pi(Temp(lhs.name), Temp(lhs.name), op, rhs, parent=lhs.name)
        pi.loc = loc
        target.insert(position, pi)
        position += 1
        inserted += 1
    if isinstance(rhs, Temp) and lhs != rhs:
        swapped = CMP_SWAP[op]
        pi = Pi(Temp(rhs.name), Temp(rhs.name), swapped, lhs, parent=rhs.name)
        pi.loc = loc
        target.insert(position, pi)
        inserted += 1
    return inserted
