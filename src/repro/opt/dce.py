"""Dead code elimination and certain-branch folding.

Completes the paper's "value range propagation itself can be viewed as
an optimization" story: after the constant/copy folds, a mark-and-sweep
over SSA removes the computations they orphaned, and branches whose
range-derived probability is exactly 0 or 1 fold into jumps ("branches
to unreachable code have a probability of 0").
"""

from __future__ import annotations

from typing import List, Set

from repro.core.propagation import FunctionPrediction
from repro.ir.cfg import remove_unreachable_blocks
from repro.ir.function import Function
from repro.ir.instructions import (
    Branch,
    Call,
    Input,
    Instruction,
    Jump,
    Phi,
    Pi,
    Store,
)
from repro.ir.values import Temp
from repro.opt._verify import verify_after


def eliminate_dead_code(function: Function) -> int:
    """Remove instructions whose results are transitively unused.

    Side-effecting instructions (stores, calls, input reads) and
    terminators are always live; everything else is live only if some
    live instruction reads its result.  Returns instructions removed.
    """
    live: Set[int] = set()
    defining = {}
    for block in function.blocks.values():
        for instr in block.instructions:
            result = instr.result
            if result is not None:
                defining[result.name] = instr

    worklist: List[Instruction] = []
    for block in function.blocks.values():
        for instr in block.instructions:
            if instr.is_terminator() or isinstance(instr, (Store, Call, Input)):
                live.add(id(instr))
                worklist.append(instr)
    while worklist:
        instr = worklist.pop()
        for operand in instr.operands():
            if isinstance(operand, Temp):
                definition = defining.get(operand.name)
                if definition is not None and id(definition) not in live:
                    live.add(id(definition))
                    worklist.append(definition)

    removed = 0
    for block in function.blocks.values():
        kept = []
        for instr in block.instructions:
            if id(instr) in live:
                kept.append(instr)
            else:
                instr.block = None
                removed += 1
        block.instructions = kept
    if removed:
        verify_after(function, "eliminate_dead_code")
    return removed


def fold_certain_branches(
    function: Function,
    prediction: FunctionPrediction,
    fold_heuristic_branches: bool = False,
) -> int:
    """Turn probability-0/1 branches into jumps; prune what dies.

    Only range-derived certainties fold by default: a heuristic 0/1 is
    an opinion, not a proof.  Phi incomings from removed edges are
    dropped and unreachable blocks deleted.  Returns branches folded.
    """
    folded = 0
    removed_edges: List[tuple] = []
    for label, block in list(function.blocks.items()):
        term = block.terminator
        if not isinstance(term, Branch):
            continue
        if label in prediction.used_heuristic and not fold_heuristic_branches:
            continue
        probability = prediction.branch_probability.get(label)
        if probability is None:
            continue
        if probability >= 1.0:
            survivor, casualty = term.true_target, term.false_target
        elif probability <= 0.0:
            survivor, casualty = term.false_target, term.true_target
        else:
            continue
        jump = Jump(survivor)
        jump.block = block
        jump.loc = term.loc
        block.instructions[-1] = jump
        folded += 1
        if casualty != survivor:
            removed_edges.append((label, casualty))
    for label, casualty in removed_edges:
        target = function.blocks.get(casualty)
        if target is None:
            continue
        for phi in target.phis():
            phi.incomings = [
                (pred, value) for pred, value in phi.incomings if pred != label
            ]
    if folded:
        remove_unreachable_blocks(function)
        _simplify_single_incoming_phis(function)
        verify_after(function, "fold_certain_branches")
    return folded


def _simplify_single_incoming_phis(function: Function) -> int:
    """Phis left with one incoming become plain copies.

    The copies are placed after the surviving phis *and* the assertion
    (Pi) prefix, preserving the ``[Phi*] [Pi*] body`` block layout.  A
    pi never reads a same-block phi (its source must dominate the
    predecessor's branch), so hoisting the copies past the pis is safe.
    """
    from repro.ir.instructions import Copy

    simplified = 0
    for block in function.blocks.values():
        phis = block.phis()
        singles = [phi for phi in phis if len(phi.incomings) == 1]
        if not singles:
            continue
        copies = []
        for phi in singles:
            (_, value), = phi.incomings
            block.instructions.remove(phi)
            phi.block = None
            copy = Copy(phi.dest, value)
            copy.block = block
            copies.append(copy)
            simplified += 1
        insert_at = 0
        for instr in block.instructions:
            if not isinstance(instr, (Phi, Pi)):
                break
            insert_at += 1
        block.instructions[insert_at:insert_at] = copies
    return simplified
