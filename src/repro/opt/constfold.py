"""Constant and copy folding from VRP results (the subsumption claims).

Paper §6: a final range ``1[7:7:0]`` makes the variable a compile-time
constant; a final range ``1[y:y:0]`` makes it a copy of ``y``.  This
module turns a :class:`FunctionPrediction` into the classic rewrites --
and doubles as the executable proof that VRP subsumes constant and copy
propagation (tests cross-check against SCCP and the copy-chain walker).
"""

from __future__ import annotations

from typing import Dict

from repro.core.propagation import FunctionPrediction
from repro.ir.function import Function
from repro.ir.instructions import Copy, Phi, Pi
from repro.ir.values import Constant, Temp
from repro.opt._verify import verify_after


def constants_from_prediction(prediction: FunctionPrediction) -> Dict[str, int]:
    """SSA names VRP proves constant, with their values."""
    out: Dict[str, int] = {}
    for name, rangeset in prediction.values.items():
        value = rangeset.constant_value()
        if value is not None:
            out[name] = value
    return out


def copies_from_prediction(prediction: FunctionPrediction) -> Dict[str, str]:
    """SSA names VRP proves to be exact copies of another variable."""
    out: Dict[str, str] = {}
    for name, rangeset in prediction.values.items():
        source = rangeset.copy_symbol()
        if source is not None and source != name:
            out[name] = source
    return out


def fold_constants(function: Function, prediction: FunctionPrediction) -> int:
    """Replace uses of proven-constant temps with immediates.

    Phi incomings are folded too; definitions are left in place (dead
    code elimination is a separate concern).  Returns replacements made.
    """
    constants = constants_from_prediction(prediction)
    replaced = 0
    for block in function.blocks.values():
        for instr in block.instructions:
            if isinstance(instr, Pi):
                continue  # assertions must keep their variable operand
            for operand in list(instr.operands()):
                if isinstance(operand, Temp) and operand.name in constants:
                    instr.replace_operand(operand, Constant(constants[operand.name]))
                    replaced += 1
    replaced += _demote_constant_pis(function, constants)
    if replaced:
        verify_after(function, "fold_constants")
    return replaced


def _demote_constant_pis(function: Function, constants: Dict[str, int]) -> int:
    """Turn pis over proven-constant variables into plain copies.

    Once a variable is a compile-time constant its assertions refine a
    singleton range -- no information -- while the fold above may have
    replaced the variable in the controlling comparison, leaving the pi
    asserting a name the branch no longer mentions.  Demoted copies are
    moved behind the surviving pis so the ``[phi*][pi*]`` block prefix
    stays intact.
    """
    demoted_total = 0
    for block in function.blocks.values():
        instrs = block.instructions
        k = 0
        while k < len(instrs) and isinstance(instrs[k], Phi):
            k += 1
        start = k
        while k < len(instrs) and isinstance(instrs[k], Pi):
            k += 1
        if start == k:
            continue
        kept, demoted = [], []
        for pi in instrs[start:k]:
            if isinstance(pi.src, Temp) and pi.src.name in constants:
                copy = Copy(pi.dest, pi.src)
                copy.block = block
                copy.loc = pi.loc
                demoted.append(copy)
            else:
                kept.append(pi)
        if demoted:
            instrs[start:k] = kept + demoted
            demoted_total += len(demoted)
    return demoted_total


def fold_copies(function: Function, prediction: FunctionPrediction) -> int:
    """Replace uses of proven copies with their sources.

    Only rewrites where the source's definition still dominates -- which
    is guaranteed in SSA when the copy fact came from a Copy/Pi chain,
    the only way VRP produces a pure ``1[y:y:0]`` range.
    """
    copies = copies_from_prediction(prediction)
    # Resolve chains (x -> y -> z) to the final source.
    resolved: Dict[str, str] = {}

    def resolve(name: str) -> str:
        seen = set()
        current = name
        while current in copies and current not in seen:
            seen.add(current)
            current = copies[current]
        return current

    for name in copies:
        resolved[name] = resolve(name)
    replaced = 0
    for block in function.blocks.values():
        for instr in block.instructions:
            if isinstance(instr, (Pi, Phi)):
                continue  # keep assertion/merge structure intact
            for operand in list(instr.operands()):
                if isinstance(operand, Temp) and operand.name in resolved:
                    root = resolved[operand.name]
                    if root != operand.name:
                        instr.replace_operand(operand, Temp(root))
                        replaced += 1
    if replaced:
        verify_after(function, "fold_copies")
    return replaced
