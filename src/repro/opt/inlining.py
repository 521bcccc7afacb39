"""Function inlining guided by predicted call frequencies (paper §6).

"Code layout, cache optimization & inlining": compilers inline simple,
hot calls.  With VRP the heat of a call site is *predicted*, no profile
needed.  The transformation here works directly on SSA-form functions:

* the call block is split at the call; the tail keeps the instructions
  after it (and the terminator);
* the callee's blocks are cloned with every label, temp and array name
  prefixed (single assignment is preserved by construction);
* parameters become copies into the cloned parameter versions;
* every cloned ``return v`` becomes a jump to the tail, whose new phi
  merges the return values into the call's destination.

The result passes the SSA verifier and executes identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.callgraph import CallGraph
from repro.core.interprocedural import ModulePrediction
from repro.ir.function import BasicBlock, Function, Module
from repro.ir.instructions import (
    BinOp,
    Branch,
    Call,
    Cmp,
    Copy,
    Input,
    Instruction,
    Jump,
    Load,
    Phi,
    Pi,
    Return,
    Store,
    UnOp,
)
from repro.ir.values import Temp, Value
from repro.opt._verify import verify_after


class InlineError(Exception):
    """Raised when a call site cannot be inlined."""


def inline_call(caller: Function, call: Call, callee: Function, tag: str) -> None:
    """Inline one call site in place.  ``tag`` must be unique per inline."""
    if callee.name == caller.name:
        raise InlineError("cannot inline a direct self-recursive call")
    if len(call.args) != len(callee.params):
        raise InlineError("arity mismatch at call site")
    call_block = call.block
    if call_block is None or call_block.label not in caller.blocks:
        raise InlineError("call instruction is not attached to the caller")

    rename = _Renamer(tag)
    cloned_blocks, return_sites = _clone_callee(callee, rename)

    # Split the call block: everything after the call moves to the tail.
    tail = BasicBlock(f"{tag}$cont")
    index = call_block.instructions.index(call)
    moved = call_block.instructions[index + 1 :]
    call_block.instructions = call_block.instructions[:index]
    for instr in moved:
        instr.block = tail
        tail.instructions.append(instr)

    # Successor phis referenced the call block; they now come from the tail.
    for succ_label in tail.successors() if tail.is_terminated() else []:
        succ = caller.blocks.get(succ_label)
        if succ is None:
            continue
        for phi in succ.phis():
            phi.incomings = [
                (tail.label if label == call_block.label else label, value)
                for label, value in phi.incomings
            ]

    # Bind arguments to the cloned parameter versions, then enter the clone.
    for param, argument in zip(callee.params, call.args):
        call_block.instructions.append(
            _attach(Copy(Temp(rename.temp(f"{param}.0")), argument), call_block)
        )
    entry_label = rename.label(callee.entry_label or "")
    call_block.instructions.append(_attach(Jump(entry_label), call_block))

    # Return values converge on the tail.
    if call.dest is not None:
        if len(return_sites) == 1:
            label, value = return_sites[0]
            tail.instructions.insert(0, _attach(Copy(call.dest, value), tail))
        else:
            phi = Phi(call.dest, [(label, value) for label, value in return_sites])
            tail.instructions.insert(0, _attach(phi, tail))

    for name, size in callee.arrays.items():
        caller.arrays[rename.array(name)] = size
    for block in cloned_blocks:
        caller.blocks[block.label] = block
    caller.blocks[tail.label] = tail
    verify_after(caller, "inline_call")


class _Renamer:
    """Prefixes labels, temps and arrays so clones never collide."""

    def __init__(self, tag: str):
        self.tag = tag

    def label(self, label: str) -> str:
        return f"{self.tag}${label}"

    def temp(self, name: str) -> str:
        return f"{self.tag}${name}"

    def array(self, name: str) -> str:
        return f"{self.tag}${name}"

    def value(self, value: Value) -> Value:
        if isinstance(value, Temp):
            return Temp(self.temp(value.name))
        return value


def _attach(instr: Instruction, block: BasicBlock) -> Instruction:
    instr.block = block
    return instr


def _clone_callee(
    callee: Function, rename: _Renamer
) -> Tuple[List[BasicBlock], List[Tuple[str, Value]]]:
    """Cloned blocks (returns rewritten to jumps) + (label, value) per return."""
    blocks: List[BasicBlock] = []
    return_sites: List[Tuple[str, Value]] = []
    tail_label = f"{rename.tag}$cont"
    for label, block in callee.blocks.items():
        clone = BasicBlock(rename.label(label))
        for instr in block.instructions:
            if isinstance(instr, Return):
                return_sites.append((clone.label, rename.value(instr.value)))
                clone.instructions.append(_attach(Jump(tail_label), clone))
            else:
                clone.instructions.append(_attach(_clone(instr, rename), clone))
        blocks.append(clone)
    if not return_sites:
        raise InlineError(f"{callee.name} has no return")
    return blocks, return_sites


def _clone(instr: Instruction, rename: _Renamer) -> Instruction:
    clone = _clone_raw(instr, rename)
    clone.loc = instr.loc
    return clone


def _clone_raw(instr: Instruction, rename: _Renamer) -> Instruction:
    value = rename.value
    if isinstance(instr, BinOp):
        return BinOp(value(instr.dest), instr.op, value(instr.lhs), value(instr.rhs))
    if isinstance(instr, UnOp):
        return UnOp(value(instr.dest), instr.op, value(instr.operand))
    if isinstance(instr, Cmp):
        return Cmp(value(instr.dest), instr.op, value(instr.lhs), value(instr.rhs))
    if isinstance(instr, Copy):
        return Copy(value(instr.dest), value(instr.src))
    if isinstance(instr, Phi):
        return Phi(
            value(instr.dest),
            [(rename.label(label), value(incoming)) for label, incoming in instr.incomings],
        )
    if isinstance(instr, Pi):
        parent = rename.temp(instr.parent) if instr.parent else None
        return Pi(
            value(instr.dest), value(instr.src), instr.op, value(instr.bound), parent
        )
    if isinstance(instr, Load):
        return Load(value(instr.dest), rename.array(instr.array), value(instr.index))
    if isinstance(instr, Store):
        return Store(rename.array(instr.array), value(instr.index), value(instr.value))
    if isinstance(instr, Call):
        dest = value(instr.dest) if instr.dest is not None else None
        return Call(dest, instr.callee, [value(a) for a in instr.args])
    if isinstance(instr, Input):
        return Input(value(instr.dest))
    if isinstance(instr, Jump):
        return Jump(rename.label(instr.target))
    if isinstance(instr, Branch):
        return Branch(
            value(instr.cond),
            rename.label(instr.true_target),
            rename.label(instr.false_target),
        )
    raise InlineError(f"cannot clone {instr!r}")


# ---------------------------------------------------------------------------
# policy
# ---------------------------------------------------------------------------


@dataclass
class InlineDecision:
    caller: str
    callee: str
    block_label: str
    frequency: float
    callee_size: int


def inline_hot_calls(
    module: Module,
    prediction: ModulePrediction,
    max_callee_size: int = 40,
    min_frequency: float = 0.5,
    max_inlines: int = 16,
    entry: str = "main",
) -> List[InlineDecision]:
    """Inline small, hot, non-recursive callees; returns what was done.

    Call-site heat is the *predicted* block frequency from VRP.  The
    module is mutated; callers should re-run prediction afterwards.
    """
    callgraph = CallGraph(module)
    recursive = {
        name for name in module.functions if callgraph.is_recursive(name)
    }
    candidates: List[InlineDecision] = []
    for site in callgraph.call_sites:
        callee = module.functions.get(site.callee)
        if callee is None or site.callee in recursive:
            continue
        if site.caller == site.callee:
            continue
        caller_prediction = prediction.functions.get(site.caller)
        if caller_prediction is None:
            continue
        frequency = caller_prediction.block_frequency.get(site.block_label, 0.0)
        size = callee.instruction_count()
        if frequency >= min_frequency and size <= max_callee_size:
            candidates.append(
                InlineDecision(
                    caller=site.caller,
                    callee=site.callee,
                    block_label=site.block_label,
                    frequency=frequency,
                    callee_size=size,
                )
            )
    candidates.sort(key=lambda d: -d.frequency)
    performed: List[InlineDecision] = []
    for sequence, decision in enumerate(candidates[:max_inlines]):
        caller = module.function(decision.caller)
        callee = module.function(decision.callee)
        call = _find_call(caller, decision.block_label, decision.callee)
        if call is None:
            continue  # a prior inline restructured this block
        inline_call(caller, call, callee, tag=f"inl{sequence}")
        performed.append(decision)
    return performed


def _find_call(caller: Function, block_label: str, callee: str) -> Optional[Call]:
    block = caller.blocks.get(block_label)
    if block is None:
        return None
    for instr in block.instructions:
        if isinstance(instr, Call) and instr.callee == callee:
            return instr
    return None
