"""Sparse conditional constant propagation (Wegman–Zadeck, TOPLAS 1991).

The algorithm value range propagation generalises, kept as test-only
code: the oracle for the paper's claim that VRP *subsumes* constant
propagation (every constant SCCP finds, VRP finds as a ``1[c:c:0]``;
``tests/analysis/test_sccp.py`` and
``benchmarks/test_bench_applications.py``).  Implemented over the same
SSA IR with the same two-worklist structure, using the classic
three-level lattice (⊤ / constant / ⊥).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Optional, Set, Tuple

from repro.ir.cfg import CFG
from repro.ir.function import Function
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
from repro.ir.ssa import SSAInfo, build_ssa_edges
from repro.ir.values import Constant, Temp, Undef, Value


class LatticeValue:
    """⊤ (undetermined), a known constant, or ⊥ (not constant)."""

    __slots__ = ("kind", "constant")

    TOP = "top"
    CONST = "const"
    BOTTOM = "bottom"

    def __init__(self, kind: str, constant: Optional[int] = None):
        self.kind = kind
        self.constant = constant

    @staticmethod
    def top() -> "LatticeValue":
        return _TOP

    @staticmethod
    def bottom() -> "LatticeValue":
        return _BOTTOM

    @staticmethod
    def const(value: int) -> "LatticeValue":
        return LatticeValue(LatticeValue.CONST, value)

    @property
    def is_top(self) -> bool:
        return self.kind == LatticeValue.TOP

    @property
    def is_bottom(self) -> bool:
        return self.kind == LatticeValue.BOTTOM

    @property
    def is_const(self) -> bool:
        return self.kind == LatticeValue.CONST

    def meet(self, other: "LatticeValue") -> "LatticeValue":
        if self.is_top:
            return other
        if other.is_top:
            return self
        if self.is_bottom or other.is_bottom:
            return _BOTTOM
        if self.constant == other.constant:
            return self
        return _BOTTOM

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, LatticeValue)
            and self.kind == other.kind
            and self.constant == other.constant
        )

    def __hash__(self) -> int:
        return hash((self.kind, self.constant))

    def __repr__(self) -> str:
        if self.is_const:
            return f"Const({self.constant})"
        return "Top" if self.is_top else "Bottom"


_TOP = LatticeValue(LatticeValue.TOP)
_BOTTOM = LatticeValue(LatticeValue.BOTTOM)


class SCCPResult:
    """Constants, executable edges, and reachable blocks."""

    def __init__(
        self,
        values: Dict[str, LatticeValue],
        executable_edges: Set[Tuple[str, str]],
        reachable_blocks: Set[str],
    ):
        self.values = values
        self.executable_edges = executable_edges
        self.reachable_blocks = reachable_blocks

    def constants(self) -> Dict[str, int]:
        return {
            name: value.constant
            for name, value in self.values.items()
            if value.is_const and value.constant is not None
        }

    def value_of(self, name: str) -> LatticeValue:
        return self.values.get(name, _TOP)


def run_sccp(function: Function, ssa_info: SSAInfo) -> SCCPResult:
    """Run SCCP over a prepared (SSA-form) function."""
    cfg = CFG(function)
    edges = build_ssa_edges(function, ssa_info)
    values: Dict[str, LatticeValue] = {
        name: _BOTTOM for name in ssa_info.param_names.values()
    }
    executable: Set[Tuple[str, str]] = set()
    visited: Set[str] = set()
    flow: deque = deque()
    ssa_work: deque = deque()

    def value_of(operand: Value) -> LatticeValue:
        if isinstance(operand, Constant):
            return LatticeValue.const(int(operand.value))
        if isinstance(operand, Undef):
            return _BOTTOM
        if isinstance(operand, Temp):
            return values.get(operand.name, _TOP)
        raise TypeError(f"unknown operand {operand!r}")

    def update(name: str, new_value: LatticeValue) -> None:
        old = values.get(name, _TOP)
        merged = old.meet(new_value)
        if merged != old:
            values[name] = merged
            for use in edges.uses_of.get(name, ()):
                ssa_work.append(use)

    def transfer(instr: Instruction) -> Optional[LatticeValue]:
        if isinstance(instr, Copy):
            return value_of(instr.src)
        if isinstance(instr, Pi):
            return value_of(instr.src)  # assertions do not create constants
        if isinstance(instr, (Load, Input)):
            return _BOTTOM
        if isinstance(instr, Call):
            return _BOTTOM
        if isinstance(instr, BinOp):
            lhs, rhs = value_of(instr.lhs), value_of(instr.rhs)
            if lhs.is_bottom or rhs.is_bottom:
                return _BOTTOM
            if lhs.is_top or rhs.is_top:
                return _TOP
            return _fold_binop(instr.op, lhs.constant, rhs.constant)
        if isinstance(instr, UnOp):
            operand = value_of(instr.operand)
            if operand.is_bottom:
                return _BOTTOM
            if operand.is_top:
                return _TOP
            assert operand.constant is not None
            value = -operand.constant if instr.op == "neg" else int(not operand.constant)
            return LatticeValue.const(value)
        if isinstance(instr, Cmp):
            lhs, rhs = value_of(instr.lhs), value_of(instr.rhs)
            if lhs.is_bottom or rhs.is_bottom:
                return _BOTTOM
            if lhs.is_top or rhs.is_top:
                return _TOP
            return LatticeValue.const(
                int(_fold_cmp(instr.op, lhs.constant, rhs.constant))
            )
        return None

    def evaluate_phi(phi: Phi) -> None:
        label = phi.block.label  # type: ignore[union-attr]
        merged = _TOP
        for pred, incoming in phi.incomings:
            if (pred, label) in executable:
                merged = merged.meet(value_of(incoming))
        update(phi.dest.name, merged)

    def evaluate_terminator(instr: Instruction) -> None:
        label = instr.block.label  # type: ignore[union-attr]
        if isinstance(instr, Jump):
            mark_edge(label, instr.target)
        elif isinstance(instr, Branch):
            cond = value_of(instr.cond)
            if cond.is_top:
                return
            if cond.is_bottom:
                mark_edge(label, instr.true_target)
                mark_edge(label, instr.false_target)
            elif cond.constant != 0:
                mark_edge(label, instr.true_target)
            else:
                mark_edge(label, instr.false_target)

    def mark_edge(src: str, dst: str) -> None:
        if (src, dst) not in executable:
            executable.add((src, dst))
            flow.append((src, dst))

    def evaluate(instr: Instruction) -> None:
        if isinstance(instr, Phi):
            evaluate_phi(instr)
        elif isinstance(instr, (Jump, Branch)):
            evaluate_terminator(instr)
        elif isinstance(instr, (Return, Store)):
            pass
        else:
            result = instr.result
            if result is None:
                return
            new_value = transfer(instr)
            if new_value is not None:
                update(result.name, new_value)

    entry = function.entry_label
    assert entry is not None
    visited.add(entry)
    for instr in function.block(entry).instructions:
        evaluate(instr)

    while flow or ssa_work:
        if flow:
            _, target = flow.popleft()
            block = function.block(target)
            if target not in visited:
                visited.add(target)
                for instr in block.instructions:
                    evaluate(instr)
            else:
                for phi in block.phis():
                    evaluate_phi(phi)
                evaluate_terminator(block.terminator)
        else:
            instr = ssa_work.popleft()
            if instr.block is not None and instr.block.label in visited:
                evaluate(instr)

    return SCCPResult(values, executable, visited)


def _fold_binop(op: str, lhs: Optional[int], rhs: Optional[int]) -> LatticeValue:
    assert lhs is not None and rhs is not None
    try:
        if op == "add":
            return LatticeValue.const(lhs + rhs)
        if op == "sub":
            return LatticeValue.const(lhs - rhs)
        if op == "mul":
            return LatticeValue.const(lhs * rhs)
        if op == "div":
            return _BOTTOM if rhs == 0 else LatticeValue.const(lhs // rhs)
        if op == "mod":
            return _BOTTOM if rhs == 0 else LatticeValue.const(lhs % rhs)
        if op == "shl":
            return _BOTTOM if not 0 <= rhs <= 512 else LatticeValue.const(lhs << rhs)
        if op == "shr":
            return _BOTTOM if not 0 <= rhs <= 512 else LatticeValue.const(lhs >> rhs)
        if op == "and":
            return LatticeValue.const(lhs & rhs)
        if op == "or":
            return LatticeValue.const(lhs | rhs)
        if op == "xor":
            return LatticeValue.const(lhs ^ rhs)
        if op == "min":
            return LatticeValue.const(min(lhs, rhs))
        if op == "max":
            return LatticeValue.const(max(lhs, rhs))
    except (OverflowError, ValueError):
        return _BOTTOM
    raise ValueError(f"unknown binary op {op!r}")


def _fold_cmp(op: str, lhs: Optional[int], rhs: Optional[int]) -> bool:
    assert lhs is not None and rhs is not None
    if op == "eq":
        return lhs == rhs
    if op == "ne":
        return lhs != rhs
    if op == "lt":
        return lhs < rhs
    if op == "le":
        return lhs <= rhs
    if op == "gt":
        return lhs > rhs
    if op == "ge":
        return lhs >= rhs
    raise ValueError(f"unknown comparison {op!r}")
