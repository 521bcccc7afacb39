"""Instruction classes for the three-address IR.

Instruction layout inside a basic block::

    [Phi*] [Pi*] [body instructions*] terminator

Phis must come first (they execute "on the edge"), Pis (assertion nodes,
the paper's post-branch assertions) come next, and exactly one terminator
(:class:`Jump`, :class:`Branch` or :class:`Return`) ends the block.

All non-terminator instructions that produce a value define a single
:class:`~repro.ir.values.Temp` held in ``instr.result``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.ir.values import Constant, Temp, Value

# Binary opcodes.  Division and modulo floor (Python's ``//`` and ``%``).
BINARY_OPS = ("add", "sub", "mul", "div", "mod", "shl", "shr", "and", "or", "xor", "min", "max")
# Unary opcodes.
UNARY_OPS = ("neg", "not")
# Comparison opcodes (produce 0 or 1).
CMP_OPS = ("eq", "ne", "lt", "le", "gt", "ge")

#: The largest shift amount an operation accepts; a shift by a
#: negative amount or by more than this traps.
MAX_SHIFT = 512


class EvaluationError(ArithmeticError):
    """An operation has no value: division by zero or a bad shift amount."""


def apply_binop(op: str, lhs: int, rhs: int) -> int:
    """The value of a binary opcode on two integers: the one definition
    the interpreter and the constant folder share."""
    if op == "add":
        return lhs + rhs
    if op == "sub":
        return lhs - rhs
    if op == "mul":
        return lhs * rhs
    if op == "div":
        if rhs == 0:
            raise EvaluationError("division by zero")
        return lhs // rhs
    if op == "mod":
        if rhs == 0:
            raise EvaluationError("modulo by zero")
        return lhs % rhs
    if op == "shl":
        if rhs < 0 or rhs > MAX_SHIFT:
            raise EvaluationError(f"bad shift amount {rhs}")
        return lhs << rhs
    if op == "shr":
        if rhs < 0 or rhs > MAX_SHIFT:
            raise EvaluationError(f"bad shift amount {rhs}")
        return lhs >> rhs
    if op == "and":
        return lhs & rhs
    if op == "or":
        return lhs | rhs
    if op == "xor":
        return lhs ^ rhs
    if op == "min":
        return min(lhs, rhs)
    if op == "max":
        return max(lhs, rhs)
    raise EvaluationError(f"unknown binary op {op!r}")


def apply_cmp(op: str, lhs: int, rhs: int) -> bool:
    """The truth of a comparison opcode on two integers."""
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
    raise EvaluationError(f"unknown comparison {op!r}")


CMP_NEGATION: Dict[str, str] = {
    "eq": "ne",
    "ne": "eq",
    "lt": "ge",
    "le": "gt",
    "gt": "le",
    "ge": "lt",
}

CMP_SWAP: Dict[str, str] = {
    "eq": "eq",
    "ne": "ne",
    "lt": "gt",
    "le": "ge",
    "gt": "lt",
    "ge": "le",
}


class Instruction:
    """Base class for all IR instructions."""

    __slots__ = ("block", "loc")

    def __init__(self) -> None:
        # Back-pointer to the owning block; set when appended to a block.
        self.block = None
        # Source line this instruction was lowered from (None for
        # synthesised instructions: phis, split-edge jumps, ...).
        self.loc: Optional[int] = None

    @property
    def result(self) -> Optional[Temp]:
        """The Temp defined by this instruction, or None."""
        return None

    def operands(self) -> List[Value]:
        """All value operands read by this instruction."""
        return []

    def replace_operand(self, old: Value, new: Value) -> None:
        """Replace every occurrence of ``old`` among the operands."""
        raise NotImplementedError

    def is_terminator(self) -> bool:
        return False

    def copy(self, block=None) -> "Instruction":
        """A copy with the same operands and ``loc``, owned by ``block``
        (detached when ``None``; the block's list is the caller's to fill).

        Values are immutable and shared; list fields (phi incomings,
        call arguments) are copied so the two never alias.  Each class
        copies its own fields, one assignment each.
        """
        raise NotImplementedError


_new = object.__new__


class BinOp(Instruction):
    """``result = lhs <op> rhs``"""

    __slots__ = ("dest", "op", "lhs", "rhs")

    def __init__(self, dest: Temp, op: str, lhs: Value, rhs: Value):
        super().__init__()
        if op not in BINARY_OPS:
            raise ValueError(f"unknown binary op {op!r}")
        self.dest = dest
        self.op = op
        self.lhs = lhs
        self.rhs = rhs

    @property
    def result(self) -> Temp:
        return self.dest

    def operands(self) -> List[Value]:
        return [self.lhs, self.rhs]

    def replace_operand(self, old: Value, new: Value) -> None:
        if self.lhs == old:
            self.lhs = new
        if self.rhs == old:
            self.rhs = new

    def copy(self, block=None) -> "BinOp":
        clone = _new(BinOp)
        clone.block, clone.loc = block, self.loc
        clone.dest, clone.op, clone.lhs, clone.rhs = (
            self.dest, self.op, self.lhs, self.rhs
        )
        return clone

    def __repr__(self) -> str:
        return f"{self.dest} = {self.op} {self.lhs}, {self.rhs}"


class UnOp(Instruction):
    """``result = <op> operand``"""

    __slots__ = ("dest", "op", "operand")

    def __init__(self, dest: Temp, op: str, operand: Value):
        super().__init__()
        if op not in UNARY_OPS:
            raise ValueError(f"unknown unary op {op!r}")
        self.dest = dest
        self.op = op
        self.operand = operand

    @property
    def result(self) -> Temp:
        return self.dest

    def operands(self) -> List[Value]:
        return [self.operand]

    def replace_operand(self, old: Value, new: Value) -> None:
        if self.operand == old:
            self.operand = new

    def copy(self, block=None) -> "UnOp":
        clone = _new(UnOp)
        clone.block, clone.loc = block, self.loc
        clone.dest, clone.op, clone.operand = self.dest, self.op, self.operand
        return clone

    def __repr__(self) -> str:
        return f"{self.dest} = {self.op} {self.operand}"


class Cmp(Instruction):
    """``result = lhs <relop> rhs`` producing 0 or 1."""

    __slots__ = ("dest", "op", "lhs", "rhs")

    def __init__(self, dest: Temp, op: str, lhs: Value, rhs: Value):
        super().__init__()
        if op not in CMP_OPS:
            raise ValueError(f"unknown comparison op {op!r}")
        self.dest = dest
        self.op = op
        self.lhs = lhs
        self.rhs = rhs

    @property
    def result(self) -> Temp:
        return self.dest

    def operands(self) -> List[Value]:
        return [self.lhs, self.rhs]

    def replace_operand(self, old: Value, new: Value) -> None:
        if self.lhs == old:
            self.lhs = new
        if self.rhs == old:
            self.rhs = new

    def copy(self, block=None) -> "Cmp":
        clone = _new(Cmp)
        clone.block, clone.loc = block, self.loc
        clone.dest, clone.op, clone.lhs, clone.rhs = (
            self.dest, self.op, self.lhs, self.rhs
        )
        return clone

    def __repr__(self) -> str:
        return f"{self.dest} = cmp.{self.op} {self.lhs}, {self.rhs}"


class Copy(Instruction):
    """``result = src``"""

    __slots__ = ("dest", "src")

    def __init__(self, dest: Temp, src: Value):
        super().__init__()
        self.dest = dest
        self.src = src

    @property
    def result(self) -> Temp:
        return self.dest

    def operands(self) -> List[Value]:
        return [self.src]

    def replace_operand(self, old: Value, new: Value) -> None:
        if self.src == old:
            self.src = new

    def copy(self, block=None) -> "Copy":
        clone = _new(Copy)
        clone.block, clone.loc = block, self.loc
        clone.dest, clone.src = self.dest, self.src
        return clone

    def __repr__(self) -> str:
        return f"{self.dest} = {self.src}"


class Phi(Instruction):
    """SSA phi-function: ``result = phi [pred_label, value]*``.

    ``incomings`` maps predecessor block labels to incoming values; the
    order matches the block's predecessor list at construction time but
    lookups are by label so edge reordering is safe.
    """

    __slots__ = ("dest", "incomings")

    def __init__(self, dest: Temp, incomings: Optional[List[Tuple[str, Value]]] = None):
        super().__init__()
        self.dest = dest
        self.incomings: List[Tuple[str, Value]] = list(incomings or [])

    @property
    def result(self) -> Temp:
        return self.dest

    def operands(self) -> List[Value]:
        return [value for _, value in self.incomings]

    def replace_operand(self, old: Value, new: Value) -> None:
        self.incomings = [
            (label, new if value == old else value) for label, value in self.incomings
        ]

    def value_for(self, pred_label: str) -> Value:
        for label, value in self.incomings:
            if label == pred_label:
                return value
        raise KeyError(f"phi {self.dest} has no incoming for predecessor {pred_label!r}")

    def set_value_for(self, pred_label: str, value: Value) -> None:
        for i, (label, _) in enumerate(self.incomings):
            if label == pred_label:
                self.incomings[i] = (label, value)
                return
        self.incomings.append((pred_label, value))

    def copy(self, block=None) -> "Phi":
        clone = _new(Phi)
        clone.block, clone.loc = block, self.loc
        clone.dest, clone.incomings = self.dest, list(self.incomings)
        return clone

    def __repr__(self) -> str:
        pairs = ", ".join(f"[{label}: {value}]" for label, value in self.incomings)
        return f"{self.dest} = phi {pairs}"


class Pi(Instruction):
    """Assertion node (the paper's post-branch assertion).

    ``result = pi src  assuming  (src <relop> bound)`` -- semantically a
    copy of ``src``, but the analysis may refine ``result``'s range with
    the asserted relation.  ``parent`` records the SSA variable the
    assertion derives from, used by the paper's footnote-4 merge rule.
    """

    __slots__ = ("dest", "src", "op", "bound", "parent")

    def __init__(self, dest: Temp, src: Value, op: str, bound: Value,
                 parent: Optional[str] = None):
        super().__init__()
        if op not in CMP_OPS:
            raise ValueError(f"unknown assertion relop {op!r}")
        self.dest = dest
        self.src = src
        self.op = op
        self.bound = bound
        # Name of the original (pre-assertion) SSA variable.
        self.parent = parent

    @property
    def result(self) -> Temp:
        return self.dest

    def operands(self) -> List[Value]:
        return [self.src, self.bound]

    def replace_operand(self, old: Value, new: Value) -> None:
        if self.src == old:
            self.src = new
        if self.bound == old:
            self.bound = new

    def copy(self, block=None) -> "Pi":
        clone = _new(Pi)
        clone.block, clone.loc = block, self.loc
        clone.dest, clone.src, clone.op, clone.bound, clone.parent = (
            self.dest, self.src, self.op, self.bound, self.parent
        )
        return clone

    def __repr__(self) -> str:
        return f"{self.dest} = pi {self.src} assuming ({self.src} {self.op} {self.bound})"


class Load(Instruction):
    """``result = array[index]`` -- loads are ⊥ for the analysis."""

    __slots__ = ("dest", "array", "index")

    def __init__(self, dest: Temp, array: str, index: Value):
        super().__init__()
        self.dest = dest
        self.array = array
        self.index = index

    @property
    def result(self) -> Temp:
        return self.dest

    def operands(self) -> List[Value]:
        return [self.index]

    def replace_operand(self, old: Value, new: Value) -> None:
        if self.index == old:
            self.index = new

    def copy(self, block=None) -> "Load":
        clone = _new(Load)
        clone.block, clone.loc = block, self.loc
        clone.dest, clone.array, clone.index = self.dest, self.array, self.index
        return clone

    def __repr__(self) -> str:
        return f"{self.dest} = load {self.array}[{self.index}]"


class Store(Instruction):
    """``array[index] = value``"""

    __slots__ = ("array", "index", "value")

    def __init__(self, array: str, index: Value, value: Value):
        super().__init__()
        self.array = array
        self.index = index
        self.value = value

    def operands(self) -> List[Value]:
        return [self.index, self.value]

    def replace_operand(self, old: Value, new: Value) -> None:
        if self.index == old:
            self.index = new
        if self.value == old:
            self.value = new

    def copy(self, block=None) -> "Store":
        clone = _new(Store)
        clone.block, clone.loc = block, self.loc
        clone.array, clone.index, clone.value = (
            self.array, self.index, self.value
        )
        return clone

    def __repr__(self) -> str:
        return f"store {self.array}[{self.index}] = {self.value}"


class Call(Instruction):
    """``result = call callee(args...)``"""

    __slots__ = ("dest", "callee", "args")

    def __init__(self, dest: Optional[Temp], callee: str, args: List[Value]):
        super().__init__()
        self.dest = dest
        self.callee = callee
        self.args = list(args)

    @property
    def result(self) -> Optional[Temp]:
        return self.dest

    def operands(self) -> List[Value]:
        return list(self.args)

    def replace_operand(self, old: Value, new: Value) -> None:
        self.args = [new if arg == old else arg for arg in self.args]

    def copy(self, block=None) -> "Call":
        clone = _new(Call)
        clone.block, clone.loc = block, self.loc
        clone.dest, clone.callee, clone.args = (
            self.dest, self.callee, list(self.args)
        )
        return clone

    def __repr__(self) -> str:
        args = ", ".join(str(a) for a in self.args)
        if self.dest is None:
            return f"call {self.callee}({args})"
        return f"{self.dest} = call {self.callee}({args})"


class Input(Instruction):
    """``result = input()`` -- an external, statically unknown value.

    At runtime the interpreter pops the next element of the program's
    input vector.  Statically the result is ⊥ (like a load from memory),
    which is what forces heuristic fallback on branches that depend on it.
    """

    __slots__ = ("dest",)

    def __init__(self, dest: Temp):
        super().__init__()
        self.dest = dest

    @property
    def result(self) -> Temp:
        return self.dest

    def operands(self) -> List[Value]:
        return []

    def replace_operand(self, old: Value, new: Value) -> None:
        pass

    def copy(self, block=None) -> "Input":
        clone = _new(Input)
        clone.block, clone.loc = block, self.loc
        clone.dest = self.dest
        return clone

    def __repr__(self) -> str:
        return f"{self.dest} = input()"


class Jump(Instruction):
    """Unconditional terminator."""

    __slots__ = ("target",)

    def __init__(self, target: str):
        super().__init__()
        self.target = target

    def is_terminator(self) -> bool:
        return True

    def operands(self) -> List[Value]:
        return []

    def replace_operand(self, old: Value, new: Value) -> None:
        pass

    def successors(self) -> List[str]:
        return [self.target]

    def copy(self, block=None) -> "Jump":
        clone = _new(Jump)
        clone.block, clone.loc = block, self.loc
        clone.target = self.target
        return clone

    def __repr__(self) -> str:
        return f"jump {self.target}"


class Branch(Instruction):
    """Conditional terminator: if cond != 0 goto true_target else false_target."""

    __slots__ = ("cond", "true_target", "false_target")

    def __init__(self, cond: Value, true_target: str, false_target: str):
        super().__init__()
        self.cond = cond
        self.true_target = true_target
        self.false_target = false_target

    def is_terminator(self) -> bool:
        return True

    def operands(self) -> List[Value]:
        return [self.cond]

    def replace_operand(self, old: Value, new: Value) -> None:
        if self.cond == old:
            self.cond = new

    def successors(self) -> List[str]:
        return [self.true_target, self.false_target]

    def copy(self, block=None) -> "Branch":
        clone = _new(Branch)
        clone.block, clone.loc = block, self.loc
        clone.cond, clone.true_target, clone.false_target = (
            self.cond, self.true_target, self.false_target
        )
        return clone

    def __repr__(self) -> str:
        return f"branch {self.cond} ? {self.true_target} : {self.false_target}"


class Return(Instruction):
    """Function return terminator."""

    __slots__ = ("value",)

    def __init__(self, value: Optional[Value] = None):
        super().__init__()
        self.value = value if value is not None else Constant(0)

    def is_terminator(self) -> bool:
        return True

    def operands(self) -> List[Value]:
        return [self.value]

    def replace_operand(self, old: Value, new: Value) -> None:
        if self.value == old:
            self.value = new

    def successors(self) -> List[str]:
        return []

    def copy(self, block=None) -> "Return":
        clone = _new(Return)
        clone.block, clone.loc = block, self.loc
        clone.value = self.value
        return clone

    def __repr__(self) -> str:
        return f"return {self.value}"
