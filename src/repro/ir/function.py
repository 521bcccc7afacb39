"""Basic blocks, functions and modules.

A :class:`Function` owns an ordered mapping of labelled
:class:`BasicBlock` objects.  Edges are implied by block terminators;
:mod:`repro.ir.cfg` provides predecessor/successor queries and traversal
orders over them.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from repro.ir.instructions import (
    Branch,
    Instruction,
    Jump,
    Phi,
    Pi,
    Return,
)
from repro.ir.values import Temp


class BasicBlock:
    """A labelled straight-line sequence of instructions plus a terminator."""

    def __init__(self, label: str):
        self.label = label
        self.instructions: List[Instruction] = []

    # -- construction ---------------------------------------------------

    def append(self, instr: Instruction) -> Instruction:
        if self.is_terminated() and not instr.is_terminator():
            raise ValueError(f"block {self.label} already terminated")
        instr.block = self
        self.instructions.append(instr)
        return instr

    def insert(self, index: int, instr: Instruction) -> Instruction:
        instr.block = self
        self.instructions.insert(index, instr)
        return instr

    def prepend_phi(self, phi: Phi) -> Phi:
        """Insert a phi at the top of the block (after existing phis)."""
        index = len(self.phis())
        self.insert(index, phi)
        return phi

    def remove(self, instr: Instruction) -> None:
        self.instructions.remove(instr)
        instr.block = None

    # -- structure queries ----------------------------------------------

    def is_terminated(self) -> bool:
        return bool(self.instructions) and self.instructions[-1].is_terminator()

    @property
    def terminator(self) -> Instruction:
        if not self.is_terminated():
            raise ValueError(f"block {self.label} has no terminator")
        return self.instructions[-1]

    def phis(self) -> List[Phi]:
        out: List[Phi] = []
        for instr in self.instructions:
            if isinstance(instr, Phi):
                out.append(instr)
            else:
                break
        return out

    def pis(self) -> List[Pi]:
        return [instr for instr in self.instructions if isinstance(instr, Pi)]

    def body(self) -> List[Instruction]:
        """Non-phi instructions, including the terminator."""
        return [instr for instr in self.instructions if not isinstance(instr, Phi)]

    def successors(self) -> List[str]:
        term = self.terminator
        if isinstance(term, (Jump, Branch, Return)):
            return term.successors()
        raise TypeError(f"unknown terminator {term!r}")

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __repr__(self) -> str:
        return f"BasicBlock({self.label!r}, {len(self.instructions)} instrs)"


class Function:
    """A function: parameters, local arrays, and a CFG of basic blocks."""

    def __init__(self, name: str, params: Optional[List[str]] = None):
        self.name = name
        self.params: List[str] = list(params or [])
        self.blocks: Dict[str, BasicBlock] = {}
        self.entry_label: Optional[str] = None
        # Local array declarations: name -> size (None when unsized).
        self.arrays: Dict[str, Optional[int]] = {}
        self._label_counter = 0
        self._temp_counter = 0
        # The front-end memo's marks (see :mod:`repro.ir.memo`):
        # ``source_key`` is what ``lower_program`` lowered this function
        # from, ``source_shift`` how many lines below that source's lines
        # it sits, and ``stamp`` the memo entry ``prepare_module`` made it
        # equal to.  Every IR rewrite clears ``stamp``.
        self.source_key: Optional[tuple] = None
        self.source_shift = 0
        self.stamp = None

    def copy(self, name: Optional[str] = None, lines: int = 0) -> "Function":
        """A deep copy, renamed to ``name`` when given, moved ``lines``
        lines down (each instruction's ``loc``).

        Block labels, temps, every instruction's ``loc``, the label and
        temp counters, ``arrays`` and the entry label are kept; the
        front-end memo's marks are not.
        """
        clone = Function(self.name if name is None else name, self.params)
        clone.arrays = dict(self.arrays)
        clone._label_counter = self._label_counter
        clone._temp_counter = self._temp_counter
        blocks = clone.blocks
        for label, block in self.blocks.items():
            new_block = blocks[label] = BasicBlock(label)
            new_block.instructions = [instr.copy(new_block) for instr in block.instructions]
        clone.entry_label = self.entry_label
        if lines:
            for instr in clone.instructions():
                if instr.loc is not None:
                    instr.loc += lines
        return clone

    # -- block management -------------------------------------------------

    def new_block(self, hint: str = "bb") -> BasicBlock:
        label = f"{hint}{self._label_counter}"
        self._label_counter += 1
        return self.add_block(BasicBlock(label))

    def add_block(self, block: BasicBlock) -> BasicBlock:
        if block.label in self.blocks:
            raise ValueError(f"duplicate block label {block.label!r}")
        self.blocks[block.label] = block
        if self.entry_label is None:
            self.entry_label = block.label
        return block

    def remove_block(self, label: str) -> None:
        if label == self.entry_label:
            raise ValueError("cannot remove the entry block")
        del self.blocks[label]

    @property
    def entry(self) -> BasicBlock:
        if self.entry_label is None:
            raise ValueError(f"function {self.name} has no blocks")
        return self.blocks[self.entry_label]

    def block(self, label: str) -> BasicBlock:
        return self.blocks[label]

    # -- temp management ---------------------------------------------------

    def new_temp(self, hint: str = "t") -> Temp:
        name = f"{hint}${self._temp_counter}"
        self._temp_counter += 1
        return Temp(name)

    # -- iteration ---------------------------------------------------------

    def instructions(self) -> Iterator[Instruction]:
        for block in self.blocks.values():
            yield from block.instructions

    def instruction_count(self) -> int:
        return sum(len(block.instructions) for block in self.blocks.values())

    def __repr__(self) -> str:
        return f"Function({self.name!r}, params={self.params}, blocks={len(self.blocks)})"


class Module:
    """A whole program: a set of functions, one of which is ``main``."""

    def __init__(self, name: str = "module"):
        self.name = name
        self.functions: Dict[str, Function] = {}

    def add_function(self, function: Function) -> Function:
        if function.name in self.functions:
            raise ValueError(f"duplicate function {function.name!r}")
        self.functions[function.name] = function
        return function

    def function(self, name: str) -> Function:
        return self.functions[name]

    @property
    def main(self) -> Function:
        return self.functions["main"]

    def instruction_count(self) -> int:
        return sum(f.instruction_count() for f in self.functions.values())

    def __repr__(self) -> str:
        return f"Module({self.name!r}, functions={sorted(self.functions)})"
