"""SSA construction and SSA-edge (def-use) queries.

Phi placement uses the Cytron et al. iterated-dominance-frontier method,
restricted to "global" names (variables live across a block boundary --
semi-pruned SSA, which avoids phis for purely block-local temporaries).
Renaming is the standard dominator-tree walk with per-variable stacks.

After construction every :class:`~repro.ir.values.Temp` name has exactly
one definition; :func:`build_ssa_edges` materialises the one-to-many
def-use map (the paper's "SSA edges").
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

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
from repro.ir.values import Temp, UNDEF, Value

PARAM_DEF = "<param>"


class SSAInfo:
    """Results of SSA construction for one function."""

    def __init__(self) -> None:
        # Original variable name -> SSA name bound on function entry.
        self.param_names: Dict[str, str] = {}
        # SSA name -> original variable name.
        self.original_name: Dict[str, str] = {}
        # Number of phis inserted.
        self.phi_count = 0

    def copy(self) -> "SSAInfo":
        clone = SSAInfo()
        clone.param_names = dict(self.param_names)
        clone.original_name = dict(self.original_name)
        clone.phi_count = self.phi_count
        return clone


def construct_ssa(function: Function, cfg: Optional[CFG] = None) -> SSAInfo:
    """Rewrite ``function`` into SSA form in place.

    The function must have no unreachable blocks (run
    :func:`repro.ir.cfg.remove_unreachable_blocks` first) and critical
    edges should already be split if assertions were inserted.  ``cfg``
    is a snapshot of the function's current structure to reuse (its
    dominator tree too); one is built when omitted.
    """
    if cfg is None:
        cfg = CFG(function)
    dom = cfg.dominators
    info = SSAInfo()
    blocks = function.blocks

    def_blocks, global_names = _collect_names(function)

    # -- phi insertion ----------------------------------------------------
    # The phis placed in each block, with the variable each merges; only
    # these get incoming values from the renaming walk.
    placed: Dict[str, List[Tuple[Phi, str]]] = {}
    predecessors = cfg.predecessors
    for var in sorted(global_names):
        var_blocks = def_blocks.get(var)
        if not var_blocks:
            continue
        for label in dom.iterated_frontier(var_blocks):
            preds = predecessors[label]
            if len(preds) < 2:
                continue
            phi = Phi(Temp(var), [(pred, Temp(var)) for pred in preds])
            blocks[label].prepend_phi(phi)
            placed.setdefault(label, []).append((phi, var))
            info.phi_count += 1

    # -- renaming ----------------------------------------------------------
    # Per variable, the stack of SSA values in scope (innermost last)
    # and the number of versions made so far.
    stacks: Dict[str, List[Temp]] = {}
    counters: Dict[str, int] = {}
    original_name = info.original_name

    def current(operand: Value) -> Value:
        """The SSA value in scope for a pre-SSA operand."""
        if operand.__class__ is not Temp:
            return operand
        stack = stacks.get(operand.name)
        return stack[-1] if stack else UNDEF

    # Parameters are defined "on entry"; the walk below defines the rest
    # the same way: version ``var.N``, pushed on ``var``'s stack.
    for param in function.params:
        index = counters.get(param, 0)
        counters[param] = index + 1
        name = info.param_names[param] = f"{param}.{index}"
        original_name[name] = param
        stacks.setdefault(param, []).append(Temp(name))

    successors = cfg.successors
    entry = function.entry_label
    assert entry is not None
    # Dominator-tree walk without Python recursion (deep CFGs are fine):
    # a ``None`` entry visits the block, a list pops the names it pushed.
    walk: List[Tuple[str, Optional[List[str]]]] = [(entry, None)]
    while walk:
        label, pushed = walk.pop()
        if pushed is not None:
            for var in reversed(pushed):
                stacks[var].pop()
            continue
        pushed = []
        for instr in blocks[label].instructions:
            kind = instr.__class__
            if kind is Call:
                instr.args = [current(arg) for arg in instr.args]
            elif kind is not Phi:  # phi incomings are renamed from predecessors
                for slot in _OPERAND_SLOTS[kind]:
                    operand = getattr(instr, slot)
                    if operand.__class__ is Temp:
                        stack = stacks.get(operand.name)
                        setattr(instr, slot, stack[-1] if stack else UNDEF)
                if kind is Pi and instr.src.__class__ is Temp:
                    # Record which SSA variable this assertion derives from.
                    instr.parent = instr.src.name
            result = instr.result
            if result is not None:
                var = result.name
                index = counters.get(var, 0)
                counters[var] = index + 1
                name = f"{var}.{index}"
                original_name[name] = var
                instr.dest = value = Temp(name)
                stacks.setdefault(var, []).append(value)
                pushed.append(var)
        for succ in successors[label]:
            phis = placed.get(succ)
            if phis:
                position = predecessors[succ].index(label)
                for phi, var in phis:
                    stack = stacks.get(var)
                    phi.incomings[position] = (label, stack[-1] if stack else UNDEF)
        walk.append((label, pushed))
        for child in reversed(dom.children[label]):
            walk.append((child, None))
    return info


#: The operand fields of each instruction class but Phi and Call (whose
#: operands are lists), renamed in place.
_OPERAND_SLOTS: Dict[type, Tuple[str, ...]] = {
    BinOp: ("lhs", "rhs"),
    UnOp: ("operand",),
    Cmp: ("lhs", "rhs"),
    Copy: ("src",),
    Pi: ("src", "bound"),
    Load: ("index",),
    Store: ("index", "value"),
    Input: (),
    Jump: (),
    Branch: ("cond",),
    Return: ("value",),
}


def _collect_names(function: Function) -> Tuple[Dict[str, Set[str]], Set[str]]:
    """Definition blocks per variable, plus the set of "global" names.

    A name is global when some block uses it before any local definition
    (i.e. its value can flow across a block boundary).  Parameters are
    always global.
    """
    def_blocks: Dict[str, Set[str]] = {}
    global_names: Set[str] = set(function.params)
    entry = function.entry_label
    assert entry is not None
    for param in function.params:
        def_blocks.setdefault(param, set()).add(entry)
    for label, block in function.blocks.items():
        defined_here: Set[str] = set()
        for instr in block.instructions:
            if instr.__class__ is Phi:
                continue
            for operand in instr.operands():
                if operand.__class__ is Temp and operand.name not in defined_here:
                    global_names.add(operand.name)
            result = instr.result
            if result is not None:
                defined_here.add(result.name)
                def_blocks.setdefault(result.name, set()).add(label)
    return def_blocks, global_names


class SSAEdges:
    """Def-use information over an SSA-form function.

    ``def_of[name]`` is the defining instruction (or the string
    ``PARAM_DEF`` for parameters); ``uses_of[name]`` lists every
    instruction reading ``name`` -- these are the paper's SSA edges.
    """

    def __init__(self, function: Function, param_names: Optional[Set[str]] = None):
        self.function = function
        self.def_of: Dict[str, object] = {}
        self.uses_of: Dict[str, List[Instruction]] = {}
        params = param_names if param_names is not None else set()
        for name in params:
            self.def_of[name] = PARAM_DEF
            self.uses_of.setdefault(name, [])
        for block in function.blocks.values():
            for instr in block.instructions:
                result = instr.result
                if result is not None:
                    if result.name in self.def_of:
                        raise ValueError(
                            f"not in SSA form: {result.name} defined twice "
                            f"(second at {instr!r})"
                        )
                    self.def_of[result.name] = instr
                    self.uses_of.setdefault(result.name, [])
        for block in function.blocks.values():
            for instr in block.instructions:
                for operand in instr.operands():
                    if isinstance(operand, Temp):
                        self.uses_of.setdefault(operand.name, []).append(instr)

    def defining_instruction(self, name: str) -> Optional[Instruction]:
        """The instruction defining ``name``, or None for parameters/unknown."""
        definition = self.def_of.get(name)
        return definition if isinstance(definition, Instruction) else None


def build_ssa_edges(function: Function, info: Optional[SSAInfo] = None) -> SSAEdges:
    params = set(info.param_names.values()) if info is not None else set()
    return SSAEdges(function, params)
