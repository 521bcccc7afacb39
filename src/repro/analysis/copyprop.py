"""Copy propagation over SSA form.

The classical transformation VRP subsumes: a variable defined by
``x = Copy y`` (or by a Pi node, which is a semantic copy) can have all
its uses replaced by its source.  Provided both as a plain SSA rewrite
and as a query API used to validate the paper's subsumption claim
(a VRP final range ``1[y:y:0]`` must agree with the copy chains here).

Pi-derived copies are *not* folded by default: the assertion carries
range information VRP wants to keep.  Enable ``through_assertions`` when
using this as a pure optimiser.
"""

from __future__ import annotations

from typing import Dict

from repro.ir.function import Function
from repro.ir.instructions import Copy, Pi
from repro.ir.values import Temp


def copy_chains(function: Function, through_assertions: bool = False) -> Dict[str, str]:
    """Map each copy-defined SSA name to its ultimate source name."""
    direct: Dict[str, str] = {}
    for block in function.blocks.values():
        for instr in block.instructions:
            if isinstance(instr, Copy) and isinstance(instr.src, Temp):
                direct[instr.dest.name] = instr.src.name
            elif (
                through_assertions
                and isinstance(instr, Pi)
                and isinstance(instr.src, Temp)
            ):
                direct[instr.dest.name] = instr.src.name
    resolved: Dict[str, str] = {}

    def resolve(name: str) -> str:
        seen = []
        current = name
        while current in direct and current not in resolved:
            seen.append(current)
            current = direct[current]
        root = resolved.get(current, current)
        for entry in seen:
            resolved[entry] = root
        return root

    return {name: resolve(name) for name in direct}


def propagate_copies(function: Function, through_assertions: bool = False) -> int:
    """Rewrite uses of copies to their sources; returns replacements made."""
    chains = copy_chains(function, through_assertions=through_assertions)
    replaced = 0
    for block in function.blocks.values():
        for instr in block.instructions:
            for operand in list(instr.operands()):
                if isinstance(operand, Temp) and operand.name in chains:
                    root = chains[operand.name]
                    if root != operand.name:
                        instr.replace_operand(operand, Temp(root))
                        replaced += 1
    if replaced:
        function.stamp = None
    return replaced


def remove_dead_copies(function: Function) -> int:
    """Delete Copy instructions whose result is no longer used."""
    used = set()
    for block in function.blocks.values():
        for instr in block.instructions:
            for operand in instr.operands():
                if isinstance(operand, Temp):
                    used.add(operand.name)
    removed = 0
    for block in function.blocks.values():
        for instr in list(block.instructions):
            if isinstance(instr, Copy) and instr.dest.name not in used:
                block.remove(instr)
                removed += 1
    if removed:
        function.stamp = None
    return removed
