"""Call graph construction and traversal orders.

Interprocedural value range propagation processes callees before callers
where possible (so return ranges are available) and iterates over
recursive components.  The call graph provides that order via Tarjan
SCC condensation.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.ir.function import Function, Module
from repro.ir.instructions import Call


class CallSite:
    """One call instruction, with its location."""

    __slots__ = ("caller", "block_label", "instruction")

    def __init__(self, caller: str, block_label: str, instruction: Call):
        self.caller = caller
        self.block_label = block_label
        self.instruction = instruction

    @property
    def callee(self) -> str:
        return self.instruction.callee

    def __repr__(self) -> str:
        return f"CallSite({self.caller} -> {self.callee} at {self.block_label})"


class CallGraph:
    """Functions, their call sites, and SCC-based orders."""

    def __init__(self, module: Module):
        self.module = module
        self.call_sites: List[CallSite] = []
        self.callees: Dict[str, Set[str]] = {name: set() for name in module.functions}
        self.callers: Dict[str, Set[str]] = {name: set() for name in module.functions}
        self._by_callee: Dict[str, List[CallSite]] = {}
        self._by_caller: Dict[str, List[CallSite]] = {}
        for name, function in module.functions.items():
            for label, block in function.blocks.items():
                for instr in block.instructions:
                    if isinstance(instr, Call):
                        site = CallSite(name, label, instr)
                        self.call_sites.append(site)
                        self._by_callee.setdefault(instr.callee, []).append(site)
                        self._by_caller.setdefault(name, []).append(site)
                        if instr.callee in self.callees:
                            self.callees[name].add(instr.callee)
                            self.callers[instr.callee].add(name)

    def sites_of_callee(self, callee: str) -> List[CallSite]:
        return list(self._by_callee.get(callee, ()))

    def sites_in_caller(self, caller: str) -> List[CallSite]:
        return list(self._by_caller.get(caller, ()))

    def is_recursive(self, name: str) -> bool:
        for scc in self.sccs():
            if name in scc:
                return len(scc) > 1 or name in self.callees[name]
        return False

    def sccs(self) -> List[List[str]]:
        """Strongly connected components in reverse topological order
        (callees before callers)."""
        index_counter = [0]
        indices: Dict[str, int] = {}
        lowlink: Dict[str, int] = {}
        on_stack: Set[str] = set()
        stack: List[str] = []
        components: List[List[str]] = []

        def strongconnect(node: str) -> None:
            work: List[Tuple[str, int]] = [(node, 0)]
            while work:
                current, child_index = work.pop()
                if child_index == 0:
                    indices[current] = index_counter[0]
                    lowlink[current] = index_counter[0]
                    index_counter[0] += 1
                    stack.append(current)
                    on_stack.add(current)
                children = sorted(self.callees[current])
                recursed = False
                for position in range(child_index, len(children)):
                    child = children[position]
                    if child not in indices:
                        work.append((current, position + 1))
                        work.append((child, 0))
                        recursed = True
                        break
                    if child in on_stack:
                        lowlink[current] = min(lowlink[current], indices[child])
                if recursed:
                    continue
                if lowlink[current] == indices[current]:
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == current:
                            break
                    components.append(sorted(component))
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[current])

        for name in sorted(self.module.functions):
            if name not in indices:
                strongconnect(name)
        return components

    def bottom_up_order(self) -> List[str]:
        """Function names, callees before callers."""
        return [name for component in self.sccs() for name in component]
