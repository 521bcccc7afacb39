"""Call graph construction and traversal orders.

Interprocedural value range propagation processes callees before callers
where possible (so return ranges are available) and iterates over
recursive components.  The call graph provides that order via Tarjan
SCC condensation, computed once per graph, and splits the module into
weakly connected components, each of which has a self-contained fixed
point.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, FrozenSet, List, NamedTuple, Set, Tuple

from repro.ir.function import Module
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


class Component(NamedTuple):
    """One weakly connected component of the call graph."""

    #: Function names, callees first (the :meth:`CallGraph.bottom_up_order`
    #: order restricted to the component).
    members: Tuple[str, ...]
    #: The call sites inside the members, in ``CallGraph.call_sites`` order.
    call_sites: Tuple[CallSite, ...]


class CallGraph:
    """Functions, their call sites, and SCC-based orders: a snapshot of
    the module, its SCCs and components computed once, on first use."""

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
        """Whether ``name`` lies on a call cycle (a self-call included)."""
        return name in self._recursive

    def sccs(self) -> List[List[str]]:
        """Strongly connected components in reverse topological order
        (callees before callers)."""
        return [list(component) for component in self._sccs]

    def bottom_up_order(self) -> List[str]:
        """Function names, callees before callers."""
        return [name for component in self._sccs for name in component]

    def components(self) -> List[Component]:
        """Weakly connected components, ordered by their first member in
        :meth:`bottom_up_order`.  No call edge crosses one, so each has a
        self-contained interprocedural fixed point."""
        return list(self._components)

    @cached_property
    def _sccs(self) -> Tuple[Tuple[str, ...], ...]:
        return tuple(tuple(component) for component in self._tarjan())

    @cached_property
    def _recursive(self) -> FrozenSet[str]:
        return frozenset(
            name
            for component in self._sccs
            for name in component
            if len(component) > 1 or name in self.callees[name]
        )

    @cached_property
    def _components(self) -> Tuple[Component, ...]:
        parent = {name: name for name in self.module.functions}

        def root(name: str) -> str:
            while parent[name] != name:
                parent[name] = name = parent[parent[name]]
            return name

        for site in self.call_sites:
            if site.callee in parent:
                parent[root(site.callee)] = root(site.caller)
        members: Dict[str, List[str]] = {}
        for name in self.bottom_up_order():
            members.setdefault(root(name), []).append(name)
        sites: Dict[str, List[CallSite]] = {key: [] for key in members}
        for site in self.call_sites:
            sites[root(site.caller)].append(site)
        return tuple(
            Component(tuple(names), tuple(sites[key]))
            for key, names in members.items()
        )

    def _tarjan(self) -> List[List[str]]:
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
