"""Postdominator computation (used by heuristic predictors).

Runs the same iterative algorithm as :mod:`repro.ir.dominance` on the
reversed CFG with a virtual exit node joining all return blocks (and, as
an engineering necessity, blocks of infinite loops, which otherwise have
no path to any exit).  A postdominance query is an O(1) ancestor test
on the preorder numbers of the ipdom tree.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.ir.cfg import CFG

VIRTUAL_EXIT = "<exit>"


class PostDominatorTree:
    """Immediate postdominators over a CFG snapshot."""

    def __init__(self, cfg: CFG):
        self.cfg = cfg
        reachable = cfg.reachable()
        # Reverse graph: successors of X are X's CFG predecessors.
        self._rsucc: Dict[str, List[str]] = {VIRTUAL_EXIT: []}
        self._rpred: Dict[str, List[str]] = {VIRTUAL_EXIT: []}
        for label in reachable:
            self._rsucc[label] = list(cfg.predecessors[label])
            self._rpred[label] = []
        exits = [
            label for label in reachable if not cfg.successors[label]
        ]
        # Blocks unable to reach an exit (infinite loops) get a virtual
        # exit edge so the fixed point covers them.
        can_exit = self._blocks_reaching(exits)
        for label in reachable:
            if label in exits or label not in can_exit:
                self._rsucc[VIRTUAL_EXIT].append(label)
        for label, succs in self._rsucc.items():
            for succ in succs:
                self._rpred[succ].append(label)
        self.ipdom: Dict[str, Optional[str]] = {}
        self._compute()

    def _blocks_reaching(self, exits: List[str]) -> Set[str]:
        seen: Set[str] = set(exits)
        worklist = list(exits)
        while worklist:
            label = worklist.pop()
            for pred in self.cfg.predecessors[label]:
                if pred not in seen:
                    seen.add(pred)
                    worklist.append(pred)
        return seen

    def _compute(self) -> None:
        order = self._reverse_postorder()
        index = {label: i for i, label in enumerate(order)}
        ipdom: Dict[str, Optional[str]] = {label: None for label in order}
        ipdom[VIRTUAL_EXIT] = VIRTUAL_EXIT
        changed = True
        while changed:
            changed = False
            for label in order:
                if label == VIRTUAL_EXIT:
                    continue
                preds = [p for p in self._rpred[label] if ipdom.get(p) is not None]
                if not preds:
                    continue
                new = preds[0]
                for pred in preds[1:]:
                    new = self._intersect(ipdom, index, new, pred)
                if ipdom[label] != new:
                    ipdom[label] = new
                    changed = True
        ipdom[VIRTUAL_EXIT] = None
        self.ipdom = ipdom
        # label -> (first, end): the preorder numbers of the label's
        # subtree of the ipdom tree (a forest rooted where ipdom is None).
        children: Dict[str, List[str]] = {label: [] for label in ipdom}
        stack: List[str] = []
        for label, parent in ipdom.items():
            (stack if parent is None else children[parent]).append(label)
        preorder: List[str] = []
        while stack:
            label = stack.pop()
            preorder.append(label)
            stack.extend(children[label])
        size = dict.fromkeys(preorder, 1)
        for label in reversed(preorder):
            parent = ipdom[label]
            if parent is not None:
                size[parent] += size[label]
        self._spans = {label: (i, i + size[label]) for i, label in enumerate(preorder)}

    def _reverse_postorder(self) -> List[str]:
        visited: Set[str] = {VIRTUAL_EXIT}
        postorder: List[str] = []
        stack = [(VIRTUAL_EXIT, 0)]
        while stack:
            node, child_index = stack.pop()
            succs = self._rsucc[node]
            if child_index < len(succs):
                stack.append((node, child_index + 1))
                child = succs[child_index]
                if child not in visited:
                    visited.add(child)
                    stack.append((child, 0))
            else:
                postorder.append(node)
        postorder.reverse()
        return postorder

    @staticmethod
    def _intersect(ipdom, index, a: str, b: str) -> str:
        while a != b:
            while index.get(a, 0) > index.get(b, 0):
                a = ipdom[a]
            while index.get(b, 0) > index.get(a, 0):
                b = ipdom[b]
        return a

    def postdominates(self, a: str, b: str) -> bool:
        """True when every path from ``b`` to the exit passes through ``a``:
        ``a`` is ``b`` or an ancestor of it in the ipdom tree.  Any label
        postdominates itself; a label outside the tree postdominates and
        is postdominated by nothing else."""
        if a == b:
            return True
        span_a = self._spans.get(a)
        span_b = self._spans.get(b)
        if span_a is None or span_b is None:
            return False
        return span_a[0] < span_b[0] < span_a[1]
