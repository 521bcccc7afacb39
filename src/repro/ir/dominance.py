"""Dominator tree and dominance frontiers.

Implements the Cooper–Harvey–Kennedy "engineered" iterative dominator
algorithm and the Cytron et al. dominance-frontier computation used for
phi placement during SSA construction.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.ir.cfg import CFG


class DominatorTree:
    """Immediate dominators, dominator tree children, dominance frontiers."""

    def __init__(self, cfg: CFG):
        self.cfg = cfg
        entry = cfg.function.entry_label
        assert entry is not None
        self.entry = entry
        self.idom: Dict[str, Optional[str]] = {}
        self.children: Dict[str, List[str]] = {}
        self.frontier: Dict[str, Set[str]] = {}
        # Pre-order number of each block in the tree, and the largest
        # number in its subtree; built on the first dominance query.
        self._interval: Optional[Dict[str, Tuple[int, int]]] = None
        self._compute_idoms()
        self._compute_children()
        self._compute_frontiers()

    # -- immediate dominators (Cooper-Harvey-Kennedy) -----------------------

    def _compute_idoms(self) -> None:
        # Blocks are numbered in reverse post-order (the entry is 0), so
        # "closer to the entry" is "smaller number" and the two-finger
        # intersection walks plain integers.
        rpo = self.cfg.reverse_postorder()
        index = {label: i for i, label in enumerate(rpo)}
        predecessors = self.cfg.predecessors
        preds = [
            [index[p] for p in predecessors[label] if p in index] for label in rpo
        ]
        doms = [-1] * len(rpo)
        doms[0] = 0
        changed = True
        while changed:
            changed = False
            for block in range(1, len(rpo)):
                new_idom = -1
                for pred in preds[block]:
                    if doms[pred] < 0:
                        continue
                    if new_idom < 0:
                        new_idom = pred
                        continue
                    a, b = pred, new_idom
                    while a != b:
                        while a > b:
                            a = doms[a]
                        while b > a:
                            b = doms[b]
                    new_idom = a
                if new_idom >= 0 and doms[block] != new_idom:
                    doms[block] = new_idom
                    changed = True
        idom: Dict[str, Optional[str]] = {
            label: (rpo[doms[i]] if doms[i] >= 0 else None) for i, label in enumerate(rpo)
        }
        idom[self.entry] = None  # conventional: entry has no idom
        self.idom = idom

    def _compute_children(self) -> None:
        self.children = {label: [] for label in self.idom}
        for label, parent in self.idom.items():
            if parent is not None:
                self.children[parent].append(label)

    # -- dominance frontiers (Cytron et al.) --------------------------------

    def _compute_frontiers(self) -> None:
        self.frontier = {label: set() for label in self.idom}
        for label in self.idom:
            preds = self.cfg.predecessors[label]
            if len(preds) < 2:
                continue
            target_idom = self.idom[label]
            for pred in preds:
                runner: Optional[str] = pred
                while runner is not None and runner != target_idom and runner in self.idom:
                    self.frontier[runner].add(label)
                    runner = self.idom[runner]

    # -- queries -------------------------------------------------------------

    def dominates(self, a: str, b: str) -> bool:
        """True when block ``a`` dominates block ``b`` (reflexively).

        Constant time: ``a`` dominates ``b`` exactly when ``b``'s
        pre-order number in the dominator tree falls inside ``a``'s
        subtree.  A block outside the tree (unreachable) dominates
        only itself and is dominated only by itself.
        """
        if a == b:
            return True
        interval = self._interval
        if interval is None:
            interval = self._number_tree()
        outer = interval.get(a)
        inner = interval.get(b)
        if outer is None or inner is None:
            return False
        return outer[0] <= inner[0] <= outer[1]

    def _number_tree(self) -> Dict[str, Tuple[int, int]]:
        order = self.dom_tree_preorder()
        number = {label: i for i, label in enumerate(order)}
        last = list(range(len(order)))
        # Children come after their parent in pre-order, so one reverse
        # sweep hands every subtree's largest number up to its root.
        idom = self.idom
        for i in range(len(order) - 1, 0, -1):
            parent = number[idom[order[i]]]
            if last[i] > last[parent]:
                last[parent] = last[i]
        self._interval = {label: (i, last[i]) for i, label in enumerate(order)}
        return self._interval

    def strictly_dominates(self, a: str, b: str) -> bool:
        return a != b and self.dominates(a, b)

    def dom_tree_preorder(self) -> List[str]:
        order: List[str] = []
        stack = [self.entry]
        while stack:
            node = stack.pop()
            order.append(node)
            stack.extend(reversed(self.children[node]))
        return order

    def iterated_frontier(self, blocks: Set[str]) -> Set[str]:
        """DF+ of a set of blocks -- where phis must be placed."""
        result: Set[str] = set()
        worklist = [b for b in blocks if b in self.frontier]
        while worklist:
            block = worklist.pop()
            for frontier_block in self.frontier[block]:
                if frontier_block not in result:
                    result.add(frontier_block)
                    worklist.append(frontier_block)
        return result
