"""Dominator tree and dominance frontiers.

Implements the Cooper–Harvey–Kennedy "engineered" iterative dominator
algorithm and the Cytron et al. dominance-frontier computation used for
phi placement during SSA construction.  The solver takes any rooted
graph given as its reverse postorder and predecessor lists, so the
postdominator tree (:mod:`repro.ir.postdominance`) is the same solver
run on the reversed CFG.  Build the trees of a CFG snapshot through
``cfg.dominators`` / ``cfg.postdominators``, which keep them.
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Set, Tuple

if TYPE_CHECKING:
    from repro.ir.cfg import CFG


class DominatorTree:
    """Immediate dominators, dominator tree children, dominance frontiers."""

    def __init__(self, cfg: CFG):
        self.cfg = cfg
        self._solve(cfg.entry, cfg.reverse_postorder(), cfg.predecessors)

    # -- immediate dominators (Cooper-Harvey-Kennedy) -----------------------

    def _solve(
        self, root: str, rpo: Sequence[str], predecessors: Mapping[str, List[str]]
    ) -> None:
        """Dominators of the graph whose reverse postorder from ``root``
        is ``rpo`` and whose in-edges are ``predecessors``."""
        self.root = root
        self._predecessors = predecessors
        # Blocks are numbered in reverse post-order (the root is 0), so
        # "closer to the root" is "smaller number" and the two-finger
        # intersection walks plain integers.
        index = {label: i for i, label in enumerate(rpo)}
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
        idom[root] = None  # conventional: the root has no idom
        self.idom = idom
        self.children: Dict[str, List[str]] = {label: [] for label in idom}
        for label, parent in idom.items():
            if parent is not None:
                self.children[parent].append(label)

    # -- dominance frontiers (Cytron et al.) --------------------------------

    @cached_property
    def frontier(self) -> Dict[str, Set[str]]:
        """Each block's dominance frontier, built on first use."""
        idom = self.idom
        frontier = {label: set() for label in idom}
        for label in idom:
            preds = self._predecessors[label]
            if len(preds) < 2:
                continue
            target_idom = idom[label]
            for pred in preds:
                runner: Optional[str] = pred
                while runner is not None and runner != target_idom and runner in idom:
                    frontier[runner].add(label)
                    runner = idom[runner]
        return frontier

    # -- queries -------------------------------------------------------------

    def dominates(self, a: str, b: str) -> bool:
        """True when block ``a`` dominates block ``b`` (reflexively).

        Constant time: ``a`` dominates ``b`` exactly when ``b``'s
        pre-order number in the dominator tree falls inside ``a``'s
        subtree.  A label outside the tree (an unreachable block, or
        no block at all) dominates only itself and is dominated only
        by itself.
        """
        if a == b:
            return True
        intervals = self._intervals
        outer = intervals.get(a)
        inner = intervals.get(b)
        if outer is None or inner is None:
            return False
        return outer[0] <= inner[0] <= outer[1]

    @cached_property
    def _intervals(self) -> Dict[str, Tuple[int, int]]:
        """Each block's pre-order number in the tree and the largest
        number in its subtree, built on the first dominance query."""
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
        return {label: (i, last[i]) for i, label in enumerate(order)}

    def strictly_dominates(self, a: str, b: str) -> bool:
        return a != b and self.dominates(a, b)

    def dom_tree_preorder(self) -> List[str]:
        order: List[str] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            order.append(node)
            stack.extend(reversed(self.children[node]))
        return order

    def iterated_frontier(self, blocks: Set[str]) -> Set[str]:
        """DF+ of a set of blocks -- where phis must be placed."""
        frontier = self.frontier
        result: Set[str] = set()
        worklist = [b for b in blocks if b in frontier]
        while worklist:
            block = worklist.pop()
            for frontier_block in frontier[block]:
                if frontier_block not in result:
                    result.add(frontier_block)
                    worklist.append(frontier_block)
        return result
