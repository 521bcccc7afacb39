"""Postdominator computation (used by heuristic predictors).

The postdominator tree is the dominator tree of the reversed CFG, rooted
at a virtual exit node joining all return blocks (and, as an engineering
necessity, every block that cannot reach a return, such as the blocks
of an infinite loop, which otherwise have no path to any exit).  It is
built by :mod:`repro.ir.dominance`'s solver, so a postdominance query is
the same O(1) ancestor test as a dominance one.
"""

from __future__ import annotations

from typing import Dict, List

from repro.ir.cfg import CFG, depth_first
from repro.ir.dominance import DominatorTree

VIRTUAL_EXIT = "<exit>"


class PostDominatorTree(DominatorTree):
    """Immediate postdominators over a CFG snapshot: ``idom`` maps each
    block to its immediate postdominator, and ``root`` is
    :data:`VIRTUAL_EXIT`."""

    def __init__(self, cfg: CFG):
        self.cfg = cfg
        successors = cfg.successors
        predecessors = cfg.predecessors
        can_exit = [label for label, succs in successors.items() if not succs]
        seen = set(can_exit)
        for label in can_exit:  # grows as the walk finds blocks
            for pred in predecessors[label]:
                if pred not in seen:
                    seen.add(pred)
                    can_exit.append(pred)
        # Reverse graph: the successors of X are X's CFG predecessors.
        exit_edges = [
            label for label, succs in successors.items() if not succs or label not in seen
        ]
        reverse_succ: Dict[str, List[str]] = {VIRTUAL_EXIT: exit_edges, **predecessors}
        reverse_pred: Dict[str, List[str]] = {VIRTUAL_EXIT: [], **successors}
        for label in exit_edges:
            reverse_pred[label] = successors[label] + [VIRTUAL_EXIT]
        postorder = depth_first(VIRTUAL_EXIT, reverse_succ)[1]
        self._solve(VIRTUAL_EXIT, postorder[::-1], reverse_pred)

    #: True when every path from ``b`` to the exit passes through ``a``.
    #: Any label postdominates itself; a label that is no block
    #: postdominates and is postdominated by nothing else.
    postdominates = DominatorTree.dominates
