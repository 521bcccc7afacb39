"""Control-flow graph queries over a :class:`~repro.ir.function.Function`.

The CFG is implied by block terminators; this module materialises
predecessor maps, traversal orders, back-edge identification (via DFS
from the entry, as the paper prescribes for loop-carried detection) and
critical-edge splitting (needed so each assertion edge has its own block).
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Mapping, Optional, Set, Tuple

from repro.ir.function import BasicBlock, Function
from repro.ir.instructions import Branch, Jump

if TYPE_CHECKING:
    from repro.ir.dominance import DominatorTree
    from repro.ir.postdominance import PostDominatorTree

Edge = Tuple[str, str]


def depth_first(
    root: str, successors: Mapping[str, List[str]]
) -> Tuple[List[str], List[str], FrozenSet[Edge]]:
    """One DFS from ``root``: pre-order, post-order and back edges."""
    color: Dict[str, int] = {}  # 0 unseen (absent), 1 on stack, 2 done
    back_edges: Set[Edge] = set()
    order: List[str] = []
    postorder: List[str] = []
    # Iterative DFS with explicit colour marking to find back edges.
    stack: List[Tuple[str, int]] = [(root, 0)]
    color[root] = 1
    order.append(root)
    while stack:
        node, child_index = stack.pop()
        succs = successors[node]
        if child_index < len(succs):
            stack.append((node, child_index + 1))
            child = succs[child_index]
            state = color.get(child, 0)
            if state == 0:
                color[child] = 1
                order.append(child)
                stack.append((child, 0))
            elif state == 1:
                back_edges.add((node, child))
        else:
            color[node] = 2
            postorder.append(node)
    return order, postorder, frozenset(back_edges)


class CFG:
    """A snapshot of a function's control-flow structure.

    Construct a new one after any structural mutation of the function.
    The snapshot builds its dominator and postdominator trees on first
    use and keeps them.
    """

    def __init__(self, function: Function):
        self.function = function
        # The entry the traversal orders start from.
        self.entry = function.entry_label
        self.successors: Dict[str, List[str]] = {}
        self.predecessors: Dict[str, List[str]] = {label: [] for label in function.blocks}
        for label, block in function.blocks.items():
            succs = block.successors()
            self.successors[label] = succs
            for succ in succs:
                if succ not in self.predecessors:
                    raise KeyError(f"terminator of {label} targets unknown block {succ!r}")
                self.predecessors[succ].append(label)
        assert self.entry is not None
        self._dfs_order, self._postorder, self._back_edges = depth_first(
            self.entry, self.successors
        )

    # -- dominance -----------------------------------------------------------

    @cached_property
    def dominators(self) -> DominatorTree:
        """The dominator tree, built on first use and kept: a snapshot
        never changes, so the tree cannot go stale."""
        from repro.ir.dominance import DominatorTree

        return DominatorTree(self)

    @cached_property
    def postdominators(self) -> PostDominatorTree:
        """The postdominator tree, built on first use and kept."""
        from repro.ir.postdominance import PostDominatorTree

        return PostDominatorTree(self)

    # -- traversal ---------------------------------------------------------

    @property
    def back_edges(self) -> FrozenSet[Edge]:
        """Edges (src, dst) that close a cycle in DFS from the entry."""
        return self._back_edges

    def is_back_edge(self, src: str, dst: str) -> bool:
        return (src, dst) in self._back_edges

    def dfs_preorder(self) -> List[str]:
        """Reachable blocks in DFS pre-order from the entry."""
        return list(self._dfs_order)

    def reverse_postorder(self) -> List[str]:
        return self._postorder[::-1]

    def reachable(self) -> Set[str]:
        return set(self._dfs_order)

    # -- edges ---------------------------------------------------------------

    def edges(self) -> List[Edge]:
        out: List[Edge] = []
        for src, succs in self.successors.items():
            for dst in succs:
                out.append((src, dst))
        return out

    def is_critical(self, src: str, dst: str) -> bool:
        """An edge is critical when src has >1 successors and dst >1 preds."""
        return len(self.successors[src]) > 1 and len(self.predecessors[dst]) > 1


def split_critical_edges(
    function: Function, pred_count: Optional[Dict[str, int]] = None
) -> int:
    """Give every conditional out-edge a destination with a unique predecessor.

    Out-edges of a :class:`Branch` whose destination has more than one
    predecessor get a fresh forwarding block inserted.  Returns the number
    of edges split.  Must run *before* SSA construction (phis are assumed
    absent in multi-predecessor destinations being split; pre-existing phi
    incomings are redirected only for the single-slot case).  After this
    pass assertion (Pi) nodes can be placed at the top of each branch
    successor.

    ``pred_count`` (label -> number of predecessors, as
    :func:`prune_unreachable_blocks` returns it) saves a recount; it is
    updated in place to describe the split function.
    """
    if pred_count is None:
        pred_count = predecessor_counts(function)
    split_count = 0
    for label in list(function.blocks):
        term = function.blocks[label].terminator
        if not isinstance(term, Branch):
            continue
        for slot in ("true_target", "false_target"):
            dst = getattr(term, slot)
            if pred_count[dst] <= 1:
                continue
            mid = function.new_block(hint="split")
            mid.append(Jump(dst))
            setattr(term, slot, mid.label)
            pred_count[mid.label] = 1
            _redirect_phis(function.block(dst), old_pred=label, new_pred=mid.label)
            split_count += 1
    return split_count


def _redirect_phis(block: BasicBlock, old_pred: str, new_pred: str) -> None:
    for phi in block.phis():
        phi.incomings = [
            (new_pred if label == old_pred else label, value)
            for label, value in phi.incomings
        ]


def predecessor_counts(function: Function) -> Dict[str, int]:
    """Number of CFG predecessors of every block (edges, not distinct blocks)."""
    pred_count: Dict[str, int] = dict.fromkeys(function.blocks, 0)
    for block in function.blocks.values():
        for succ in block.successors():
            pred_count[succ] += 1
    return pred_count


def prune_unreachable_blocks(function: Function) -> Tuple[List[str], Dict[str, int]]:
    """Delete blocks not reachable from the entry.

    Returns the removed labels and the predecessor count of every block
    left, ready for :func:`split_critical_edges`.  Phi incomings from
    removed predecessors are dropped.
    """
    blocks = function.blocks
    entry = function.entry_label
    assert entry is not None
    # A plain walk from the entry: the count doubles as the visited set.
    pred_count: Dict[str, int] = {entry: 0}
    stack = [entry]
    while stack:
        label = stack.pop()
        for succ in blocks[label].successors():
            if succ in pred_count:
                pred_count[succ] += 1
            elif succ in blocks:
                pred_count[succ] = 1
                stack.append(succ)
            else:
                raise KeyError(f"terminator of {label} targets unknown block {succ!r}")
    removed = [label for label in blocks if label not in pred_count]
    for label in removed:
        del blocks[label]
    for block in blocks.values():
        for phi in block.phis():
            phi.incomings = [
                (label, value) for label, value in phi.incomings if label in pred_count
            ]
    return removed, pred_count


def remove_unreachable_blocks(function: Function) -> List[str]:
    """Delete blocks not reachable from the entry; returns removed labels.

    Phi incomings from removed predecessors are dropped.
    """
    return prune_unreachable_blocks(function)[0]
