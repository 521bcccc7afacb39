"""Dominator tree and dominance frontier tests."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir.cfg import CFG
from repro.ir.dominance import DominatorTree
from repro.ir.function import BasicBlock, Function
from repro.ir.instructions import Branch, Cmp, Jump, Return
from repro.ir.values import Constant, Temp


def build(edges, entry="entry"):
    """Build a function from an edge list; blocks get trivial contents."""
    function = Function("g")
    labels = []
    for src, dst in edges:
        for label in (src, dst):
            if label not in labels:
                labels.append(label)
    if entry in labels:
        labels.remove(entry)
    labels.insert(0, entry)
    successors = {}
    for src, dst in edges:
        successors.setdefault(src, []).append(dst)
    for label in labels:
        function.add_block(BasicBlock(label))
    for label in labels:
        block = function.block(label)
        succs = successors.get(label, [])
        if not succs:
            block.append(Return(Constant(0)))
        elif len(succs) == 1:
            block.append(Jump(succs[0]))
        else:
            block.append(Cmp(Temp(f"c_{label}"), "lt", Temp("n"), Constant(0)))
            block.append(Branch(Temp(f"c_{label}"), succs[0], succs[1]))
    return function


class TestImmediateDominators:
    def test_diamond(self):
        function = build(
            [("entry", "a"), ("entry", "b"), ("a", "join"), ("b", "join")]
        )
        dom = DominatorTree(CFG(function))
        assert dom.idom["a"] == "entry"
        assert dom.idom["b"] == "entry"
        assert dom.idom["join"] == "entry"
        assert dom.idom["entry"] is None

    def test_chain(self):
        function = build([("entry", "a"), ("a", "b"), ("b", "c")])
        dom = DominatorTree(CFG(function))
        assert dom.idom["c"] == "b"
        assert dom.idom["b"] == "a"

    def test_loop(self):
        function = build(
            [("entry", "header"), ("header", "body"), ("header", "exit"),
             ("body", "header")]
        )
        dom = DominatorTree(CFG(function))
        assert dom.idom["body"] == "header"
        assert dom.idom["exit"] == "header"

    def test_dominates_reflexive_and_transitive(self):
        function = build([("entry", "a"), ("a", "b")])
        dom = DominatorTree(CFG(function))
        assert dom.dominates("a", "a")
        assert dom.dominates("entry", "b")
        assert not dom.dominates("b", "a")
        assert dom.strictly_dominates("entry", "b")
        assert not dom.strictly_dominates("b", "b")

    def test_irreducible_graph_converges(self):
        # Two-entry cycle (irreducible): the iterative algorithm must
        # still terminate with entry dominating both.
        function = build(
            [("entry", "a"), ("entry", "b"), ("a", "b"), ("b", "a"), ("a", "x")]
        )
        dom = DominatorTree(CFG(function))
        assert dom.idom["a"] == "entry"
        assert dom.idom["b"] == "entry"


class TestDominanceFrontiers:
    def test_diamond_frontier(self):
        function = build(
            [("entry", "a"), ("entry", "b"), ("a", "join"), ("b", "join")]
        )
        dom = DominatorTree(CFG(function))
        assert dom.frontier["a"] == {"join"}
        assert dom.frontier["b"] == {"join"}
        assert dom.frontier["join"] == set()
        assert dom.frontier["entry"] == set()

    def test_loop_header_in_own_frontier(self):
        function = build(
            [("entry", "header"), ("header", "body"), ("header", "exit"),
             ("body", "header")]
        )
        dom = DominatorTree(CFG(function))
        assert "header" in dom.frontier["body"]
        assert "header" in dom.frontier["header"]

    def test_iterated_frontier(self):
        function = build(
            [("entry", "a"), ("entry", "b"), ("a", "join"), ("b", "join"),
             ("join", "c"), ("join", "d"), ("c", "end"), ("d", "end")]
        )
        dom = DominatorTree(CFG(function))
        result = dom.iterated_frontier({"a"})
        assert result == {"join"}
        result = dom.iterated_frontier({"c", "d"})
        assert result == {"end"}

    def test_dom_tree_preorder_covers_all(self):
        function = build(
            [("entry", "a"), ("entry", "b"), ("a", "join"), ("b", "join")]
        )
        dom = DominatorTree(CFG(function))
        order = dom.dom_tree_preorder()
        assert order[0] == "entry"
        assert set(order) == {"entry", "a", "b", "join"}


def _chain_dominates(dom: DominatorTree, a: str, b: str) -> bool:
    """The definition by walking ``b``'s immediate-dominator chain."""
    node = b
    while node is not None:
        if node == a:
            return True
        node = dom.idom[node]
    return False


def _reaches_avoiding(function: Function, avoid: str, target: str) -> bool:
    """Whether ``target`` is reachable from the entry without visiting ``avoid``."""
    seen = {function.entry_label}
    stack = [function.entry_label]
    while stack:
        label = stack.pop()
        if label == target:
            return True
        for succ in function.block(label).successors():
            if succ != avoid and succ not in seen:
                seen.add(succ)
                stack.append(succ)
    return False


@st.composite
def random_cfgs(draw):
    """A function of 1-12 blocks with 0-2 successors each, some unreachable."""
    count = draw(st.integers(min_value=1, max_value=12))
    labels = [f"b{i}" for i in range(count)]
    function = Function("g")
    for label in labels:
        function.add_block(BasicBlock(label))
    for label in labels:
        block = function.block(label)
        succs = draw(st.lists(st.sampled_from(labels), max_size=2))
        if not succs:
            block.append(Return(Constant(0)))
        elif len(succs) == 1:
            block.append(Jump(succs[0]))
        else:
            block.append(Branch(Temp("c"), succs[0], succs[1]))
    return function


class TestIntervalDominance:
    @settings(max_examples=200, deadline=None)
    @given(random_cfgs())
    def test_interval_test_agrees_with_the_idom_chain(self, function):
        dom = DominatorTree(CFG(function))
        labels = list(function.blocks)
        for a in labels:
            for b in labels:
                if b not in dom.idom:
                    # Outside the tree a block dominates only itself.
                    assert dom.dominates(a, b) == (a == b)
                    continue
                expected = _chain_dominates(dom, a, b)
                assert dom.dominates(a, b) == expected, (a, b)
                if a != b and a != function.entry_label:
                    # And with the definition: every path to b passes a.
                    assert expected == (not _reaches_avoiding(function, a, b))
