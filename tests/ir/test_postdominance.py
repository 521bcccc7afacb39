"""Postdominator tests."""

from hypothesis import given, settings

from repro.ir.cfg import CFG
from repro.ir.postdominance import VIRTUAL_EXIT, PostDominatorTree
from repro.lang import compile_source

from tests.ir.test_dominance import random_cfgs


def postdom_of(source: str):
    function = compile_source(source).function("main")
    cfg = CFG(function)
    return function, cfg, PostDominatorTree(cfg)


class TestPostdominance:
    def test_join_postdominates_both_arms(self):
        function, cfg, pdt = postdom_of(
            "func main(n) { if (n > 0) { n = 1; } else { n = 2; } return n; }"
        )
        # Find the branch block and its successors.
        from repro.ir.instructions import Branch

        for label, block in function.blocks.items():
            if isinstance(block.terminator, Branch):
                t, f = block.terminator.successors()
                join_candidates = set(cfg.successors[t]) & set(cfg.successors[f])
                for join in join_candidates:
                    assert pdt.postdominates(join, t)
                    assert pdt.postdominates(join, f)
                    assert pdt.postdominates(join, label)

    def test_then_does_not_postdominate_branch(self):
        function, cfg, pdt = postdom_of(
            "func main(n) { if (n > 0) { n = 1; } return n; }"
        )
        from repro.ir.instructions import Branch

        for label, block in function.blocks.items():
            if isinstance(block.terminator, Branch):
                then_target = block.terminator.true_target
                assert not pdt.postdominates(then_target, label)

    def test_every_block_postdominated_by_itself(self):
        _, cfg, pdt = postdom_of(
            "func main(n) { while (n > 0) { n = n - 1; } return n; }"
        )
        for label in cfg.reachable():
            assert pdt.postdominates(label, label)

    def test_infinite_loop_handled(self):
        # No path to exit from the loop: the virtual exit edge keeps the
        # computation well-defined instead of crashing.
        _, cfg, pdt = postdom_of(
            "func main(n) { while (1) { n = n + 1; } return n; }"
        )
        for label in cfg.reachable():
            assert pdt.postdominates(label, label)

    def test_return_block_postdominates_entry_in_straight_line(self):
        function, cfg, pdt = postdom_of("func main(n) { var x = n + 1; return x; }")
        from repro.ir.instructions import Return

        return_blocks = [
            label
            for label, block in function.blocks.items()
            if isinstance(block.terminator, Return)
        ]
        assert any(
            pdt.postdominates(label, function.entry_label) for label in return_blocks
        )


def walked_postdominates(pdt, a, b):
    """The idom-chain walk ``postdominates`` replaced, kept as the oracle."""
    node = b
    while node is not None and node != VIRTUAL_EXIT:
        if node == a:
            return True
        node = pdt.idom.get(node)
    return a == node


class TestAncestorQuery:
    def test_every_label_pair_of_the_corpus_matches_the_walk(self):
        from benchmarks.ledger.corpus import truth_corpus
        from repro.ir import prepare_module

        pairs = 0
        for program in truth_corpus():
            module = compile_source(program.source, module_name=program.name)
            prepare_module(module)
            for function in module.functions.values():
                pdt = PostDominatorTree(CFG(function))
                labels = list(function.blocks) + [VIRTUAL_EXIT, "<unknown>"]
                for a in labels:
                    for b in labels:
                        assert pdt.postdominates(a, b) == walked_postdominates(pdt, a, b), (
                            program.name,
                            function.name,
                            a,
                            b,
                        )
                        pairs += 1
        assert pairs > 10000

    def test_edge_cases(self):
        function, cfg, pdt = postdom_of("func main(n) { if (n > 0) { n = 1; } return n; }")
        assert pdt.postdominates("<unknown>", "<unknown>")
        for label in list(function.blocks) + [VIRTUAL_EXIT]:
            assert pdt.postdominates(label, label)
            assert not pdt.postdominates(label, "<unknown>")
            assert not pdt.postdominates("<unknown>", label)
        for label in cfg.reachable():
            assert pdt.postdominates(VIRTUAL_EXIT, label)
            assert not pdt.postdominates(label, VIRTUAL_EXIT)


def _exit_graph(function):
    """Successor lists with the virtual exit added: an edge from every
    return block and from every block that cannot reach one."""
    successors = {label: block.successors() for label, block in function.blocks.items()}

    def reaches_return(start):
        seen, stack = {start}, [start]
        while stack:
            label = stack.pop()
            if not successors[label]:
                return True
            for succ in successors[label]:
                if succ not in seen:
                    seen.add(succ)
                    stack.append(succ)
        return False

    graph = {VIRTUAL_EXIT: []}
    for label, succs in successors.items():
        exits = not succs or not reaches_return(label)
        graph[label] = succs + ([VIRTUAL_EXIT] if exits else [])
    return graph


def _exits_avoiding(graph, start, avoid):
    """Whether some path from ``start`` reaches the virtual exit without
    passing ``avoid``."""
    seen, stack = {start}, [start]
    while stack:
        label = stack.pop()
        if label == VIRTUAL_EXIT:
            return True
        for succ in graph[label]:
            if succ != avoid and succ not in seen:
                seen.add(succ)
                stack.append(succ)
    return False


class TestPathDefinition:
    @settings(max_examples=200, deadline=None)
    @given(random_cfgs())
    def test_postdominance_is_every_path_to_the_exit(self, function):
        # The generated graphs have unreachable blocks and blocks that
        # cannot exit; every label pair is checked, the exit included.
        pdt = PostDominatorTree(CFG(function))
        graph = _exit_graph(function)
        labels = list(graph) + ["<unknown>"]
        for a in labels:
            for b in labels:
                if a == b:
                    expected = True
                elif b not in graph or a not in graph:
                    expected = False
                else:
                    expected = not _exits_avoiding(graph, b, a)
                assert pdt.postdominates(a, b) == expected, (a, b)
