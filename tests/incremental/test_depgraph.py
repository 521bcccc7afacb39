"""What an edit invalidates: the weakly connected components of
:meth:`CallGraph.components`, and the incremental driver honouring them."""

from repro.core.callgraph import CallGraph
from repro.incremental.driver import analyse_module_incremental
from repro.incremental.store import IncrementalStore

from tests.incremental.helpers import MULTI_COMPONENT, build

#: One literal edit per function of ``MULTI_COMPONENT``.
EDITS = {
    "helper": ("x - 10", "x - 11"),
    "leaf": ("v < 3", "v < 4"),
    "outer": ("s > 7", "s > 8"),
    "island": ("var acc = 1", "var acc = 2"),
}


def graph_of(source: str) -> CallGraph:
    module, _ = build(source)
    return CallGraph(module)


def members_of(graph: CallGraph, name: str):
    return next(c.members for c in graph.components() if name in c.members)


def reanalyzed_after_editing(*names: str) -> set:
    """Functions the driver re-runs after editing ``names`` of a
    ``MULTI_COMPONENT`` whose summaries are already in the store."""
    store = IncrementalStore()
    analyse_module_incremental(*build(MULTI_COMPONENT), store)
    source = MULTI_COMPONENT
    for name in names:
        old, new = EDITS[name]
        assert source.count(old) == 1
        source = source.replace(old, new)
    _, outcome = analyse_module_incremental(*build(source), store)
    return set(outcome.reanalyzed)


class TestComponents:
    def test_three_components(self):
        graph = graph_of(MULTI_COMPONENT)
        assert sorted(sorted(c.members) for c in graph.components()) == [
            ["apply", "helper", "main"],
            ["island"],
            ["leaf", "outer"],
        ]

    def test_members_are_in_bottom_up_order(self):
        graph = graph_of(MULTI_COMPONENT)
        # Callees come first: helper before apply before main, matching
        # the interprocedural driver's visiting and storage order.
        assert members_of(graph, "main") == ("helper", "apply", "main")
        order = graph.bottom_up_order()
        firsts = [order.index(c.members[0]) for c in graph.components()]
        assert firsts == sorted(firsts)

    def test_component_index_is_consistent(self):
        # Every function lies in exactly one component, and each
        # component owns exactly its members' call sites, in order.
        graph = graph_of(MULTI_COMPONENT)
        components = graph.components()
        names = [name for c in components for name in c.members]
        assert sorted(names) == sorted(graph.module.functions)
        for component in components:
            assert list(component.call_sites) == [
                site for site in graph.call_sites if site.caller in component.members
            ]

    def test_recursion_stays_in_one_component(self):
        graph = graph_of(
            """
            func fact(n) { if (n < 2) { return 1; } return n * fact(n - 1); }
            func main(n) { return fact(n); }
            """
        )
        assert len(graph.components()) == 1
        assert members_of(graph, "fact") == members_of(graph, "main")

    def test_mutual_recursion_stays_in_one_component(self):
        graph = graph_of(
            """
            func even(n) { if (n == 0) { return 1; } return odd(n - 1); }
            func odd(n) { if (n == 0) { return 0; } return even(n - 1); }
            func main(n) { return even(n); }
            """
        )
        assert len(graph.components()) == 1

    def test_callers_and_callees_share_a_component(self):
        # Weak connectivity: a shared *callee* links two otherwise
        # unrelated callers, because its summary feeds both.
        graph = graph_of(
            """
            func shared(x) { return x + 1; }
            func a(n) { return shared(n); }
            func b(n) { return shared(n * 2); }
            func main(n) { return a(n) + b(n); }
            """
        )
        assert len(graph.components()) == 1


class TestInvalidation:
    def test_affected_is_the_whole_component(self):
        assert reanalyzed_after_editing("helper") == {"helper", "apply", "main"}
        assert reanalyzed_after_editing("leaf") == {"leaf", "outer"}
        assert reanalyzed_after_editing("island") == {"island"}

    def test_affected_unions_components(self):
        assert reanalyzed_after_editing("island", "outer") == {
            "island", "leaf", "outer"
        }

    def test_dependents_excludes_the_edit_itself(self):
        assert reanalyzed_after_editing("helper") - {"helper"} == {"apply", "main"}
        assert reanalyzed_after_editing("island") - {"island"} == set()
        assert reanalyzed_after_editing() == set()

    def test_unknown_names_are_ignored(self):
        # A call to a function without a body (dropped after compiling,
        # as for an external one) is a site of its caller's component,
        # but the callee is no member and links nothing.
        module, _ = build(
            """
            func lone(n) { return n; }
            func mystery(x) { return x + 1; }
            func main(n) { return mystery(n); }
            """
        )
        del module.functions["mystery"]
        graph = CallGraph(module)
        assert [c.members for c in graph.components()] == [("lone",), ("main",)]
        assert [site.callee for site in graph.components()[1].call_sites] == [
            "mystery"
        ]
