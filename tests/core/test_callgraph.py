"""Call graph tests."""

from hypothesis import given, settings, strategies as st

from repro.core.callgraph import CallGraph
from repro.lang import compile_source


def graph_of(source):
    return CallGraph(compile_source(source))


class TestStructure:
    def test_callees_and_callers(self):
        graph = graph_of(
            """
            func a() { return b() + c(); }
            func b() { return c(); }
            func c() { return 1; }
            func main(n) { return a(); }
            """
        )
        assert graph.callees["a"] == {"b", "c"}
        assert graph.callers["c"] == {"a", "b"}
        assert graph.callers["main"] == set()

    def test_call_sites_enumerated(self):
        graph = graph_of(
            """
            func f(x) { return x; }
            func main(n) { return f(1) + f(2); }
            """
        )
        sites = graph.sites_of_callee("f")
        assert len(sites) == 2
        assert all(site.caller == "main" for site in sites)

    def test_sites_in_caller(self):
        graph = graph_of(
            """
            func f(x) { return x; }
            func g(x) { return f(x); }
            func main(n) { return g(n); }
            """
        )
        assert len(graph.sites_in_caller("g")) == 1
        assert graph.sites_in_caller("f") == []


class TestSCCs:
    def test_bottom_up_order(self):
        graph = graph_of(
            """
            func leaf() { return 1; }
            func mid() { return leaf(); }
            func main(n) { return mid(); }
            """
        )
        order = graph.bottom_up_order()
        assert order.index("leaf") < order.index("mid") < order.index("main")

    def test_self_recursion_detected(self):
        graph = graph_of(
            """
            func f(n) { if (n > 0) { return f(n - 1); } return 0; }
            func main(n) { return f(n); }
            """
        )
        assert graph.is_recursive("f")
        assert not graph.is_recursive("main")

    def test_mutual_recursion_single_scc(self):
        graph = graph_of(
            """
            func even(n) { if (n == 0) { return 1; } return odd(n - 1); }
            func odd(n) { if (n == 0) { return 0; } return even(n - 1); }
            func main(n) { return even(n); }
            """
        )
        sccs = graph.sccs()
        component = next(c for c in sccs if "even" in c)
        assert sorted(component) == ["even", "odd"]
        assert graph.is_recursive("even")
        assert graph.is_recursive("odd")

    def test_all_functions_covered_once(self):
        graph = graph_of(
            """
            func a() { return 1; }
            func b() { return a(); }
            func main(n) { return a() + b(); }
            """
        )
        order = graph.bottom_up_order()
        assert sorted(order) == ["a", "b", "main"]


def random_module_source(edges):
    """A module of functions ``f0..fN`` where ``fI`` calls each ``fJ``
    with ``(I, J)`` in ``edges`` (``N`` covers every endpoint)."""
    count = 1 + max((max(edge) for edge in edges), default=0)
    lines = []
    for caller in range(count):
        calls = "".join(
            f" + f{callee}(n)" for source, callee in sorted(edges) if source == caller
        )
        lines.append(f"func f{caller}(n) {{ return 0{calls}; }}")
    return "\n".join(lines)


def reachable(graph, start):
    seen = set()
    stack = list(graph.callees[start])
    while stack:
        name = stack.pop()
        if name not in seen:
            seen.add(name)
            stack.extend(graph.callees[name])
    return seen


def weakly_linked(reach, start):
    """Names joined to ``start`` by a chain of calls in either direction."""
    linked = {start}
    while True:
        grown = linked | {
            other
            for other in reach
            for name in linked
            if other in reach[name] or name in reach[other]
        }
        if grown == linked:
            return linked
        linked = grown


class TestMemoisedStructure:
    def test_one_tarjan_pass_per_graph(self, monkeypatch):
        passes = []
        tarjan = CallGraph._tarjan

        def counting(graph):
            passes.append(graph)
            return tarjan(graph)

        monkeypatch.setattr(CallGraph, "_tarjan", counting)
        graph = graph_of(random_module_source({(0, 1), (1, 0), (2, 1), (3, 3)}))
        for _ in range(3):
            graph.sccs()
            graph.bottom_up_order()
            graph.components()
            for name in graph.module.functions:
                graph.is_recursive(name)
        assert passes == [graph]

    @settings(max_examples=80, deadline=None)
    @given(
        st.sets(
            st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=14
        )
    )
    def test_recursion_and_components_match_reachability(self, edges):
        graph = graph_of(random_module_source(edges))
        names = list(graph.module.functions)
        reach = {name: reachable(graph, name) for name in names}
        for name in names:
            assert graph.is_recursive(name) == (name in reach[name])
        order = graph.bottom_up_order()
        components = graph.components()
        assert sorted(name for c in components for name in c.members) == sorted(names)
        for component in components:
            assert list(component.members) == [
                name for name in order if name in component.members
            ]
            for name in component.members:
                assert set(component.members) == weakly_linked(reach, name)
