"""Call-graph edge cases: the shapes real programs throw at §3.7.

Undefined callees, self- and mutual recursion, nested-loop call
frequencies, and the determinism of the SCC decomposition -- each is a
way the interprocedural driver (and the pass manager's cached
``callgraph`` analysis) can go subtly wrong.
"""

from __future__ import annotations

from repro.core.callgraph import CallGraph
from repro.core.interprocedural import analyse_module
from repro.ir import prepare_module
from repro.lang import compile_source


def compile_and_graph(source):
    module = compile_source(source)
    return module, CallGraph(module)


# The front end rejects calls to unknown names, so an undefined callee
# is modelled the way it arises in practice -- a module where the
# callee's body is unavailable (external/library function): compile a
# complete program, then drop the callee's definition.
UNDEFINED_CALLEE = """
func mystery(x) {
  return x + 1;
}

func main(n) {
  var v = mystery(n);
  if (v > 0) { return 1; }
  return 0;
}
"""


def _module_with_undefined_callee():
    module = compile_source(UNDEFINED_CALLEE)
    del module.functions["mystery"]
    return module


class TestUndefinedCallees:
    def test_site_enumerated_but_not_an_edge(self):
        module = _module_with_undefined_callee()
        graph = CallGraph(module)
        sites = graph.sites_of_callee("mystery")
        assert len(sites) == 1
        assert sites[0].caller == "main"
        # Only defined functions appear as graph nodes/edges.
        assert "mystery" not in graph.callees
        assert graph.callees["main"] == set()
        assert graph.bottom_up_order() == ["main"]

    def test_analysis_survives_and_stays_unknown(self):
        module = _module_with_undefined_callee()
        ssa_infos = prepare_module(module)
        prediction = analyse_module(module, ssa_infos)
        # An undefined callee's result is ⊥: the branch on it must fall
        # back to heuristics rather than crash or fabricate a range.
        assert any(
            function == "main"
            for function, _ in prediction.heuristic_branches()
        )


SELF_RECURSIVE = """
func count(n) {
  if (n < 1) { return 0; }
  var rest = count(n - 1);
  return rest + 1;
}

func main(n) {
  return count(12);
}
"""


class TestSelfRecursion:
    def test_detected_and_isolated(self):
        _, graph = compile_and_graph(SELF_RECURSIVE)
        assert graph.is_recursive("count")
        assert not graph.is_recursive("main")
        component = next(c for c in graph.sccs() if "count" in c)
        assert list(component) == ["count"]

    def test_fixed_point_terminates(self):
        module = compile_source(SELF_RECURSIVE)
        ssa_infos = prepare_module(module)
        prediction = analyse_module(module, ssa_infos)
        assert "count" in prediction.functions
        assert prediction.rounds >= 1


MUTUAL_TRIPLE = """
func alpha(n) {
  if (n < 1) { return 0; }
  return beta(n - 1) + 1;
}

func beta(n) {
  if (n < 1) { return 0; }
  return gamma(n - 1) + 1;
}

func gamma(n) {
  if (n < 1) { return 0; }
  return alpha(n - 1) + 1;
}

func main(n) {
  return alpha(9);
}
"""


class TestMutualTriple:
    def test_three_cycle_is_one_scc(self):
        _, graph = compile_and_graph(MUTUAL_TRIPLE)
        component = next(c for c in graph.sccs() if "alpha" in c)
        assert sorted(component) == ["alpha", "beta", "gamma"]
        for name in ("alpha", "beta", "gamma"):
            assert graph.is_recursive(name)

    def test_scc_precedes_entry_bottom_up(self):
        _, graph = compile_and_graph(MUTUAL_TRIPLE)
        order = graph.bottom_up_order()
        assert sorted(order) == ["alpha", "beta", "gamma", "main"]
        assert order.index("main") == len(order) - 1

    def test_analysis_terminates_on_the_cycle(self):
        module = compile_source(MUTUAL_TRIPLE)
        ssa_infos = prepare_module(module)
        prediction = analyse_module(module, ssa_infos)
        assert set(prediction.functions) == {"alpha", "beta", "gamma", "main"}


NESTED_FREQUENCY = """
func tick(v) {
  return v + 1;
}

func tock(v) {
  return v + 2;
}

func main(n) {
  var acc = 0;
  for (i = 0; i < 10; i = i + 1) {
    for (j = 0; j < 10; j = j + 1) {
      acc = tick(acc);
    }
  }
  acc = tock(acc);
  return acc;
}
"""


class TestCallFrequencyWeighting:
    def test_nested_loop_site_outweighs_straightline_site(self):
        module = compile_source(NESTED_FREQUENCY)
        ssa_infos = prepare_module(module)
        prediction = analyse_module(module, ssa_infos)
        graph = CallGraph(module)

        def traffic(callee):
            # The weight its jump function gives each call site.
            (site,) = graph.sites_of_callee(callee)
            return prediction.functions[site.caller].block_frequency[site.block_label]

        # The doubly nested call site carries ~100x the weighted call
        # traffic of the straight-line one.
        assert traffic("tick") > traffic("tock") * 10


class TestSCCDeterminism:
    def test_identical_modules_decompose_identically(self):
        runs = []
        for _ in range(3):
            _, graph = compile_and_graph(MUTUAL_TRIPLE)
            runs.append((graph.sccs(), graph.bottom_up_order()))
        assert runs[0] == runs[1] == runs[2]

    def test_site_order_is_program_order(self):
        _, graph = compile_and_graph(
            """
            func f(x) { return x; }
            func main(n) { return f(1) + f(2) + f(3); }
            """
        )
        sites = graph.sites_of_callee("f")
        assert len(sites) == 3
        assert [site.caller for site in sites] == ["main"] * 3
