"""Wu-Larus frequency propagation: the numpy flow oracle, and the
function order that the library computes from the engine's own block
frequencies, held to it."""

import pathlib

import pytest

from repro.core import VRPPredictor
from repro.ir import prepare_module
from repro.lang import compile_source
from repro.opt.function_order import function_order
from repro.workloads import all_workloads

from tests.flow_reference import (
    edge_probabilities,
    function_frequencies,
    propagate_frequencies,
)
from tests.helpers import prepare_single

REPO = pathlib.Path(__file__).parents[2]
CORPUS = {path.name: path.read_text() for path in sorted((REPO / "examples").glob("*.toy"))}
CORPUS.update((workload.name, workload.source) for workload in all_workloads())


class TestEdgeProbabilities:
    def test_jump_gets_one(self):
        function, _ = prepare_single("func main(n) { var x = 1; return x; }")
        probabilities = edge_probabilities(function, {})
        assert all(p == 1.0 for p in probabilities.values())

    def test_branch_split(self):
        function, _ = prepare_single(
            "func main(n) { if (n > 0) { n = 1; } return n; }"
        )
        branch_label = next(
            label
            for label, block in function.blocks.items()
            if len(block.successors()) == 2
        )
        probabilities = edge_probabilities(function, {branch_label: 0.7})
        branch = function.block(branch_label).terminator
        assert probabilities[(branch_label, branch.true_target)] == pytest.approx(0.7)
        assert probabilities[(branch_label, branch.false_target)] == pytest.approx(0.3)


class TestBlockFrequencies:
    def test_straight_line_all_one(self):
        function, _ = prepare_single("func main(n) { var x = 1; return x; }")
        result = propagate_frequencies(function, {})
        for label in function.blocks:
            assert result.frequency(label) == pytest.approx(1.0)

    def test_if_arms_split(self):
        function, _ = prepare_single(
            "func main(n) { if (n > 0) { n = 1; } else { n = 2; } return n; }"
        )
        branch_label = next(
            label
            for label, block in function.blocks.items()
            if len(block.successors()) == 2
        )
        result = propagate_frequencies(function, {branch_label: 0.25})
        branch = function.block(branch_label).terminator
        assert result.frequency(branch.true_target) == pytest.approx(0.25)
        assert result.frequency(branch.false_target) == pytest.approx(0.75)

    def test_loop_geometric_closure(self):
        function, _ = prepare_single(
            "func main(n) { var t = 0; while (t < 9) { t = t + 1; } return t; }"
        )
        branch_label = next(
            label
            for label, block in function.blocks.items()
            if len(block.successors()) == 2
        )
        result = propagate_frequencies(function, {branch_label: 0.9})
        # Header executes 1 / (1 - 0.9) = 10 times.
        assert result.frequency(branch_label) == pytest.approx(10.0, rel=1e-3)

    def test_always_taken_loop_capped_not_crashed(self):
        function, _ = prepare_single(
            "func main(n) { while (1) { n = n + 1; } return n; }"
        )
        result = propagate_frequencies(function, {})
        assert all(f >= 0 for f in result.block_frequency.values())

    def test_matches_engine_frequencies(self):
        from tests.helpers import analyse

        source = """
        func main(n) {
          var t = 0;
          for (i = 0; i < 9; i = i + 1) {
            if (i > 4) { t = t + 2; } else { t = t + 1; }
          }
          return t;
        }
        """
        prediction = analyse(source)
        result = propagate_frequencies(
            prediction.function, prediction.branch_probability
        )
        for label, frequency in prediction.block_frequency.items():
            assert result.frequency(label) == pytest.approx(frequency, rel=0.02, abs=0.02)


class TestFunctionFrequencies:
    def test_call_weights_flow(self):
        module = compile_source(
            """
            func leaf() { return 1; }
            func mid() { return leaf() + leaf(); }
            func main(n) { return mid(); }
            """
        )
        frequencies = function_frequencies(
            module.functions, {name: {} for name in module.functions}
        )
        assert frequencies["main"] == pytest.approx(1.0)
        assert frequencies["mid"] == pytest.approx(1.0)
        assert frequencies["leaf"] == pytest.approx(2.0)

    def test_loop_multiplies_call_frequency(self):
        module = compile_source(
            """
            func leaf() { return 1; }
            func main(n) {
              var t = 0;
              for (i = 0; i < 9; i = i + 1) { t = t + leaf(); }
              return t;
            }
            """
        )
        branch_label = next(
            label
            for label, block in module.function("main").blocks.items()
            if len(block.successors()) == 2
        )
        frequencies = function_frequencies(
            module.functions, {"main": {branch_label: 0.9}, "leaf": {}}
        )
        assert frequencies["leaf"] == pytest.approx(9.0, rel=0.05)


class TestFunctionOrderMatchesOracle:
    """``function_order`` weights call sites by the engine's closed-form
    block frequencies; the order and frequencies are those the numpy
    flow solution of the same branch probabilities gives."""

    def test_corpus_is_the_33_programs(self):
        assert len(CORPUS) == 33

    @pytest.mark.parametrize("name", list(CORPUS))
    def test_same_order_and_frequencies(self, name):
        module = compile_source(CORPUS[name])
        prediction = VRPPredictor().predict_module(module, prepare_module(module))
        assert set(prediction.functions) == set(module.functions)
        oracle = function_frequencies(
            module.functions,
            {
                name: function_prediction.branch_probability
                for name, function_prediction in prediction.functions.items()
            },
        )
        expected = sorted(
            oracle.items(), key=lambda item: (-item[1], item[0] != "main", item[0])
        )
        ordered = function_order(module, prediction)
        assert [name for name, _ in ordered] == [name for name, _ in expected]
        for function, frequency in ordered:
            assert frequency == pytest.approx(oracle[function], rel=1e-6), function
