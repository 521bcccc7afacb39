"""Dead code elimination, branch folding, and trace formation tests."""

import pytest

from repro.core.propagation import analyse_function
from repro.ir import verify_function
from repro.ir.function import Module
from repro.ir.instructions import Branch, Jump
from repro.opt import (
    dynamic_trace_coverage,
    eliminate_dead_code,
    fold_certain_branches,
    form_traces,
    fold_constants,
    trace_statistics,
)
from repro.profiling import run_module

from tests.helpers import analyse, prepare_single


def run_main(function, args):
    module = Module("m")
    module.add_function(function)
    return run_module(module, args=args).return_value


class TestDeadCodeElimination:
    def test_unused_computation_removed(self):
        function, _ = prepare_single(
            "func main(n) { var waste = n * 99 + 7; return n; }"
        )
        removed = eliminate_dead_code(function)
        assert removed >= 2  # the mul and the add at least
        verify_function(function)
        assert run_main(function, [21]) == 21

    def test_side_effects_preserved(self):
        function, _ = prepare_single(
            """
            func main(n) {
              array a[4];
              a[0] = n;
              var unused = a[0] + 1;
              return a[0];
            }
            """
        )
        eliminate_dead_code(function)
        assert run_main(function, [9]) == 9  # the store stayed

    def test_live_chain_untouched(self):
        function, _ = prepare_single(
            "func main(n) { var a = n + 1; var b = a * 2; return b; }"
        )
        removed = eliminate_dead_code(function)
        assert removed == 0
        assert run_main(function, [5]) == 12

    def test_after_constant_folding(self):
        # The paper's end-to-end optimisation: fold constants, then sweep.
        source = "func main(n) { var a = 6; var b = a * 7; return b; }"
        prediction = analyse(source)
        function = prediction.function
        fold_constants(function, prediction)
        removed = eliminate_dead_code(function)
        assert removed >= 1
        verify_function(function)
        assert run_main(function, [0]) == 42


class TestBranchFolding:
    def test_certain_branch_folds_to_jump(self):
        source = """
        func main(n) {
          var x = 5;
          if (x > 10) { n = n + 999; }
          return n;
        }
        """
        prediction = analyse(source)
        function = prediction.function
        folded = fold_certain_branches(function, prediction)
        assert folded == 1
        assert all(
            not isinstance(block.terminator, Branch)
            for block in function.blocks.values()
        )
        verify_function(function)
        assert run_main(function, [3]) == 3

    def test_heuristic_certainty_not_folded(self):
        source = "func main(n) { if (n > 0) { n = 1; } return n; }"
        function, info = prepare_single(source)
        prediction = analyse_function(
            function, info, heuristic=lambda f, label, cfg, loops: 1.0
        )
        assert fold_certain_branches(function, prediction) == 0

    def test_folding_keeps_loops_intact(self):
        source = """
        func main(n) {
          var debug = 0;
          var t = 0;
          for (i = 0; i < 8; i = i + 1) {
            if (debug == 1) { t = t + 100; }
            t = t + 1;
          }
          return t;
        }
        """
        prediction = analyse(source)
        function = prediction.function
        folded = fold_certain_branches(function, prediction)
        assert folded >= 1
        verify_function(function)
        assert run_main(function, [0]) == 8


class TestTraces:
    def test_hot_path_forms_one_trace(self):
        source = """
        func main(n) {
          var hot = 0;
          for (i = 0; i < 100; i = i + 1) {
            var v = input() % 100;
            if (v < 97) { hot = hot + 1; } else { hot = hot - 1; }
          }
          return hot;
        }
        """
        prediction = analyse(source)
        traces = form_traces(prediction.function, prediction)
        # Every block belongs to exactly one trace.
        claimed = [label for trace in traces for label in trace.blocks]
        assert len(claimed) == len(set(claimed))
        hottest = traces[0]
        assert hottest.length >= 3  # the loop body chains through the hot arm
        assert hottest.probability >= 0.5

    def test_statistics(self):
        prediction = analyse(
            "func main(n) { var t = 0; for (i = 0; i < 9; i = i + 1) { t = t + 1; } return t; }"
        )
        traces = form_traces(prediction.function, prediction)
        stats = trace_statistics(traces)
        assert stats["count"] >= 1
        assert stats["longest"] >= stats["mean_length"]

    def test_dynamic_coverage_measured(self):
        source = """
        func main(n) {
          var hot = 0;
          for (i = 0; i < 200; i = i + 1) {
            var v = input() % 10;
            if (v < 9) { hot = hot + 1; } else { hot = hot - 1; }
          }
          return hot;
        }
        """
        from tests.helpers import compile_and_prepare

        module, _ = compile_and_prepare(source)
        function = module.function("main")
        from repro.ir.ssa import SSAInfo

        info = SSAInfo()
        info.param_names = {"n": "n.0"}
        prediction = analyse_function(function, info)
        traces = form_traces(function, prediction)
        run = run_module(module, args=[0], input_values=[i % 10 for i in range(200)])
        dynamic = {
            (src, dst): count
            for (fn, src, dst), count in run.edge_counts.items()
            if fn == "main"
        }
        coverage = dynamic_trace_coverage(traces, dynamic)
        assert 0.0 < coverage <= 1.0
        # The hot arm dominates: most transfers stay inside traces.
        assert coverage > 0.5

    def test_empty_statistics(self):
        assert trace_statistics([]) == {
            "count": 0,
            "mean_length": 0.0,
            "weighted_length": 0.0,
        }
