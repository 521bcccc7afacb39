"""Closed-form loop frequencies: the engine solves each loop header once.

A header's frequency is its non-back inflow divided by ``1 - cyclic
probability``, so block frequencies are the exact solution of the flow
equations for the engine's own branch probabilities -- not a truncated
geometric series that leaks frequency out of long loops.  The exact
solution comes from the numpy flow oracle, :mod:`tests.flow_reference`.
"""

import os
import pathlib
import subprocess
import sys

import pytest

from repro.core import VRPConfig, VRPPredictor
from repro.core.propagation import FREQUENCY_CAP
from repro.evalharness import synthetic_program
from repro.ir import prepare_module
from repro.lang import compile_source
from repro.workloads import all_workloads

from tests.flow_reference import propagate_frequencies
from tests.helpers import analyse

REPO = pathlib.Path(__file__).parents[2]
EXAMPLES = sorted((REPO / "examples").glob("*.toy"))
CORPUS = {path.name: path.read_text() for path in EXAMPLES}
CORPUS.update((workload.name, workload.source) for workload in all_workloads())

# A 1000-trip loop on one side of an unknown branch; the φ for x merges
# 1 and 2 with weights 0.5/0.5 only if the loop's exit frequency is
# exactly the frequency that entered it.
LOOP_THEN_TEST = """
func main(n) {
  var x = 0;
  if (input() > 5) {
    x = 1;
    for (i = 0; i < 1000; i = i + 1) { n = n + 1; }
  } else {
    x = 2;
  }
  if (x == 1) { n = n + 1; }
  return n;
}
"""

SEQUENTIAL_LOOPS = """
func main(n) {
  for (i = 0; i < 1000; i = i + 1) { n = n + 1; }
  for (j = 0; j < 1000; j = j + 1) { n = n + 2; }
  return n;
}
"""


def _predict(source: str):
    module = compile_source(source)
    return module, VRPPredictor().predict_module(module, prepare_module(module))


def _loop_exits(function):
    """(header label, exit block label) per for-loop, in source order."""
    out = []
    for label, block in function.blocks.items():
        if label.startswith("for"):
            out.append((label, block.terminator.false_target))
    return out


class TestFlowEquations:
    @pytest.mark.parametrize("name", list(CORPUS))
    def test_block_frequencies_solve_the_flow_equations(self, name):
        """Engine frequencies equal the exact solution of its own probabilities."""
        tolerance = VRPConfig().tolerance
        _, prediction = _predict(CORPUS[name])
        for function_prediction in prediction.functions.values():
            exact = propagate_frequencies(
                function_prediction.function, function_prediction.branch_probability
            ).block_frequency
            for label, frequency in function_prediction.block_frequency.items():
                expected = exact.get(label, 0.0)
                assert abs(frequency - expected) <= tolerance * max(1.0, expected), (
                    name,
                    function_prediction.function.name,
                    label,
                    frequency,
                    expected,
                )


class TestRegressions:
    def test_merge_after_a_long_loop_is_even(self):
        module, prediction = _predict(LOOP_THEN_TEST)
        branches = prediction.functions["main"].branch_probability
        (join,) = [label for label in branches if label.startswith("join")]
        assert branches[join] == pytest.approx(0.5, abs=1e-3)

    def test_sequential_long_loops_keep_their_frequency(self):
        module, prediction = _predict(SEQUENTIAL_LOOPS)
        function_prediction = prediction.functions["main"]
        loops = _loop_exits(module.functions["main"])
        assert len(loops) == 2
        for header, exit_label in loops:
            assert function_prediction.block_frequency[header] == pytest.approx(1001, rel=1e-3)
            assert function_prediction.block_frequency[exit_label] == pytest.approx(1.0, rel=1e-3)

    def test_synthetic_program_predicts_every_branch(self):
        module, prediction = _predict(synthetic_program(64))
        branches = sum(
            1
            for function in module.functions.values()
            for block in function.blocks.values()
            if len(block.successors()) == 2
        )
        assert branches == 256
        assert len(prediction.all_branches()) == 256


class TestClosedForm:
    def test_nested_loops_multiply(self):
        prediction = analyse(
            """
            func main(n) {
              for (i = 0; i < 10; i = i + 1) {
                for (j = 0; j < 10; j = j + 1) { n = n + 1; }
              }
              return n;
            }
            """
        )
        headers = sorted(
            (label for label in prediction.branch_probability if label.startswith("for")),
            key=lambda label: int(label[3:]),
        )
        outer, inner = headers
        assert prediction.block_frequency[outer] == pytest.approx(11.0, rel=1e-3)
        # Ten entries of an 11-visit inner header.
        assert prediction.block_frequency[inner] == pytest.approx(110.0, rel=1e-3)

    def test_endless_loop_is_capped(self):
        prediction = analyse(
            "func main(n) { while (1) { n = n + 1; } return n; }", config=VRPConfig()
        )
        assert max(prediction.block_frequency.values()) == FREQUENCY_CAP

    def test_flow_work_is_linear(self):
        """No per-lap re-weighting: under one flow push per instruction
        (re-weighting lap by lap took about twelve)."""
        module, prediction = _predict(synthetic_program(64))
        assert prediction.counters.flow_pushes <= module.instruction_count()


# A loop nest with several latches per header (each `continue` adds one).
CONTINUE_NEST = """
func main(n) {
  var t = 0;
  for (i = 0; i < 50; i = i + 1) {
    if (i % 3 == 0) { continue; }
    for (j = 0; j < i; j = j + 1) {
      if (j > 7) { continue; }
      t = t + j;
    }
  }
  return t;
}
"""

# Prints the work counters and every branch probability of a few
# loop-heavy programs; run under several hash seeds.
SEED_PROBE = """
import sys
from repro.core import VRPPredictor
from repro.ir import prepare_module
from repro.lang import compile_source
from repro.workloads import get_workload

sources = [get_workload(name).source for name in ("freqpair", "calc", "mandel")]
sources.append(sys.argv[1])
for source in sources:
    module = compile_source(source)
    prediction = VRPPredictor().predict_module(module, prepare_module(module))
    print(prediction.counters.as_dict(), sorted(prediction.all_branches().items()))
"""


class TestDeterminism:
    def test_results_do_not_depend_on_the_hash_seed(self):
        """Loops and latches are visited in a fixed order, not set order."""
        outputs = set()
        for seed in ("0", "1", "2", "3"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(REPO / "src"))
            completed = subprocess.run(
                [sys.executable, "-c", SEED_PROBE, CONTINUE_NEST],
                env=env,
                capture_output=True,
                text=True,
                check=True,
            )
            outputs.add(completed.stdout)
        assert len(outputs) == 1
