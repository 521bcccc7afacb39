"""Branch explain mode on the Figure 4 example and a bottom-range branch."""

from pathlib import Path

import pytest

from repro import rendering
from repro.core import VRPPredictor
from repro.ir import prepare_module
from repro.lang import compile_source
from repro.observability import explain_branch, explain_module
from repro.workloads import all_workloads

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"

#: The examples plus the workload registry: every program ``repro``
#: ships, named as the explain-vs-ranges test ids show them.
PROGRAMS = {
    **{path.name: path.read_text() for path in sorted(EXAMPLES.glob("*.toy"))},
    **{workload.name: workload.source for workload in all_workloads()},
}

PAPER_FIGURE_2 = """
func main(n) {
  var y = 0;
  for (x = 0; x < 10; x = x + 1) {
    if (x > 7) { y = 1; } else { y = x; }
    if (y == 1) { n = n + 1; }
  }
  return n;
}
"""

BOTTOM_BRANCH = """
func main(n) {
  var total = 0;
  var v = input();
  if (v < 0) { return 0; }
  for (i = 0; i < 10; i = i + 1) { total = total + i; }
  return total;
}
"""


def _prepared(source):
    module = compile_source(source)
    return module, prepare_module(module)


class TestRangesBranch:
    @pytest.fixture(scope="class")
    def explanations(self):
        module, ssa_infos = _prepared(PAPER_FIGURE_2)
        return explain_module(module, ssa_infos)

    def test_every_branch_is_explained(self, explanations):
        assert set(explanations) == {
            ("main", "for1"),
            ("main", "body2"),
            ("main", "join7"),
        }

    def test_loop_branch_names_controlling_range(self, explanations):
        explanation = explanations[("main", "for1")]
        assert explanation.source == "ranges"
        assert explanation.probability == pytest.approx(10 / 11)
        assert explanation.cmp_op == "lt"
        operands = dict(explanation.operands)
        assert operands["x.1"] == "{ 1[0:10:1] }"
        assert operands["10"] == "{ 1[10:10:0] }"
        rendered = explanation.render()
        assert "predicted from value ranges" in rendered
        assert "{ 1[0:10:1] }" in rendered
        assert "x.1 < 10" in rendered

    def test_inner_branch_shows_weighted_range_evidence(self, explanations):
        rendered = explanations[("main", "body2")].render()
        assert "P(true) = 20.0%" in rendered
        assert "{ 1[0:9:1] }" in rendered  # the controlling range of x.3


class TestHeuristicBranch:
    @pytest.fixture(scope="class")
    def explanation(self):
        module, ssa_infos = _prepared(BOTTOM_BRANCH)
        explanations = explain_module(module, ssa_infos)
        ((key, value),) = [
            item for item in explanations.items() if item[1].source == "heuristic"
        ]
        return value

    def test_bottom_range_falls_back_to_heuristics(self, explanation):
        assert explanation.source == "heuristic"
        operands = dict(explanation.operands)
        assert operands["v.0"] == "_|_"

    def test_chain_and_combination_are_reported(self, explanation):
        assert explanation.heuristics, "the Ball-Larus chain must be recorded"
        names = [name for name, _ in explanation.heuristics]
        assert "return" in names  # the guarded early return fires this one
        rendered = explanation.render()
        assert "heuristic fallback (controlling range is bottom)" in rendered
        assert "Ball-Larus heuristic chain" in rendered
        assert "-> combined" in rendered
        # The rendered combined value matches the branch probability.
        assert f"{explanation.probability:5.3f}" in rendered


class TestExplainBranchLookup:
    def test_single_branch_lookup(self):
        module, ssa_infos = _prepared(PAPER_FIGURE_2)
        explanation = explain_branch(module, ssa_infos, "main", "join7")
        assert explanation.probability == pytest.approx(0.3)

    def test_unknown_branch_lists_known_ones(self):
        module, ssa_infos = _prepared(PAPER_FIGURE_2)
        with pytest.raises(KeyError) as excinfo:
            explain_branch(module, ssa_infos, "main", "nope")
        assert "main/for1" in str(excinfo.value)


def _ranges_listing_values(source):
    """``(function, ssa name) -> range text`` parsed from ``repro ranges``."""
    prediction = VRPPredictor().predict_module(*_prepared(source))
    values = {}
    function = None
    for line in rendering.ranges_listing(prediction).splitlines():
        if line.startswith("func "):
            function = line[len("func "):-1]
            continue
        name, _, shown = line.strip().partition(" ")
        values[(function, name)] = shown.strip()
    return values


class TestExplainMatchesRanges:
    """explain's controlling ranges are the final ranges, not a snapshot."""

    @pytest.mark.parametrize("program", sorted(PROGRAMS))
    def test_controlling_ranges_equal_ranges_listing(self, program):
        source = PROGRAMS[program]
        listed = _ranges_listing_values(source)
        checked = 0
        for (function, label), explanation in explain_module(
            *_prepared(source)
        ).items():
            shown = list(explanation.operands)
            if explanation.cond is not None:
                shown.append((explanation.cond, explanation.cond_range))
            for name, rangeset in shown:
                if (function, name) in listed:
                    assert rangeset == listed[(function, name)], (
                        f"{program} {function}/{label}: {name}"
                    )
                    checked += 1
        assert checked

    def test_operand_that_falls_after_the_last_resolution(self):
        # peak.1 reaches bottom only after main/body7's probability
        # settled; the last BranchResolution event still shows [0:0].
        explanation = explain_branch(
            *_prepared(PROGRAMS["countdown.toy"]), "main", "body7"
        )
        assert dict(explanation.operands)["peak.1"] == "_|_"
