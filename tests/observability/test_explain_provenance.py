"""Explain mode: per-branch provenance tags and the round-cap note.

Every explained branch says where its probability came from -- an
interprocedural summary, plain intraprocedural propagation, or the
Ball-Larus heuristic fallback -- and branches inside a recursive
component whose fixed point hit the round cap carry a warning note.
"""

import functools

import pytest

from repro.core.cloning import analyse_with_cloning
from repro.ir import prepare_module
from repro.lang import compile_source
from repro.observability import explain_module
from repro.observability.explain import PROVENANCE_TEXT, BranchExplanation

# One unanalysable call site (raw input()) poisons affine's merged
# parameter range; cloning affine per call site re-derives the narrow one.
MIXED = """
func affine(v) {
  return v * 3 + 1;
}

func main(n) {
  var x = input();
  var a = affine(x % 8);
  var w = affine(x);
  var t = x % 4;
  if (a < 12) { t = t + 1; }
  if (w < 0) { t = t + 2; }
  if (t < 9) { return 1; }
  return t;
}
"""


def _prepared(source):
    module = compile_source(source)
    return module, prepare_module(module)


def _by_label(explanations, function="main"):
    return {
        label: explanation
        for (fn, label), explanation in explanations.items()
        if fn == function
    }


class TestProvenanceTags:
    @pytest.fixture(scope="class")
    def contextual(self):
        module, infos = _prepared(MIXED)
        _, report, _ = analyse_with_cloning(module, infos)
        assert report.variants == {"affine": ["affine", "affine$clone1"]}
        return explain_module(module, infos)

    def test_all_three_tags_appear(self, contextual):
        tags = {e.provenance for e in contextual.values()}
        assert {"interprocedural", "intraprocedural", "heuristic"} <= tags

    def test_context_recovered_branch_is_interprocedural(self, contextual):
        recovered = [
            e
            for e in contextual.values()
            if e.provenance == "interprocedural"
        ]
        assert recovered
        for explanation in recovered:
            assert explanation.source == "ranges"
            assert 0.0 <= explanation.probability <= 1.0
            assert "interprocedural summary" in explanation.render()

    def test_poisoned_branch_stays_heuristic(self, contextual):
        fallbacks = [
            e for e in contextual.values() if e.provenance == "heuristic"
        ]
        assert fallbacks
        for explanation in fallbacks:
            assert explanation.source == "heuristic"

    def test_rendered_lines_carry_the_tag_text(self, contextual):
        for explanation in contextual.values():
            rendered = explanation.render()
            assert (
                f"provenance: {PROVENANCE_TEXT[explanation.provenance]}"
                in rendered
            )

    def test_uncloned_module_has_no_interprocedural_tag(self):
        module, infos = _prepared(MIXED)
        explanations = explain_module(module, infos)
        tags = {e.provenance for e in explanations.values()}
        assert "interprocedural" not in tags
        assert "heuristic" in tags


class TestProvenanceText:
    def test_table_is_total_over_known_tags(self):
        for tag in ("interprocedural", "intraprocedural", "heuristic"):
            assert tag in PROVENANCE_TEXT

    def test_unknown_tag_degrades_to_itself(self):
        explanation = BranchExplanation(
            function="f",
            label="entry0",
            probability=0.5,
            source="ranges",
            provenance="mystery",
        )
        assert "provenance: mystery" in explanation.render()


MUTUAL = """
func ping(n) {
  if (n < 1) { return 0; }
  return pong(n - 1) + 1;
}

func pong(n) {
  if (n < 1) { return 0; }
  return ping(n - 1) + 1;
}

func main(n) {
  return ping(9);
}
"""


class TestRoundCapNote:
    def test_capped_component_branches_carry_the_note(self, monkeypatch):
        import repro.core.interprocedural as inter
        import repro.core.predictor as predictor_mod

        monkeypatch.setattr(
            predictor_mod,
            "analyse_module",
            functools.partial(inter.analyse_module, max_rounds=1),
        )
        module, infos = _prepared(MUTUAL)
        explanations = explain_module(module, infos)
        capped = [
            e
            for (fn, _), e in explanations.items()
            if fn in ("ping", "pong")
        ]
        assert capped
        for explanation in capped:
            assert any(
                "round cap hit after 1 rounds" in note
                for note in explanation.notes
            ), explanation.notes
            assert "may not have converged" in explanation.render()

    def test_converged_run_has_no_cap_note(self):
        # MUTUAL's growing return ranges genuinely exhaust the default
        # round budget, so the converged control is the call-only MIXED
        # module.
        module, infos = _prepared(MIXED)
        explanations = explain_module(module, infos)
        for explanation in explanations.values():
            assert not any(
                "round cap" in note for note in explanation.notes
            )
