"""Procedure cloning tests."""

import pytest

from repro.core.cloning import clone_for_contexts
from repro.core.interprocedural import analyse_module
from repro.ir import prepare_for_analysis
from repro.profiling import run_module

from tests.helpers import compile_and_prepare

DIVERGENT = """
func kernel(size) {
  var t = 0;
  for (i = 0; i < size; i = i + 1) { t = t + i; }
  return t;
}

func main(n) {
  var small = kernel(4);
  var large = kernel(400);
  return small + large;
}
"""


class TestCloneFunction:
    def test_clone_is_deep(self):
        module, _ = compile_and_prepare(DIVERGENT)
        original = module.function("kernel")
        clone = original.copy("kernel$clone1")
        assert clone.name == "kernel$clone1"
        assert set(clone.blocks) == set(original.blocks)
        # Mutating the clone must not touch the original.
        first_block = next(iter(clone.blocks.values()))
        first_instr = first_block.instructions[0]
        assert first_instr is not next(iter(original.blocks.values())).instructions[0]

    def test_clone_executes_identically(self):
        module, _ = compile_and_prepare(DIVERGENT)
        module.add_function(module.function("kernel").copy("kernel2"))
        result = run_module(module, args=[0])
        assert result.return_value == sum(range(4)) + sum(range(400))


class TestCloneForContexts:
    def test_clones_keep_source_lines(self):
        # Clones used to drop every instruction's loc, so diagnostics on
        # a clone had no source line.
        module, infos = compile_and_prepare(DIVERGENT)
        report = clone_for_contexts(module, analyse_module(module, infos))
        clone = module.function(report.variants["kernel"][1])
        locs = [instr.loc for instr in module.function("kernel").instructions()]
        assert [instr.loc for instr in clone.instructions()] == locs
        assert any(loc is not None for loc in locs)

    def test_divergent_contexts_cloned(self):
        module, infos = compile_and_prepare(DIVERGENT)
        prediction = analyse_module(module, infos)
        report = clone_for_contexts(module, prediction)
        assert "kernel" in report.variants
        assert len(report.variants["kernel"]) == 2
        clone_name = report.variants["kernel"][1]
        assert clone_name in module.functions

    def test_clones_get_precise_predictions(self):
        module, infos = compile_and_prepare(DIVERGENT)
        prediction = analyse_module(module, infos)
        report = clone_for_contexts(module, prediction)
        # Re-prepare the new clones' SSA infos and re-analyse.
        for name, function in module.functions.items():
            if name not in infos:
                infos[name] = _reuse_info(function)
        prediction2 = analyse_module(module, infos)
        kernel_probs = sorted(
            p
            for name in report.variants["kernel"]
            for p in prediction2.functions[name].branch_probability.values()
        )
        # One clone sees size=4 (P=4/5), the other size=400 (P=400/401).
        assert kernel_probs[0] == pytest.approx(4 / 5, abs=0.02)
        assert kernel_probs[-1] == pytest.approx(400 / 401, abs=0.002)

    def test_uniform_contexts_not_cloned(self):
        source = """
        func kernel(size) { return size * 2; }
        func main(n) {
          var a = kernel(7);
          var b = kernel(7);
          return a + b;
        }
        """
        module, infos = compile_and_prepare(source)
        prediction = analyse_module(module, infos)
        report = clone_for_contexts(module, prediction)
        assert report.variants == {}

    def test_entry_never_cloned(self):
        module, infos = compile_and_prepare(DIVERGENT)
        prediction = analyse_module(module, infos)
        report = clone_for_contexts(module, prediction)
        assert "main" not in report.variants

    def test_projection_back_to_original(self):
        module, infos = compile_and_prepare(DIVERGENT)
        prediction = analyse_module(module, infos)
        report = clone_for_contexts(module, prediction)
        for name, function in module.functions.items():
            if name not in infos:
                infos[name] = _reuse_info(function)
        prediction2 = analyse_module(module, infos)
        projected = report.project_probabilities(prediction2)
        originals = {function for function, _ in projected}
        assert "kernel" in originals
        assert all("$clone" not in function for function, _ in projected)


def _reuse_info(function):
    """Clones are already in SSA form; synthesise their SSAInfo."""
    from repro.ir.ssa import SSAInfo

    info = SSAInfo()
    for param in function.params:
        info.param_names[param] = f"{param}.0"
    return info


class TestAnalyseWithCloning:
    def test_one_call_workflow(self):
        from repro.core import analyse_with_cloning

        module, infos = compile_and_prepare(DIVERGENT)
        refined, report, projected = analyse_with_cloning(module, infos)
        assert report.variants  # divergent contexts found
        assert ("kernel", "for1") in projected
        assert 0.9 < projected[("kernel", "for1")] <= 1.0
        # The refined prediction covers the clones too.
        clone_names = [n for n in refined.functions if "$clone" in n]
        assert clone_names

    def test_no_clones_returns_original_prediction(self):
        from repro.core import analyse_with_cloning

        module, infos = compile_and_prepare(
            "func main(n) { if (n > 0) { return 1; } return 0; }"
        )
        refined, report, projected = analyse_with_cloning(module, infos)
        assert report.variants == {}
        assert projected  # still keyed by (function, branch)
