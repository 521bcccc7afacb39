"""The built-in passes: every §6 client, ported onto the framework.

Each pass is a thin declarative wrapper over the corresponding free
function in :mod:`repro.opt` / :mod:`repro.analysis` -- the free
functions remain the single source of truth for the transformations
(and stay independently callable); the wrappers add the
``preserves`` contracts the pipeline schedules by.

Preservation contracts follow the free-function pipeline's semantics
(``tests/integration/test_optimization_pipeline.py``): one prediction
is computed up front and deliberately kept in use across the constant/
copy folds -- so those passes declare ``prediction`` preserved -- while
branch folding rewrites the CFG and clobbers everything.
"""

from __future__ import annotations

from repro.passes.base import (
    PRESERVES_ALL,
    PRESERVES_NONE,
    STRUCTURAL,
    FunctionPass,
    ModulePass,
    PassResult,
)
from repro.passes.pipeline import register_pass


# -- mutating function passes -------------------------------------------------


@register_pass
class FoldConstantsPass(FunctionPass):
    """Replace uses of VRP-proven constants with immediates."""

    name = "fold-constants"
    preserves = STRUCTURAL | frozenset(("prediction",))
    mutates = True

    def run_on_function(self, function, cache) -> PassResult:
        from repro.opt.constfold import fold_constants

        changed = fold_constants(function, cache.function_prediction(function))
        return PassResult(changed=changed)


@register_pass
class FoldCopiesPass(FunctionPass):
    """Replace uses of VRP-proven copies with their sources."""

    name = "fold-copies"
    preserves = STRUCTURAL | frozenset(("prediction",))
    mutates = True

    def run_on_function(self, function, cache) -> PassResult:
        from repro.opt.constfold import fold_copies

        changed = fold_copies(function, cache.function_prediction(function))
        return PassResult(changed=changed)


@register_pass
class FoldBranchesPass(FunctionPass):
    """Fold branches VRP proves one-sided; removes unreachable blocks."""

    name = "fold-branches"
    preserves = PRESERVES_NONE
    mutates = True

    def run_on_function(self, function, cache) -> PassResult:
        from repro.opt.dce import fold_certain_branches

        changed = fold_certain_branches(
            function, cache.function_prediction(function)
        )
        return PassResult(changed=changed)


@register_pass
class DeadCodeEliminationPass(FunctionPass):
    """Remove instructions whose results are transitively unused."""

    name = "dce"
    preserves = STRUCTURAL
    mutates = True

    def run_on_function(self, function, cache) -> PassResult:
        from repro.opt.dce import eliminate_dead_code

        return PassResult(changed=eliminate_dead_code(function))


@register_pass
class CopyPropagationPass(FunctionPass):
    """Rewrite uses of SSA copies to their ultimate sources."""

    name = "copyprop"
    preserves = STRUCTURAL
    mutates = True

    def run_on_function(self, function, cache) -> PassResult:
        from repro.analysis.copyprop import propagate_copies

        return PassResult(changed=propagate_copies(function))


# -- mutating module passes ---------------------------------------------------


@register_pass
class InlineHotCallsPass(ModulePass):
    """Inline small, hot, non-recursive callees (prediction-driven)."""

    name = "inline-hot"
    preserves = PRESERVES_NONE
    mutates = True

    def run_on_module(self, module, cache) -> PassResult:
        from repro.opt.inlining import inline_hot_calls

        decisions = inline_hot_calls(module, cache.prediction())
        return PassResult(
            changed=len(decisions),
            data=decisions,
            touched={decision.caller for decision in decisions},
        )


# -- analysis / report passes (non-mutating) ----------------------------------


class _AnalysisPass(FunctionPass):
    """Base for read-only function passes: preserve everything."""

    preserves = PRESERVES_ALL
    mutates = False


@register_pass
class PredictPass(ModulePass):
    """Materialise the VRP module prediction (the paper's deliverable)."""

    name = "predict"
    preserves = PRESERVES_ALL
    mutates = False

    def run_on_module(self, module, cache) -> PassResult:
        return PassResult(data=cache.prediction())


@register_pass
class UnreachablePass(_AnalysisPass):
    """Report probability-zero blocks and never-taken edges."""

    name = "unreachable"

    def run_on_function(self, function, cache) -> PassResult:
        from repro.opt.unreachable import dead_edges, unreachable_blocks

        prediction = cache.function_prediction(function)
        return PassResult(
            data={
                "blocks": sorted(unreachable_blocks(function, prediction)),
                "edges": sorted(dead_edges(function, prediction)),
            }
        )


@register_pass
class BoundsCheckPass(_AnalysisPass):
    """Classify array accesses as provably safe/unsafe/unknown."""

    name = "bounds-check"

    def run_on_function(self, function, cache) -> PassResult:
        from repro.opt.boundscheck import analyse_bounds_checks, eliminated_fraction

        reports = analyse_bounds_checks(function, cache.function_prediction(function))
        return PassResult(
            data={
                "reports": reports,
                "eliminated_fraction": eliminated_fraction(reports),
            }
        )


@register_pass
class ArrayAliasPass(_AnalysisPass):
    """Disambiguate array accesses by their index ranges."""

    name = "array-alias"

    def run_on_function(self, function, cache) -> PassResult:
        from repro.opt.array_alias import (
            collect_accesses,
            disambiguated_fraction,
            independent_pairs,
        )

        accesses = collect_accesses(function, cache.function_prediction(function))
        pairs = independent_pairs(accesses)
        return PassResult(
            data={
                "accesses": accesses,
                "pairs": pairs,
                "disambiguated_fraction": disambiguated_fraction(pairs),
            }
        )


@register_pass
class LayoutPass(_AnalysisPass):
    """Pettis-Hansen block layout from predicted edge frequencies."""

    name = "layout"

    def run_on_function(self, function, cache) -> PassResult:
        from repro.opt.layout import chain_layout

        prediction = cache.function_prediction(function)
        return PassResult(data=chain_layout(function, prediction.edge_frequency))


@register_pass
class SuperblockPass(_AnalysisPass):
    """Select straight-line traces (superblocks) from the prediction."""

    name = "superblock"

    def run_on_function(self, function, cache) -> PassResult:
        from repro.opt.superblock import form_traces, trace_statistics

        traces = form_traces(function, cache.function_prediction(function))
        return PassResult(
            data={"traces": traces, "statistics": trace_statistics(traces)}
        )


@register_pass
class SpeculationPass(_AnalysisPass):
    """Score hoisting candidates for speculative scheduling."""

    name = "speculation"

    def run_on_function(self, function, cache) -> PassResult:
        from repro.opt.speculation import hoisting_candidates, useless_speculation

        prediction = cache.function_prediction(function)
        return PassResult(
            data={
                "candidates": hoisting_candidates(function, prediction),
                "useless": useless_speculation(function, prediction),
            }
        )


@register_pass
class FunctionOrderPass(ModulePass):
    """Frequency-ordered function processing and allocation priority."""

    name = "function-order"
    preserves = PRESERVES_ALL
    mutates = False

    def run_on_module(self, module, cache) -> PassResult:
        from repro.opt.function_order import allocation_priority, function_order

        prediction = cache.prediction()
        return PassResult(
            data={
                "order": function_order(module, prediction),
                "allocation_priority": allocation_priority(module, prediction),
            }
        )


@register_pass
class DiagnosePass(ModulePass):
    """Run the static-diagnostics rules over the prediction."""

    name = "diagnose"
    preserves = PRESERVES_ALL
    mutates = False

    def run_on_module(self, module, cache) -> PassResult:
        from repro.diagnostics import check_module

        report = check_module(
            module, cache.prediction(), program=getattr(module, "name", "module")
        )
        return PassResult(data=report)
