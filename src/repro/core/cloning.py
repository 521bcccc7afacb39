"""Procedure cloning for divergent calling contexts (paper §3.7).

"A critical procedure which is not inlined but which is called in two
(or more) significantly different contexts" is duplicated so each copy
can be analysed (and optimised) under its own calling context.  Here
"significantly different" means the call sites' argument range sets
disagree; each group of agreeing call sites gets one clone.

Cloning rewrites the module in place (new functions named
``callee$clone<N>``, call instructions redirected) and returns a report
that can project clone predictions back onto the original branches.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.callgraph import CallGraph, CallSite
from repro.core.config import VRPConfig
from repro.core.interprocedural import ModulePrediction
from repro.core.rangeset import BOTTOM, RangeSet
from repro.ir.function import Module
from repro.ir.values import Temp


class CloneReport:
    """What was cloned, and how to map predictions back."""

    def __init__(self) -> None:
        #: original function -> list of clone names (including the original)
        self.variants: Dict[str, List[str]] = {}
        #: clone name -> original name
        self.original_of: Dict[str, str] = {}

    def project_probabilities(
        self, prediction: ModulePrediction
    ) -> Dict[Tuple[str, str], float]:
        """Branch probabilities keyed by *original* (function, label).

        Clone predictions are merged weighted by how often each clone's
        branch executes, which is what the shared runtime branch would
        observe.
        """
        weighted: Dict[Tuple[str, str], List[Tuple[float, float]]] = {}
        for name, function_prediction in prediction.functions.items():
            original = self.original_of.get(name, name)
            for label, probability in function_prediction.branch_probability.items():
                weight = max(function_prediction.block_frequency.get(label, 0.0), 1e-9)
                weighted.setdefault((original, label), []).append(
                    (weight, probability)
                )
        out: Dict[Tuple[str, str], float] = {}
        for key, contributions in weighted.items():
            total = sum(weight for weight, _ in contributions)
            out[key] = sum(weight * p for weight, p in contributions) / total
        return out


def clone_for_contexts(
    module: Module,
    prediction: ModulePrediction,
    config: Optional[VRPConfig] = None,
    max_clones_per_function: int = 4,
    entry: str = "main",
) -> CloneReport:
    """Clone functions whose call sites carry disagreeing argument ranges.

    Uses an existing :class:`ModulePrediction` (for call-site argument
    ranges); the caller re-prepares SSA infos for new clones and re-runs
    the analysis afterwards.  The entry function is never cloned, nor is
    a function on a call cycle: a clone would still call the original,
    whose merged summary then mixes the recursive calls of every clone.
    """
    config = config or VRPConfig()
    callgraph = CallGraph(module)
    report = CloneReport()
    for callee in sorted(module.functions):
        if callee == entry or callgraph.is_recursive(callee):
            continue
        sites = callgraph.sites_of_callee(callee)
        if len(sites) < 2:
            continue
        groups = _group_sites_by_context(sites, prediction, config)
        if len(groups) < 2:
            continue
        groups = groups[:max_clones_per_function]
        names = [callee]
        # First group keeps the original; later groups get clones.
        for group_index, group in enumerate(groups[1:], start=1):
            clone_name = f"{callee}$clone{group_index}"
            module.add_function(module.function(callee).copy(clone_name))
            report.original_of[clone_name] = callee
            names.append(clone_name)
            for site in group:
                site.instruction.callee = clone_name
                module.function(site.caller).stamp = None
        report.variants[callee] = names
    return report


def analyse_with_cloning(
    module: Module,
    ssa_infos: Dict,
    config: Optional[VRPConfig] = None,
    entry: str = "main",
    max_clones_per_function: int = 4,
):
    """One-call workflow: analyse, clone divergent callees, re-analyse.

    Returns ``(refined ModulePrediction, CloneReport, projected)`` where
    ``projected`` maps *original* (function, branch) pairs to the
    clone-frequency-weighted probabilities — comparable against the
    un-cloned program's runtime behaviour.  The module is mutated (new
    ``callee$cloneN`` functions); ``ssa_infos`` gains entries for them.
    """
    from repro.core.predictor import VRPPredictor
    from repro.ir.ssa import SSAInfo

    predictor = VRPPredictor(config=config)
    first = predictor.predict_module(module, ssa_infos, entry=entry)
    report = clone_for_contexts(
        module,
        first,
        config=config,
        max_clones_per_function=max_clones_per_function,
        entry=entry,
    )
    if not report.variants:
        return first, report, {
            key: value for key, value in first.all_branches().items()
        }
    for name, function in module.functions.items():
        if name not in ssa_infos:
            info = SSAInfo()
            for param in function.params:
                info.param_names[param] = f"{param}.0"
            ssa_infos[name] = info
    refined = predictor.predict_module(module, ssa_infos, entry=entry)
    return refined, report, report.project_probabilities(refined)


def _group_sites_by_context(
    sites: List[CallSite],
    prediction: ModulePrediction,
    config: VRPConfig,
) -> List[List[CallSite]]:
    """Partition call sites into groups with matching argument ranges."""
    signatures: List[Tuple[Tuple[RangeSet, ...], List[CallSite]]] = []
    for site in sites:
        caller_prediction = prediction.functions.get(site.caller)
        if caller_prediction is None:
            signature: Tuple[RangeSet, ...] = ()
        else:
            signature = tuple(
                caller_prediction.values.get(arg.name, BOTTOM)
                if isinstance(arg, Temp)
                else RangeSet.constant(arg.value)
                for arg in site.instruction.args
            )
        for existing_signature, group in signatures:
            if len(existing_signature) == len(signature) and all(
                a.approx_equal(b, config.tolerance)
                for a, b in zip(existing_signature, signature)
            ):
                group.append(site)
                break
        else:
            signatures.append((signature, [site]))
    return [group for _, group in signatures]
