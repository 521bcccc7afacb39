"""High-level branch prediction API.

:class:`VRPPredictor` is the library's front door: given a prepared
module it runs (inter- or intra-procedural) value range propagation with
a heuristic fallback and yields a probability for every conditional
branch -- the paper's deliverable.  It conforms to the common predictor
interface so the evaluation harness can score it side by side with the
heuristic and profile baselines.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.core import perf
from repro.core.config import VRPConfig
from repro.core.interprocedural import ModulePrediction, analyse_module
from repro.core.propagation import FunctionPrediction, analyse_function
from repro.core.rangeset import RangeSet
from repro.heuristics import BallLarusPredictor, Predictor
from repro.ir.function import Function, Module
from repro.ir.ssa import SSAInfo


class VRPPredictor(Predictor):
    """Value-range-propagation branch predictor.

    Parameters
    ----------
    config:
        Engine knobs; defaults to the paper's settings (4 ranges,
        symbolic tracking, loop derivation).
    fallback:
        Heuristic predictor used for branches whose controlling range is
        ⊥; defaults to Ball–Larus with Dempster–Shafer combination,
        exactly as the paper prescribes.
    interprocedural:
        Propagate jump/return functions across calls (paper §3.7).
    incremental_store:
        A :class:`repro.incremental.IncrementalStore`.  When provided,
        interprocedural module predictions replay unchanged callgraph
        components from the store instead of re-running their fixed
        points; rendered results are byte-identical either way, and
        :attr:`last_incremental` describes what the latest run reused.
    """

    name = "vrp"

    def __init__(
        self,
        config: Optional[VRPConfig] = None,
        fallback: Optional[Predictor] = None,
        interprocedural: bool = True,
        incremental_store=None,
    ):
        self.config = config or VRPConfig()
        self.fallback = fallback if fallback is not None else BallLarusPredictor()
        self.interprocedural = interprocedural
        self.incremental_store = incremental_store
        #: :class:`repro.incremental.IncrementalOutcome` of the last
        #: predict_module call, or None when the cold path ran.
        self.last_incremental = None

    # -- module-level API ---------------------------------------------------------

    def predict_module(
        self,
        module: Module,
        ssa_infos: Dict[str, SSAInfo],
        entry: str = "main",
        entry_param_ranges: Optional[Dict[str, RangeSet]] = None,
        analysis_cache=None,
    ) -> ModulePrediction:
        """Analyse a whole prepared module.

        ``analysis_cache`` (the pass layer's ``AnalysisCache``) lets
        the heuristic fallback consume the cache's structural analyses
        instead of privately rebuilding them; predictions are identical
        either way.
        """
        from repro.observability import tracer as tracing

        self._reset_perf()
        tracer = tracing.active()
        if tracer.enabled:
            with tracer.span("predict"):
                return self._predict_module(
                    module, ssa_infos, entry, entry_param_ranges, analysis_cache
                )
        return self._predict_module(
            module, ssa_infos, entry, entry_param_ranges, analysis_cache
        )

    def _predict_module(
        self,
        module: Module,
        ssa_infos: Dict[str, SSAInfo],
        entry: str,
        entry_param_ranges: Optional[Dict[str, RangeSet]],
        analysis_cache=None,
    ) -> ModulePrediction:
        heuristic = (
            self.fallback.as_fallback(analyses=analysis_cache)
            if self.fallback
            else None
        )
        self.last_incremental = None
        if self.interprocedural:
            store = None
            if self.incremental_store is not None:
                # Imported lazily: the incremental subsystem is optional
                # at runtime and must not tax the cold import path.
                from repro.incremental.driver import ComponentStore

                store = ComponentStore(
                    self.incremental_store, module, self.config, entry,
                    entry_param_ranges,
                )
            prediction = analyse_module(
                module,
                ssa_infos,
                config=self.config,
                heuristic=heuristic,
                entry=entry,
                entry_param_ranges=entry_param_ranges,
                analysis_cache=analysis_cache,
                store=store,
            )
            if store is not None:
                self.last_incremental = store.finish()
            return prediction
        predictions: Dict[str, FunctionPrediction] = {}
        import repro.core.counters as counters_mod

        total = counters_mod.Counters()
        for name, function in module.functions.items():
            prediction = analyse_function(
                function,
                ssa_infos[name],
                config=self.config,
                heuristic=heuristic,
                param_ranges=entry_param_ranges if name == entry else None,
            )
            predictions[name] = prediction
            total.merge(prediction.counters)
        return ModulePrediction(module, predictions, total, rounds=1)

    def _reset_perf(self) -> None:
        """Zero the perf-layer stats so they describe this run only.

        Cache *contents* deliberately persist across runs: every memo is
        keyed on the full arguments of a pure function (with recorded
        work-counter deltas replayed on hits), so warm entries from
        previously analysed modules change wall time but never results.
        The exported hit/miss stats therefore depend on what the process
        analysed before -- like wall time, and unlike the predictions
        and work counters, which are byte-identical for any cache state
        (the property ``--jobs N`` relies on).
        """
        perf.stats.reset_stats()

    # -- Predictor interface (single function, intraprocedural) ---------------------

    def predict_function(self, function: Function, context=None) -> Dict[str, float]:
        # ``context`` (the heuristics' FunctionContext) is accepted for
        # interface compatibility; VRP derives everything from the IR.
        from repro.ir import SSAEdges  # noqa: F401  (documented dependency)
        from repro.ir.ssa import SSAInfo as _SSAInfo

        self._reset_perf()
        info = _reconstruct_ssa_info(function)
        heuristic = self.fallback.as_fallback() if self.fallback else None
        prediction = analyse_function(
            function, info, config=self.config, heuristic=heuristic
        )
        return dict(prediction.branch_probability)


def _reconstruct_ssa_info(function: Function) -> SSAInfo:
    """Recover parameter SSA names for an already-converted function.

    SSA construction names the entry version of parameter ``p`` as
    ``p.0``; this helper lets the Predictor interface work on functions
    prepared elsewhere without threading the SSAInfo through.
    """
    info = SSAInfo()
    for param in function.params:
        info.param_names[param] = f"{param}.0"
        info.original_name[f"{param}.0"] = param
    return info


def predict_branch_probabilities(
    module: Module,
    ssa_infos: Dict[str, SSAInfo],
    config: Optional[VRPConfig] = None,
    fallback: Optional[Predictor] = None,
    interprocedural: bool = True,
    entry: str = "main",
) -> Dict[Tuple[str, str], float]:
    """One-call convenience: (function, branch block) -> P(true edge)."""
    predictor = VRPPredictor(
        config=config, fallback=fallback, interprocedural=interprocedural
    )
    prediction = predictor.predict_module(module, ssa_infos, entry=entry)
    return prediction.all_branches()
