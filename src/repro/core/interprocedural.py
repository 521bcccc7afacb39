"""Interprocedural value range propagation (paper §3.7).

Jump functions: at each call site, the argument operands' range sets are
recorded; a callee's formal parameter range is the call-frequency
weighted merge of the jump functions over its call sites.  Return
functions flow the callee's merged return range back into call results.
"The entire program is treated almost as if it were one huge control
flow graph": we iterate per-function propagation in bottom-up call-graph
order until parameter and return ranges reach a fixed point (recursive
components iterate; a round cap bounds pathological cases, and hitting
it while ranges are still moving raises the
``vrp.interprocedural.round_cap`` event plus a counter instead of
settling silently).

A round re-analyses a function only when an input its last analysis
read has changed: its effective parameter ranges, or the return range
of a callee it reads (direct callees at k = 0, every reachable callee
at k >= 1, since context engines read deeper).  Otherwise the function
keeps its last prediction -- the engine is deterministic in those
inputs, so a re-run would reproduce it.  The confirming round of a
converged module therefore re-runs nothing, while ``rounds`` still
counts it.

Context sensitivity (``VRPConfig.context_depth``, default 0): with
k >= 1, a call to a provably *range-effect-free* callee is no longer
answered from the all-sites merge -- the callee is re-analysed under the
site's own abstracted argument ranges, to a nesting depth of k, with the
(function, context) → return-range results memoized in a bounded
:class:`~repro.core.perf.stats.LRUCache`.  k = 0 short-circuits all
of that and reproduces the context-insensitive analysis byte-for-byte.

After the fixed point converges the driver distils
:class:`~repro.core.summaries.ModuleSummaries` and a *summary taint*
map -- which SSA names in each function are data-dependent on an
interprocedural fact (a parameter seeded from call sites, or a call
result seeded from a callee's return range).  ``repro explain`` turns
that into per-branch provenance tags and ``repro check`` into
cross-function provenance chains.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.core import counters as counters_mod
from repro.core.callgraph import CallGraph
from repro.core.config import VRPConfig
from repro.core.perf.stats import LRUCache, stats as perf_stats
from repro.core.propagation import (
    FunctionPrediction,
    HeuristicFn,
    PropagationEngine,
)
from repro.core.rangeset import BOTTOM, RangeSet, TOP, merge_weighted
from repro.core.summaries import (
    DEFAULT_CONTEXT_CACHE_SIZE,
    ModuleSummaries,
    abstract_argument_set,
    build_summaries,
    compute_purity,
    context_key,
)
from repro.ir.function import Module
from repro.ir.instructions import Branch, Call
from repro.ir.ssa import SSAInfo, build_ssa_edges
from repro.ir.values import Constant, Temp

#: Branch provenance tags (``repro explain``).
PROVENANCE_HEURISTIC = "heuristic"
PROVENANCE_INTERPROCEDURAL = "interprocedural"
PROVENANCE_INTRAPROCEDURAL = "intraprocedural"


class ModulePrediction:
    """Predictions for every function of a module.

    The keyword-only extras are filled in by :class:`InterproceduralVRP`;
    single-function (intraprocedural) constructions leave them at their
    defaults and every accessor degrades gracefully.
    """

    def __init__(
        self,
        module: Module,
        functions: Dict[str, FunctionPrediction],
        counters: counters_mod.Counters,
        rounds: int,
        *,
        summaries: Optional[ModuleSummaries] = None,
        summary_taint: Optional[Dict[str, Dict[str, Tuple[str, ...]]]] = None,
        taint_sources: Optional[Dict[str, Dict[str, dict]]] = None,
        interprocedural: Optional[dict] = None,
    ):
        self.module = module
        self.functions = functions
        self.counters = counters
        self.rounds = rounds
        #: Per-function interprocedural summaries (None on the intra path).
        self.summaries = summaries
        #: function -> tainted SSA name -> seed names that reach it.
        self.summary_taint = summary_taint or {}
        #: function -> seed SSA name -> provenance descriptor.
        self.taint_sources = taint_sources or {}
        #: Fixed-point statistics (metrics schema v7), or None.
        self.interprocedural = interprocedural

    def branch_probability(self, function: str, label: str) -> Optional[float]:
        prediction = self.functions.get(function)
        if prediction is None:
            return None
        return prediction.branch_probability.get(label)

    def all_branches(self) -> Dict[Tuple[str, str], float]:
        out: Dict[Tuple[str, str], float] = {}
        for name, prediction in self.functions.items():
            for label, probability in prediction.branch_probability.items():
                out[(name, label)] = probability
        return out

    def heuristic_branches(self) -> set:
        return {
            (name, label)
            for name, prediction in self.functions.items()
            for label in prediction.used_heuristic
        }

    # -- interprocedural provenance -------------------------------------------

    def tainted_names(self, function: str) -> Set[str]:
        """SSA names in ``function`` that depend on interprocedural facts."""
        return set(self.summary_taint.get(function, ()))

    def provenance_chain(self, function: str, name: str) -> List[dict]:
        """Call-site provenance for one tainted SSA name (possibly [])."""
        seeds = self.summary_taint.get(function, {}).get(name, ())
        sources = self.taint_sources.get(function, {})
        return [sources[seed] for seed in seeds if seed in sources]

    def branch_provenance(self, function: str, label: str) -> str:
        """Where branch ``label``'s probability came from.

        ``heuristic`` -- the Ball-Larus fallback decided it;
        ``interprocedural`` -- resolved from ranges whose value depends
        on a summary (parameter jump function or callee return range);
        ``intraprocedural`` -- resolved from purely local ranges.
        """
        prediction = self.functions.get(function)
        if prediction is None or label not in prediction.branch_probability:
            return PROVENANCE_INTRAPROCEDURAL
        if label in prediction.used_heuristic:
            return PROVENANCE_HEURISTIC
        fn = self.module.functions.get(function)
        block = fn.blocks.get(label) if fn is not None else None
        if block is not None and block.instructions:
            terminator = block.instructions[-1]
            if isinstance(terminator, Branch) and isinstance(terminator.cond, Temp):
                if terminator.cond.name in self.summary_taint.get(function, {}):
                    return PROVENANCE_INTERPROCEDURAL
        return PROVENANCE_INTRAPROCEDURAL

    def __repr__(self) -> str:
        return (
            f"ModulePrediction({self.module.name!r}, "
            f"{len(self.functions)} functions, rounds={self.rounds})"
        )


class InterproceduralVRP:
    """Whole-program value range propagation driver."""

    def __init__(
        self,
        module: Module,
        ssa_infos: Dict[str, SSAInfo],
        config: Optional[VRPConfig] = None,
        heuristic: Optional[HeuristicFn] = None,
        entry: str = "main",
        entry_param_ranges: Optional[Dict[str, RangeSet]] = None,
        max_rounds: int = 8,
        analysis_cache=None,
    ):
        self.module = module
        self.ssa_infos = ssa_infos
        self.config = config or VRPConfig()
        self.heuristic = heuristic
        self.entry = entry
        self.entry_param_ranges = entry_param_ranges or {}
        self.max_rounds = max_rounds
        # The call graph is an invalidation-aware pass-manager analysis;
        # consume the cached instance when the caller runs under an
        # AnalysisCache instead of rebuilding it per run.
        if analysis_cache is not None:
            self.callgraph: CallGraph = analysis_cache.get("callgraph")
        else:
            self.callgraph = CallGraph(module)
        # Jump-function results: function -> param name -> merged range.
        self.param_sets: Dict[str, Dict[str, RangeSet]] = {}
        # Return functions: function -> merged return range.
        self.return_sets: Dict[str, RangeSet] = {}
        self.predictions: Dict[str, FunctionPrediction] = {}
        # -- context sensitivity ----------------------------------------------
        self.context_depth = max(0, int(self.config.context_depth))
        self.purity: Dict[str, bool] = (
            compute_purity(module, self.callgraph) if self.context_depth else {}
        )
        self._context_cache = LRUCache(
            DEFAULT_CONTEXT_CACHE_SIZE, perf_stats().caches["summary_context"]
        )
        self._context_counters = counters_mod.Counters()
        self._contexts_analyzed = 0
        #: Callees currently being analysed in some context (cycle guard).
        self._context_stack: Set[str] = set()
        #: Call results the contexts refined past the merged summary:
        #: caller -> dest SSA name -> taint-seed descriptor.  Only the
        #: top-level (per-function) engines record here; throwaway
        #: context engines do not describe the functions they analyse.
        self._context_refined: Dict[str, Dict[str, dict]] = {}
        self.round_cap_hit = False
        #: The callees whose return ranges each function's analysis reads:
        #: its direct callees at k = 0, every reachable callee at k >= 1
        #: (context engines read deeper return ranges).
        self._read_callees: Dict[str, List[str]] = {
            name: sorted(
                self._reachable(name) if self.context_depth
                else self.callgraph.callees[name]
            )
            for name in module.functions
        }
        #: function -> the inputs its last analysis read (see _inputs_of).
        self._inputs: Dict[str, tuple] = {}

    # -- driver ---------------------------------------------------------------

    def run(self) -> ModulePrediction:
        rounds_used = self.run_fixed_point()
        total = counters_mod.Counters()
        for prediction in self.predictions.values():
            total.merge(prediction.counters)
        total.merge(self._context_counters)
        total.interprocedural_round_caps += int(self.round_cap_hit)
        summary_taint, taint_sources = self._compute_taint()
        return ModulePrediction(
            self.module,
            dict(self.predictions),
            total,
            rounds_used,
            summaries=self._build_summaries(),
            summary_taint=summary_taint,
            taint_sources=taint_sources,
            interprocedural=self._stats(rounds_used),
        )

    def run_fixed_point(self) -> int:
        """Iterate the rounds only, skipping the module-level products
        (taint, summaries); returns the number of rounds used."""
        from repro.observability import events as trace_events
        from repro.observability import tracer as tracing

        tracer = tracing.active()
        order = self.callgraph.bottom_up_order()
        rounds_used = 0
        changed = False
        for round_number in range(1, self.max_rounds + 1):
            rounds_used = round_number
            changed = False
            # Memoized context results embed *other* callees' return
            # ranges as of this round; those move between rounds, so the
            # memo is only valid within one (stats stay cumulative).
            self._context_cache.clear()
            with tracer.span("interprocedural-round"):
                for name in order:
                    inputs = self._inputs_of(name)
                    if self._inputs.get(name) == inputs:
                        # Nothing it reads has moved: a re-run would
                        # reproduce the prediction it already has.
                        continue
                    self._inputs[name] = inputs
                    prediction = self._analyse_one(name)
                    self.predictions[name] = prediction
                    if self._record_return(name, prediction):
                        changed = True
                if self._recompute_jump_functions():
                    changed = True
            if not changed and round_number > 1:
                break
        if changed and rounds_used == self.max_rounds:
            # The cap silenced a still-moving fixed point: the ranges of
            # the recursive components were frozen as-is, not converged.
            self.round_cap_hit = True
            tracer.emit(
                trace_events.RoundCap(
                    module=self.module.name,
                    rounds=rounds_used,
                    functions=tuple(self._recursive_functions()),
                )
            )
        return rounds_used

    def _recursive_functions(self) -> List[str]:
        out: List[str] = []
        for component in self.callgraph.sccs():
            if len(component) > 1 or self.callgraph.is_recursive(component[0]):
                out.extend(component)
        return sorted(out)

    def _stats(self, rounds_used: int) -> dict:
        return {
            "rounds": rounds_used,
            "max_rounds": self.max_rounds,
            "converged": not self.round_cap_hit,
            "round_cap_hits": 1 if self.round_cap_hit else 0,
            "context_depth": self.context_depth,
            "contexts_analyzed": self._contexts_analyzed,
            "summary_cache": self._context_cache.record.as_dict(),
        }

    # -- per-function analysis -----------------------------------------------------

    def _analyse_one(self, name: str) -> FunctionPrediction:
        function = self.module.function(name)
        info = self.ssa_infos[name]
        engine = PropagationEngine(
            function,
            info,
            config=self.config,
            heuristic=self.heuristic,
            param_ranges=self._params_for(name),
            call_effect=self._call_effect,
        )
        if self.context_depth:
            self._context_refined[name] = {}
            engine.call_effect = self._context_effect(
                engine, self.context_depth, record=True
            )
        return engine.run()

    def _inputs_of(self, name: str) -> tuple:
        """Everything one analysis of ``name`` reads that rounds can move."""
        return (
            self._params_for(name),
            tuple(
                self.return_sets.get(callee, BOTTOM)
                for callee in self._read_callees[name]
            ),
        )

    def _reachable(self, name: str) -> Set[str]:
        seen: Set[str] = set()
        stack = list(self.callgraph.callees[name])
        while stack:
            callee = stack.pop()
            if callee not in seen:
                seen.add(callee)
                stack.extend(self.callgraph.callees[callee])
        return seen

    def _params_for(self, name: str) -> Dict[str, RangeSet]:
        if name == self.entry:
            base = {
                param: self.entry_param_ranges.get(param, BOTTOM)
                for param in self.module.function(name).params
            }
            return base
        known = self.param_sets.get(name)
        if known is None:
            # Not called (yet): unknown parameters.
            return {param: BOTTOM for param in self.module.function(name).params}
        return known

    def _call_effect(self, call: Call) -> RangeSet:
        return self.return_sets.get(call.callee, BOTTOM)

    # -- context-sensitive call effects (k >= 1) -----------------------------------

    def _context_effect(
        self, engine: PropagationEngine, depth: int, record: bool = False
    ) -> Callable[[Call], RangeSet]:
        """A call-effect closure answering calls per calling context."""

        def effect(call: Call) -> RangeSet:
            return self._context_call(engine, call, depth, record=record)

        return effect

    def _context_call(
        self, engine: PropagationEngine, call: Call, depth: int, record: bool = False
    ) -> RangeSet:
        callee = call.callee
        merged = self._call_effect(call)
        function = self.module.functions.get(callee)
        if function is None or not self.purity.get(callee, False):
            # Undefined or effectful callee: the merged summary is all
            # the context could ever soundly say.
            return merged
        params = function.params
        if len(call.args) != len(params):
            return merged
        arg_sets = tuple(
            abstract_argument_set(engine.value_of(arg)) for arg in call.args
        )
        if all(rangeset.is_bottom for rangeset in arg_sets):
            # The context carries no information beyond the merge.
            return merged
        key = context_key(callee, arg_sets, depth)
        cached = self._context_cache.get(key)
        if cached is not None:
            self._record_refinement(engine, call, cached, record)
            return cached
        if callee in self._context_stack:
            # Recursive context chain: answer from the merged fixed
            # point rather than unrolling the recursion.
            return merged
        result = self._analyse_in_context(callee, params, arg_sets, depth)
        self._context_cache.put(key, result)
        self._record_refinement(engine, call, result, record)
        return result

    def _record_refinement(
        self, engine: PropagationEngine, call: Call, result: RangeSet, record: bool
    ) -> None:
        """Remember a call result the context answered better than ⊥.

        These become taint seeds alongside the merged return functions,
        so ``branch_provenance`` and the diagnostics' provenance chains
        also cover ranges that exist *only* because of the context --
        the merged summary of such a callee is typically poisoned.
        """
        if not record or call.dest is None or result.is_bottom:
            return
        site = next(
            (
                s
                for s in self.callgraph.sites_in_caller(engine.function.name)
                if s.instruction is call
            ),
            None,
        )
        self._context_refined[engine.function.name][call.dest.name] = {
            "kind": "call",
            "function": engine.function.name,
            "callee": call.callee,
            "range": str(result),
            "sites": [self._site_descriptor(site)] if site is not None else [],
        }

    def _analyse_in_context(
        self,
        callee: str,
        params: List[str],
        arg_sets: Tuple[RangeSet, ...],
        depth: int,
    ) -> RangeSet:
        from repro.observability import tracer as tracing

        tracer = tracing.active()
        function = self.module.function(callee)
        info = self.ssa_infos[callee]
        self._context_stack.add(callee)
        try:
            with tracer.span(f"analysis:summary:{callee}"):
                context_engine = PropagationEngine(
                    function,
                    info,
                    config=self.config,
                    heuristic=self.heuristic,
                    param_ranges=dict(zip(params, arg_sets)),
                    call_effect=self._call_effect,
                )
                if depth > 1:
                    context_engine.call_effect = self._context_effect(
                        context_engine, depth - 1
                    )
                prediction = context_engine.run()
        finally:
            self._context_stack.discard(callee)
        self._contexts_analyzed += 1
        self._context_counters.merge(prediction.counters)
        result = prediction.return_set
        if result.is_top:
            result = BOTTOM
        return result

    # -- fixed-point bookkeeping ------------------------------------------------------

    def _record_return(self, name: str, prediction: FunctionPrediction) -> bool:
        new_set = prediction.return_set
        if new_set.is_top:
            new_set = BOTTOM
        old_set = self.return_sets.get(name)
        if old_set is not None and old_set.approx_equal(new_set, self.config.tolerance):
            return False
        self.return_sets[name] = new_set
        return True

    def _recompute_jump_functions(self) -> bool:
        """Merge argument ranges over all call sites, call-frequency weighted."""
        changed = False
        accumulated: Dict[str, List[List[Tuple[float, RangeSet]]]] = {}
        for site in self.callgraph.call_sites:
            caller_prediction = self.predictions.get(site.caller)
            if caller_prediction is None:
                continue
            callee = site.callee
            if callee not in self.module.functions:
                continue
            params = self.module.function(callee).params
            weight = caller_prediction.block_frequency.get(site.block_label, 0.0)
            if weight <= 0.0:
                weight = 1e-6  # cold call sites still contribute a little
            slots = accumulated.setdefault(
                callee, [[] for _ in params]
            )
            for position, arg in enumerate(site.instruction.args):
                if position >= len(params):
                    break
                slots[position].append(
                    (weight, self._argument_range(caller_prediction, arg))
                )
        for callee, slots in accumulated.items():
            params = self.module.function(callee).params
            merged: Dict[str, RangeSet] = {}
            for position, param in enumerate(params):
                contributions = slots[position] if position < len(slots) else []
                merged_set = merge_weighted(
                    contributions, max_ranges=self.config.max_ranges
                )
                if merged_set.is_top:
                    merged_set = BOTTOM
                merged[param] = merged_set
            old = self.param_sets.get(callee)
            if old is None or any(
                not old.get(param, BOTTOM).approx_equal(
                    merged[param], self.config.tolerance
                )
                for param in params
            ):
                self.param_sets[callee] = merged
                changed = True
        return changed

    def _argument_range(
        self, prediction: FunctionPrediction, arg
    ) -> RangeSet:
        if isinstance(arg, Constant):
            return RangeSet.constant(arg.value)
        if isinstance(arg, Temp):
            value = prediction.values.get(arg.name, BOTTOM)
            if value.is_top:
                return BOTTOM
            # Symbolic ranges name SSA variables of the *caller*; they are
            # meaningless inside the callee, so widen them away.
            if value.is_set and value.symbols():
                hull = value.hull()
                if hull is not None and not hull.symbols():
                    return RangeSet.from_ranges([hull])
                return BOTTOM
            return value
        return BOTTOM

    # -- post-convergence products ------------------------------------------------

    def _build_summaries(self) -> ModuleSummaries:
        purity = self.purity or compute_purity(self.module, self.callgraph)
        block_frequencies = {
            name: prediction.block_frequency
            for name, prediction in self.predictions.items()
        }
        return build_summaries(
            self.module,
            self.callgraph,
            purity,
            self.param_sets,
            self.return_sets,
            block_frequencies,
        )

    def _compute_taint(
        self,
    ) -> Tuple[Dict[str, Dict[str, Tuple[str, ...]]], Dict[str, Dict[str, dict]]]:
        """Which SSA names depend on interprocedural facts, and why.

        Seeds are (a) formal parameters of non-entry functions whose
        jump function produced a real range (entry parameters are
        external assumptions, not summaries) and (b) call results whose
        callee's return range is a real range (⊥ seeds contribute
        nothing a heuristic tag would not already say).  Taint closes
        forward over SSA def-use edges; every tainted name remembers
        which seeds reach it, so diagnostics can cite the call sites.
        """
        taint: Dict[str, Dict[str, Tuple[str, ...]]] = {}
        sources: Dict[str, Dict[str, dict]] = {}
        for name, function in self.module.functions.items():
            prediction = self.predictions.get(name)
            if prediction is None:
                continue
            info = self.ssa_infos[name]
            seeds: Dict[str, dict] = {}
            if name != self.entry:
                merged = self.param_sets.get(name, {})
                for param, ssa_name in info.param_names.items():
                    rangeset = merged.get(param)
                    if rangeset is not None and not rangeset.is_bottom:
                        seeds[ssa_name] = {
                            "kind": "param",
                            "function": name,
                            "param": param,
                            "range": str(rangeset),
                            "sites": [
                                self._site_descriptor(site)
                                for site in self.callgraph.sites_of_callee(name)
                            ],
                        }
            for site in self.callgraph.sites_in_caller(name):
                instr = site.instruction
                if instr.dest is None:
                    continue
                returned = self.return_sets.get(site.callee)
                if returned is None or returned.is_bottom:
                    continue
                seeds[instr.dest.name] = {
                    "kind": "call",
                    "function": name,
                    "callee": site.callee,
                    "range": str(returned),
                    "sites": [self._site_descriptor(site)],
                }
            # Context-refined call results (k >= 1): real ranges that
            # exist only per calling context, invisible to the merged
            # return functions above.
            seeds.update(self._context_refined.get(name, {}))
            if not seeds:
                continue
            sources[name] = seeds
            taint[name] = self._forward_taint(function, info, seeds)
        return taint, sources

    def _site_descriptor(self, site) -> dict:
        return {
            "function": site.caller,
            "block": site.block_label,
            "line": getattr(site.instruction, "loc", None),
            "callee": site.callee,
        }

    def _forward_taint(
        self, function, info: SSAInfo, seeds: Dict[str, dict]
    ) -> Dict[str, Tuple[str, ...]]:
        edges = build_ssa_edges(function, info)
        reach: Dict[str, Set[str]] = {seed: {seed} for seed in seeds}
        worklist = list(seeds)
        while worklist:
            current = worklist.pop()
            current_reach = reach[current]
            for use in edges.uses_of.get(current, ()):
                result = use.result
                if result is None:
                    continue
                target = reach.setdefault(result.name, set())
                before = len(target)
                target.update(current_reach)
                if len(target) != before:
                    worklist.append(result.name)
        return {name: tuple(sorted(names)) for name, names in reach.items()}


def analyse_module(
    module: Module,
    ssa_infos: Dict[str, SSAInfo],
    config: Optional[VRPConfig] = None,
    heuristic: Optional[HeuristicFn] = None,
    entry: str = "main",
    entry_param_ranges: Optional[Dict[str, RangeSet]] = None,
    max_rounds: int = 8,
    analysis_cache=None,
) -> ModulePrediction:
    """Run interprocedural value range propagation over a module."""
    driver = InterproceduralVRP(
        module,
        ssa_infos,
        config=config,
        heuristic=heuristic,
        entry=entry,
        entry_param_ranges=entry_param_ranges,
        max_rounds=max_rounds,
        analysis_cache=analysis_cache,
    )
    return driver.run()
