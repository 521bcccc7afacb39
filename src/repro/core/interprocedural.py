"""Interprocedural value range propagation (paper §3.7).

Jump functions: at each call site, the argument operands' range sets are
recorded; a callee's formal parameter range is the call-frequency
weighted merge of the jump functions over its call sites.  Return
functions flow the callee's merged return range back into call results.
"The entire program is treated almost as if it were one huge control
flow graph": we iterate per-function propagation in bottom-up call-graph
order until parameter and return ranges reach a fixed point.  No call
edge crosses a weakly connected component of the call graph, so each
component is iterated to its own fixed point, callees first (recursive
components iterate; a round cap bounds pathological cases, and a
component hitting it while its ranges are still moving raises the
``vrp.interprocedural.round_cap`` event plus a counter instead of
settling silently).  A summary store may supply a component's converged
state instead (:mod:`repro.incremental`).

A round re-analyses a function only when an input its last analysis
read has changed: its effective parameter ranges, or the return range
of a direct callee.  Otherwise the function keeps its last prediction
-- the engine is deterministic in those inputs, so a re-run would
reproduce it.  The confirming round of a converged component therefore
re-runs nothing, while ``rounds`` still counts it; a module reports the
most rounds any component used.

The analysis is context-insensitive: every call site of a function
reads the same merged summary.  A callee reached from significantly
different contexts is cloned instead (:mod:`repro.core.cloning`, §3.7).

After the fixed point converges the driver distils a *summary taint*
map -- which SSA names in each function are data-dependent on an
interprocedural fact (a parameter seeded from call sites, or a call
result seeded from a callee's return range).  ``repro explain`` turns
that into per-branch provenance tags and ``repro check`` into
cross-function provenance chains.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.core import counters as counters_mod
from repro.core.callgraph import CallGraph, CallSite, Component
from repro.core.config import VRPConfig
from repro.core.propagation import (
    FunctionPrediction,
    HeuristicFn,
    PropagationEngine,
)
from repro.core.rangeset import BOTTOM, RangeSet, merge_weighted
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
        summary_taint: Optional[Dict[str, Dict[str, Tuple[str, ...]]]] = None,
        taint_sources: Optional[Dict[str, Dict[str, dict]]] = None,
        interprocedural: Optional[dict] = None,
    ):
        self.module = module
        self.functions = functions
        self.counters = counters
        self.rounds = rounds
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
        #: The callees whose return ranges each function's analysis reads.
        self._read_callees: Dict[str, List[str]] = {
            name: sorted(self.callgraph.callees[name]) for name in module.functions
        }
        #: function -> the inputs its last analysis read (see _inputs_of).
        self._inputs: Dict[str, tuple] = {}

    # -- driver ---------------------------------------------------------------

    def run(self, store=None) -> ModulePrediction:
        """Solve each call-graph component to its fixed point, callees
        first, then assemble the module-level products once.

        An optional ``store`` is asked for each component's state first
        (``load(members)``, ``None`` on a miss) and handed each solved
        one (``save(members, state)``)."""
        states: List[dict] = []
        for component in self.callgraph.components():
            state = store.load(component.members) if store is not None else None
            if state is None:
                state = self._solve(component)
                if store is not None:
                    store.save(component.members, state)
            self.predictions.update(state["predictions"])
            self.param_sets.update(state["param_sets"])
            self.return_sets.update(state["return_sets"])
            states.append(state)

        predictions = {
            name: self.predictions[name] for name in self.callgraph.bottom_up_order()
        }
        total = counters_mod.Counters()
        for prediction in predictions.values():
            total.merge(prediction.counters)
        taint: Dict[str, Dict[str, Tuple[str, ...]]] = {}
        sources: Dict[str, Dict[str, dict]] = {}
        for state in states:
            taint.update(state["taint"])
            sources.update(state["sources"])
        round_caps = sum(state["round_cap"] for state in states)
        total.interprocedural_round_caps += round_caps
        # An empty module still reports the confirming round.
        rounds = max((state["rounds"] for state in states), default=2)
        return ModulePrediction(
            self.module,
            predictions,
            total,
            rounds,
            # In module order; seed sites are read from the live IR.
            summary_taint={
                name: taint[name] for name in self.module.functions if name in taint
            },
            taint_sources={
                name: self._with_sites(sources[name])
                for name in self.module.functions
                if name in sources
            },
            interprocedural={
                "rounds": rounds,
                "max_rounds": self.max_rounds,
                "converged": round_caps == 0,
                "round_cap_hits": round_caps,
            },
        )

    def _solve(self, component: Component) -> dict:
        """Iterate one component's rounds to its fixed point.

        Returns the component's state: its functions' predictions, jump
        and return functions, summary taint (seeds without their sites),
        and its share of the module's statistics.
        """
        from repro.observability import events as trace_events
        from repro.observability import tracer as tracing

        tracer = tracing.active()
        members = component.members
        rounds = 0
        changed = False
        for rounds in range(1, self.max_rounds + 1):
            changed = False
            with tracer.span("interprocedural-round"):
                for name in members:
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
                if self._recompute_jump_functions(component.call_sites):
                    changed = True
            if not changed and rounds > 1:
                break
        if changed:
            # The cap silenced a still-moving fixed point: the ranges of
            # the component's recursive functions were frozen as-is.
            tracer.emit(
                trace_events.RoundCap(
                    module=self.module.name,
                    rounds=rounds,
                    functions=tuple(
                        sorted(m for m in members if self.callgraph.is_recursive(m))
                    ),
                )
            )
        taint, sources = self._compute_taint(members)
        return {
            "predictions": {name: self.predictions[name] for name in members},
            "param_sets": {
                name: self.param_sets[name]
                for name in members
                if name in self.param_sets
            },
            "return_sets": {name: self.return_sets[name] for name in members},
            "taint": taint,
            "sources": sources,
            "rounds": rounds,
            "round_cap": changed,
        }

    # -- per-function analysis -----------------------------------------------------

    def _analyse_one(self, name: str) -> FunctionPrediction:
        return PropagationEngine(
            self.module.function(name),
            self.ssa_infos[name],
            config=self.config,
            heuristic=self.heuristic,
            param_ranges=self._params_for(name),
            call_effect=self._call_effect,
        ).run()

    def _inputs_of(self, name: str) -> tuple:
        """Everything one analysis of ``name`` reads that rounds can move."""
        return (
            self._params_for(name),
            tuple(
                self.return_sets.get(callee, BOTTOM)
                for callee in self._read_callees[name]
            ),
        )

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

    def _recompute_jump_functions(self, sites: Tuple[CallSite, ...]) -> bool:
        """Merge argument ranges over ``sites`` (a component's call
        sites), call-frequency weighted."""
        changed = False
        accumulated: Dict[str, List[List[Tuple[float, RangeSet]]]] = {}
        for site in sites:
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

    def _compute_taint(
        self, members: Tuple[str, ...]
    ) -> Tuple[Dict[str, Dict[str, Tuple[str, ...]]], Dict[str, Dict[str, dict]]]:
        """Which SSA names of ``members`` depend on interprocedural
        facts, and why.

        Seeds are (a) formal parameters of non-entry functions whose
        jump function produced a real range (entry parameters are
        external assumptions, not summaries) and (b) call results whose
        callee's return range is a real range (⊥ seeds contribute
        nothing a heuristic tag would not already say).  Taint closes
        forward over SSA def-use edges; every tainted name remembers
        which seeds reach it, so diagnostics can cite the call sites
        (:meth:`_with_sites` attaches them).
        """
        taint: Dict[str, Dict[str, Tuple[str, ...]]] = {}
        sources: Dict[str, Dict[str, dict]] = {}
        member_set = set(members)
        for name, function in self.module.functions.items():
            if name not in member_set:
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
                }
            if not seeds:
                continue
            sources[name] = seeds
            taint[name] = self._forward_taint(function, info, seeds)
        return taint, sources

    def _with_sites(self, seeds: Dict[str, dict]) -> Dict[str, dict]:
        """Attach call-site locations, read from the live IR, to one
        function's taint-seed descriptors.

        A parameter seed cites every call site of its function; a call
        seed cites the call defining it.  So provenance chains cite
        current line numbers even when the seeds were replayed from a
        store after a pure line-shift edit.
        """
        out: Dict[str, dict] = {}
        for seed, descriptor in seeds.items():
            function = descriptor.get("function")
            if descriptor.get("kind") == "param":
                sites = self.callgraph.sites_of_callee(function)
            else:
                sites = [
                    site
                    for site in self.callgraph.sites_in_caller(function)
                    if site.instruction.dest is not None
                    and site.instruction.dest.name == seed
                ]
            out[seed] = dict(
                descriptor, sites=[self._site_descriptor(site) for site in sites]
            )
        return out

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
    store=None,
) -> ModulePrediction:
    """Run interprocedural value range propagation over a module.

    ``store`` is an optional per-component state source; see
    :meth:`InterproceduralVRP.run`.
    """
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
    return driver.run(store=store)
