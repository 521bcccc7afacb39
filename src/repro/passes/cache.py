"""Demand-computed, invalidation-aware analysis results.

The :class:`AnalysisCache` is the single place structural analyses
(CFG, dominators, postdominators, loops), the Wu–Larus frequency
solution, and the VRP module prediction are constructed for pass
pipelines.  Passes request analyses by name; the cache computes them
on first use and serves them until a mutating pass invalidates them
(everything the pass did not declare in ``preserves`` is dropped).

Every analysis is cached until invalidated.  The structural ones
(``cfg``/``dominators``/``postdominators``/``loops``/``context``) are
pure functions of the current IR, so serving a cached one is
observationally identical to recomputing it.  The semantic ones
(``prediction``, ``frequency``, ``summaries``) are results clients keep
*using* across mutating passes (the free-function pipeline computes one
prediction up front and feeds it to every fold); whether a pass may
keep consuming them is governed solely by its ``preserves`` declaration.

The module-level helpers :func:`dominator_tree`,
:func:`postdominator_tree` and :func:`loop_info` are the one
construction site for the corresponding trees repo-wide; the SSA
builder, the IR verifier, and the heuristics' ``FunctionContext`` all
go through them.
"""

from __future__ import annotations

from typing import Dict, Optional, Union

from repro.core.config import VRPConfig
from repro.ir.cfg import CFG
from repro.ir.dominance import DominatorTree
from repro.ir.function import Function, Module
from repro.ir.postdominance import PostDominatorTree

from repro.passes.base import ANALYSIS_NAMES

#: Analyses computed per module rather than per function.  ``callgraph``
#: and the interprocedural products ride with ``prediction``: any
#: function's IR feeds them, so module-wide invalidation is the unit.
MODULE_SCOPE = frozenset(
    ("prediction", "callgraph", "summaries", "module_prediction")
)


# -- single construction site for the structural trees ----------------------
#
# Each helper memoises its result on the CFG snapshot itself: the trees
# are pure functions of the snapshot, and a snapshot is never mutated
# ("construct a new one after any structural mutation" -- ir/cfg.py),
# so the memo can never go stale.


def dominator_tree(cfg: CFG) -> DominatorTree:
    """The dominator tree of a CFG snapshot (memoised on the snapshot)."""
    tree = getattr(cfg, "_cached_dominator_tree", None)
    if tree is None:
        tree = DominatorTree(cfg)
        cfg._cached_dominator_tree = tree
    return tree


def postdominator_tree(cfg: CFG) -> PostDominatorTree:
    """The postdominator tree of a CFG snapshot (memoised on the snapshot)."""
    tree = getattr(cfg, "_cached_postdominator_tree", None)
    if tree is None:
        tree = PostDominatorTree(cfg)
        cfg._cached_postdominator_tree = tree
    return tree


def loop_info(cfg: CFG):
    """Natural-loop information for a CFG snapshot (memoised on it)."""
    from repro.analysis.loops import LoopInfo

    info = getattr(cfg, "_cached_loop_info", None)
    if info is None:
        info = LoopInfo(cfg)
        cfg._cached_loop_info = info
    return info


class AnalysisCache:
    """Analyses over one module, computed on demand and invalidated
    when a mutating pass clobbers them.

    Parameters
    ----------
    module, ssa_infos:
        The prepared module (``prepare_module`` output) the pipeline
        runs over.  ``ssa_infos`` may be omitted for purely structural
        use, but is required before ``prediction`` can be computed.
    config:
        Engine knobs for the prediction; defaults to :class:`VRPConfig`.
    predictor:
        Pre-built :class:`~repro.core.predictor.VRPPredictor` to reuse;
        built from ``config`` on first demand otherwise.
    """

    def __init__(
        self,
        module: Module,
        ssa_infos: Optional[Dict[str, object]] = None,
        config: Optional[VRPConfig] = None,
        predictor=None,
    ):
        self.module = module
        self.ssa_infos = ssa_infos or {}
        self.config = config or VRPConfig()
        self._predictor = predictor
        self._function_entries: Dict[str, Dict[str, object]] = {}
        self._module_entries: Dict[str, object] = {}
        #: Running totals, exported into metrics schema v4.
        self.hits: Dict[str, int] = {}
        self.misses: Dict[str, int] = {}
        self.invalidations: Dict[str, int] = {}

    # -- the request surface --------------------------------------------------

    def get(self, name: str, function: Union[Function, str, None] = None):
        """Request an analysis by name, computing it on a cache miss."""
        if name not in ANALYSIS_NAMES:
            raise KeyError(f"unknown analysis {name!r}")
        if name in MODULE_SCOPE:
            return self._get_module(name)
        function = self._resolve(function, name)
        return self._get_function(name, function)

    def _resolve(self, function, name) -> Function:
        if function is None:
            raise ValueError(f"analysis {name!r} is function-scoped")
        if isinstance(function, str):
            return self.module.functions[function]
        return function

    def _get_module(self, name: str):
        if name in self._module_entries:
            self.hits[name] = self.hits.get(name, 0) + 1
            return self._module_entries[name]
        self.misses[name] = self.misses.get(name, 0) + 1
        value = self._compute(name, None)
        self._module_entries[name] = value
        return value

    def _get_function(self, name: str, function: Function):
        entries = self._function_entries.setdefault(function.name, {})
        if name in entries:
            self.hits[name] = self.hits.get(name, 0) + 1
            return entries[name]
        self.misses[name] = self.misses.get(name, 0) + 1
        value = self._compute(name, function)
        entries[name] = value
        return value

    # -- convenience accessors ------------------------------------------------

    def cfg(self, function) -> CFG:
        return self.get("cfg", function)

    def dominators(self, function) -> DominatorTree:
        return self.get("dominators", function)

    def postdominators(self, function) -> PostDominatorTree:
        return self.get("postdominators", function)

    def loops(self, function):
        return self.get("loops", function)

    def context(self, function):
        """The heuristics' :class:`FunctionContext` over cached analyses."""
        return self.get("context", function)

    def frequency(self, function):
        return self.get("frequency", function)

    def prediction(self):
        """The module-wide VRP prediction (computes it on first demand)."""
        return self.get("prediction")

    def callgraph(self):
        """The module's call graph (sites, edges, SCC condensation)."""
        return self.get("callgraph")

    def summaries(self):
        """Per-function interprocedural summaries (jump/return/purity)."""
        return self.get("summaries")

    def function_prediction(self, function):
        name = function if isinstance(function, str) else function.name
        return self.prediction().functions[name]

    # -- computation ----------------------------------------------------------

    def _compute(self, name: str, function: Optional[Function]):
        """Compute one analysis, under an ``analysis:<name>`` span.

        The span makes per-analysis wall time visible to ``repro
        profile`` and ``--emit-metrics``; with no active tracer (the
        default) the guard is one attribute test, and analyses are
        coarse enough that the cost is invisible next to the work.
        """
        from repro.observability import tracer as tracing

        tracer = tracing.active()
        if tracer.enabled:
            with tracer.span(f"analysis:{name}"):
                return self._compute_inner(name, function)
        return self._compute_inner(name, function)

    def _compute_inner(self, name: str, function: Optional[Function]):
        if name == "cfg":
            return CFG(function)
        if name == "dominators":
            return dominator_tree(self.cfg(function))
        if name == "postdominators":
            return postdominator_tree(self.cfg(function))
        if name == "loops":
            return loop_info(self.cfg(function))
        if name == "context":
            from repro.heuristics.base import FunctionContext

            cfg = self.cfg(function)
            return FunctionContext(
                function,
                cfg=cfg,
                loops=self.loops(function),
                postdom=self.postdominators(function),
            )
        if name == "frequency":
            from repro.analysis.frequency import propagate_frequencies

            prediction = self.prediction().functions.get(function.name)
            branch_probability = (
                prediction.branch_probability if prediction is not None else {}
            )
            return propagate_frequencies(function, branch_probability)
        if name == "prediction":
            predictor = self._predictor
            if predictor is None:
                from repro.core.predictor import VRPPredictor

                predictor = VRPPredictor(config=self.config)
                self._predictor = predictor
            return predictor.predict_module(
                self.module, self.ssa_infos, analysis_cache=self
            )
        if name == "module_prediction":
            # Explicit module-scope alias of ``prediction`` so pipelines
            # can declare the interprocedural product by its own name.
            return self.prediction()
        if name == "callgraph":
            from repro.core.callgraph import CallGraph

            return CallGraph(self.module)
        if name == "summaries":
            prediction = self.prediction()
            if getattr(prediction, "summaries", None) is not None:
                return prediction.summaries
            # Intraprocedural prediction (no driver-built summaries):
            # distil what the per-function predictions do expose.
            from repro.core.summaries import build_summaries, compute_purity

            callgraph = self.get("callgraph")
            return build_summaries(
                self.module,
                callgraph,
                compute_purity(self.module, callgraph),
                {},
                {
                    fn: pred.return_set
                    for fn, pred in prediction.functions.items()
                },
                {
                    fn: pred.block_frequency
                    for fn, pred in prediction.functions.items()
                },
            )
        raise KeyError(f"unknown analysis {name!r}")  # pragma: no cover

    # -- invalidation ---------------------------------------------------------

    def invalidate(self, preserves=frozenset(), functions=None) -> int:
        """Drop every analysis not in ``preserves``; returns entries dropped.

        ``functions`` limits function-scoped invalidation to the named
        functions (module-scoped analyses are always dropped when not
        preserved, since any function's IR feeds them).
        """
        dropped = 0
        for name in list(self._module_entries):
            if name not in preserves:
                del self._module_entries[name]
                self.invalidations[name] = self.invalidations.get(name, 0) + 1
                dropped += 1
        targets = (
            list(self._function_entries)
            if functions is None
            else [f for f in functions if f in self._function_entries]
        )
        for function_name in targets:
            entries = self._function_entries[function_name]
            for name in list(entries):
                if name not in preserves:
                    del entries[name]
                    self.invalidations[name] = self.invalidations.get(name, 0) + 1
                    dropped += 1
        return dropped

    def invalidate_all(self) -> int:
        return self.invalidate(frozenset())

    # -- reporting ------------------------------------------------------------

    def stats(self) -> Dict[str, Dict[str, int]]:
        """Hit/miss/invalidation totals per analysis (metrics v4)."""
        out: Dict[str, Dict[str, int]] = {}
        for name in ANALYSIS_NAMES:
            hits = self.hits.get(name, 0)
            misses = self.misses.get(name, 0)
            invalidated = self.invalidations.get(name, 0)
            if hits or misses or invalidated:
                out[name] = {
                    "hits": hits,
                    "misses": misses,
                    "invalidations": invalidated,
                }
        return out
