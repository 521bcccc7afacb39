"""Demand-computed, invalidation-aware analysis results.

The :class:`AnalysisCache` is the single place structural analyses
(CFG, dominators, postdominators, loops), the heuristics' function
context, the call graph and the VRP module prediction are constructed
for pass pipelines.  Passes request analyses by name; the cache
computes them on first use and serves them until a mutating pass
invalidates them (everything the pass did not declare in ``preserves``
is dropped).

The structural analyses (``cfg``/``dominators``/``postdominators``/
``loops``/``context``) and ``callgraph`` are pure functions of the
current IR, so serving a cached one is observationally identical to
recomputing it.  ``prediction`` is a result clients keep *using* across
mutating passes (the free-function pipeline computes one prediction up
front and feeds it to every fold); whether a pass may keep consuming it
is governed solely by its ``preserves`` declaration.  The prediction
carries everything else clients read from VRP: block and edge
frequencies, and the interprocedural summary taint.

The dominator and postdominator trees are the cached CFG snapshot's
own (``cfg.dominators`` / ``cfg.postdominators``), which the snapshot
builds on first use and keeps.
"""

from __future__ import annotations

from typing import Dict, Optional, Union

from repro.analysis.loops import LoopInfo
from repro.core.config import VRPConfig
from repro.ir.cfg import CFG
from repro.ir.dominance import DominatorTree
from repro.ir.function import Function, Module
from repro.ir.postdominance import PostDominatorTree

from repro.passes.base import ANALYSIS_NAMES

#: Analyses computed per module rather than per function: any
#: function's IR feeds them, so module-wide invalidation is the unit.
MODULE_SCOPE = frozenset(("prediction", "callgraph"))


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
    """

    def __init__(
        self,
        module: Module,
        ssa_infos: Optional[Dict[str, object]] = None,
        config: Optional[VRPConfig] = None,
    ):
        self.module = module
        self.ssa_infos = ssa_infos or {}
        self.config = config or VRPConfig()
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

    def loops(self, function) -> LoopInfo:
        return self.get("loops", function)

    def context(self, function):
        """The heuristics' :class:`FunctionContext` over cached analyses."""
        return self.get("context", function)

    def prediction(self):
        """The module-wide VRP prediction (computes it on first demand)."""
        return self.get("prediction")

    def callgraph(self):
        """The module's call graph (sites, edges, SCC condensation)."""
        return self.get("callgraph")

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
            return self.cfg(function).dominators
        if name == "postdominators":
            return self.cfg(function).postdominators
        if name == "loops":
            return LoopInfo(self.cfg(function))
        if name == "context":
            from repro.heuristics.base import FunctionContext

            cfg = self.cfg(function)
            return FunctionContext(
                function,
                cfg=cfg,
                loops=self.loops(function),
                postdom=self.postdominators(function),
            )
        if name == "prediction":
            from repro.core.predictor import VRPPredictor

            return VRPPredictor(config=self.config).predict_module(
                self.module, self.ssa_infos, analysis_cache=self
            )
        if name == "callgraph":
            from repro.core.callgraph import CallGraph

            return CallGraph(self.module)
        raise KeyError(f"unknown analysis {name!r}")  # pragma: no cover

    # -- invalidation ---------------------------------------------------------

    def invalidate(self, preserves=frozenset()) -> int:
        """Drop every analysis not in ``preserves``; returns entries dropped."""
        dropped = 0
        for entries in (self._module_entries, *self._function_entries.values()):
            for name in list(entries):
                if name not in preserves:
                    del entries[name]
                    self.invalidations[name] = self.invalidations.get(name, 0) + 1
                    dropped += 1
        return dropped

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
