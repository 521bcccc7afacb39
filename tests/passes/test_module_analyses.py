"""Module-scoped analyses: callgraph and prediction.

The interprocedural products are first-class pass-manager analyses:
served from :class:`AnalysisCache` on demand, reused across clients,
consumed by the VRP driver itself, and dropped or kept by
``invalidate`` according to a pass's ``preserves`` contract.  The
driver's summaries ride on the prediction.
"""

from __future__ import annotations

import pytest

from repro.core.callgraph import CallGraph
from repro.core.summaries import ModuleSummaries
from repro.passes import ANALYSIS_NAMES, PRESERVES_ALL, AnalysisCache

from tests.helpers import compile_and_prepare

CALLS = """
func affine(v) {
  return v * 3 + 1;
}

func main(n) {
  var a = affine(n % 8);
  if (a < 12) { return 1; }
  return affine(a);
}
"""


def _cache(source=CALLS):
    module, infos = compile_and_prepare(source)
    return module, AnalysisCache(module, infos)


class TestRegistration:
    def test_interprocedural_products_are_registered_analyses(self):
        for name in ("callgraph", "prediction"):
            assert name in ANALYSIS_NAMES
            assert name in PRESERVES_ALL


class TestDemandComputation:
    def test_callgraph_is_module_scoped_and_cached(self):
        module, cache = _cache()
        graph = cache.callgraph()
        assert isinstance(graph, CallGraph)
        assert graph is cache.callgraph()
        assert graph is cache.get("callgraph")
        assert cache.misses["callgraph"] == 1
        assert cache.hits["callgraph"] == 2
        assert graph.bottom_up_order() == ["affine", "main"]

    def test_summaries_are_module_scoped_and_cached(self):
        module, cache = _cache()
        summaries = cache.prediction().summaries
        assert isinstance(summaries, ModuleSummaries)
        assert summaries is cache.prediction().summaries
        assert cache.misses["prediction"] == 1
        assert summaries.of("affine").call_sites == 2
        assert summaries.of("affine").pure

    def test_summaries_ride_with_the_prediction(self):
        module, cache = _cache()
        summaries = cache.prediction().summaries
        cache.invalidate(preserves=frozenset(("callgraph",)))
        fresh = cache.prediction().summaries
        assert fresh is not summaries
        assert fresh.of("affine").call_sites == summaries.of("affine").call_sites

    def test_driver_consumes_the_cached_callgraph(self):
        module, cache = _cache()
        graph = cache.callgraph()
        hits_before = cache.hits.get("callgraph", 0)
        prediction = cache.prediction()
        # The interprocedural driver must reuse the cached graph rather
        # than rebuilding its own: a cache hit, not a second miss.
        assert cache.misses["callgraph"] == 1
        assert cache.hits["callgraph"] > hits_before
        assert set(prediction.functions) == set(graph.bottom_up_order())

    def test_function_scoped_request_is_rejected_for_module_analyses(self):
        module, cache = _cache()
        # Module-scoped analyses ignore the function operand entirely;
        # the cache must hand back the same module-wide object.
        assert cache.get("callgraph", module.main) is cache.callgraph()


class TestInvalidation:
    def test_unpreserved_module_analyses_are_dropped(self):
        module, cache = _cache()
        cache.callgraph()
        cache.prediction()
        dropped = cache.invalidate(preserves=frozenset(("cfg", "loops")))
        assert dropped >= 2
        for name in ("callgraph", "prediction"):
            assert cache.invalidations.get(name, 0) == 1

    def test_preserves_all_keeps_every_module_analysis(self):
        module, cache = _cache()
        graph = cache.callgraph()
        prediction = cache.prediction()
        assert cache.invalidate(preserves=PRESERVES_ALL) == 0
        assert cache.callgraph() is graph
        assert cache.prediction() is prediction

    def test_partial_preserves_is_honoured(self):
        module, cache = _cache()
        graph = cache.callgraph()
        prediction = cache.prediction()
        cache.invalidate(preserves=frozenset(("callgraph",)))
        assert cache.callgraph() is graph
        assert cache.prediction() is not prediction
        assert cache.invalidations["prediction"] == 1
        assert cache.invalidations.get("callgraph", 0) == 0

    def test_recompute_after_invalidation_is_fresh(self):
        module, cache = _cache()
        graph = cache.callgraph()
        cache.invalidate()
        fresh = cache.callgraph()
        assert fresh is not graph
        assert fresh.bottom_up_order() == graph.bottom_up_order()


class TestIntraproceduralFallback:
    def test_unknown_module_analysis_is_rejected(self):
        # Nothing rebuilds module products outside the seven analyses.
        module, cache = _cache()
        for name in ("module_callgraph", "summaries", "module_prediction"):
            with pytest.raises(KeyError):
                cache.get(name)
