"""AnalysisCache: demand computation, reuse, and invalidation."""

from __future__ import annotations

from repro.passes import AnalysisCache
from repro.passes.cache import dominator_tree, loop_info, postdominator_tree

from tests.helpers import PAPER_EXAMPLE, compile_and_prepare

LOOPY = """
func helper(k) {
  var s = 0;
  for (i = 0; i < k; i = i + 1) { s = s + i; }
  return s;
}
func main(n) {
  var total = 0;
  for (j = 0; j < 10; j = j + 1) { total = total + helper(j); }
  return total;
}
"""


def _cache(source=PAPER_EXAMPLE):
    module, infos = compile_and_prepare(source)
    return module, AnalysisCache(module, infos)


class TestDemandComputation:
    def test_structural_analyses_are_served_from_cache(self):
        module, cache = _cache()
        function = module.main
        assert cache.cfg(function) is cache.cfg(function)
        assert cache.dominators(function) is cache.dominators(function)
        assert cache.postdominators(function) is cache.postdominators(function)
        assert cache.loops(function) is cache.loops(function)
        assert cache.context(function) is cache.context(function)

    def test_context_is_built_over_the_cached_analyses(self):
        module, cache = _cache()
        function = module.main
        context = cache.context(function)
        assert context.cfg is cache.cfg(function)
        assert context.loops is cache.loops(function)
        assert context.postdom is cache.postdominators(function)

    def test_prediction_is_module_scoped_and_cached(self):
        module, cache = _cache(LOOPY)
        prediction = cache.prediction()
        assert prediction is cache.prediction()
        assert set(prediction.functions) == {"main", "helper"}
        assert cache.function_prediction(module.main) is prediction.functions["main"]

    def test_frequency_follows_the_prediction(self):
        module, cache = _cache(LOOPY)
        frequency = cache.frequency(module.main)
        assert frequency is cache.frequency(module.main)
        entry = module.main.entry_label
        assert frequency.block_frequency[entry] == 1.0

    def test_hit_and_miss_counters(self):
        module, cache = _cache()
        function = module.main
        cache.loops(function)
        cache.loops(function)
        assert cache.misses["loops"] == 1
        assert cache.hits["loops"] == 1

    def test_unknown_analysis_is_rejected(self):
        module, cache = _cache()
        try:
            cache.get("no-such-analysis")
        except KeyError:
            pass
        else:
            raise AssertionError("expected KeyError")


class TestInvalidation:
    def test_preserved_analysis_survives_clobbered_one_is_recomputed(self):
        module, cache = _cache()
        function = module.main
        loops_before = cache.loops(function)
        prediction_before = cache.prediction()
        # A pass declaring it preserves loop info but not the prediction.
        cache.invalidate(preserves=frozenset(("cfg", "loops")))
        assert cache.loops(function) is loops_before  # served from cache
        assert cache.prediction() is not prediction_before  # recomputed
        assert cache.invalidations["prediction"] == 1
        assert "loops" not in cache.invalidations

    def test_invalidate_all_drops_everything(self):
        module, cache = _cache()
        function = module.main
        cfg_before = cache.cfg(function)
        cache.prediction()
        dropped = cache.invalidate_all()
        assert dropped >= 2
        assert cache.cfg(function) is not cfg_before

    def test_function_scoped_invalidation_spares_other_functions(self):
        module, cache = _cache(LOOPY)
        main_cfg = cache.cfg(module.main)
        helper_cfg = cache.cfg(module.function("helper"))
        cache.invalidate(preserves=frozenset(), functions={"main"})
        assert cache.cfg(module.main) is not main_cfg
        assert cache.cfg(module.function("helper")) is helper_cfg

    def test_stats_reports_all_traffic(self):
        module, cache = _cache()
        cache.loops(module.main)
        cache.loops(module.main)
        cache.invalidate(preserves=frozenset())
        stats = cache.stats()
        assert stats["loops"] == {"hits": 1, "misses": 1, "invalidations": 1}


class TestConstructionSiteHelpers:
    def test_helpers_memoise_on_the_cfg_snapshot(self):
        from repro.ir.cfg import CFG

        module, _ = compile_and_prepare(PAPER_EXAMPLE)
        cfg = CFG(module.main)
        assert dominator_tree(cfg) is dominator_tree(cfg)
        assert postdominator_tree(cfg) is postdominator_tree(cfg)
        assert loop_info(cfg) is loop_info(cfg)

    def test_helper_trees_match_direct_construction(self):
        from repro.ir.cfg import CFG
        from repro.ir.dominance import DominatorTree

        module, _ = compile_and_prepare(PAPER_EXAMPLE)
        cfg = CFG(module.main)
        direct = DominatorTree(cfg)
        shared = dominator_tree(cfg)
        assert direct.idom == shared.idom
        assert direct.children == shared.children
