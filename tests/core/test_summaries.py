"""Function summaries, purity, and k-limited context sensitivity.

The contract under test, in order of importance:

1. ``context_depth=0`` is byte-identical to the analysis before the
   summaries layer existed -- same branches, same work counters;
2. ``context_depth>=1`` strictly removes heuristic fallbacks on
   multi-site programs where one unanalysable call site used to poison
   the merged summary;
3. purity (range-effect freedom) is computed correctly, because it is
   the soundness condition for memoizing (function, context) pairs;
4. the context memo is a bounded LRU whose statistics feed the perf
   layer, and the round-cap safety valve reports itself through both a
   counter and a trace event.
"""

from __future__ import annotations

from repro.core import VRPConfig
from repro.core.callgraph import CallGraph
from repro.core.interprocedural import InterproceduralVRP, analyse_module
from repro.core.perf import stats as perf_stats_mod
from repro.core.perf.stats import LRUCache
from repro.core.rangeset import BOTTOM, TOP, RangeSet
from repro.core.summaries import (
    DEFAULT_CONTEXT_CACHE_SIZE,
    abstract_argument_set,
    compute_purity,
    context_key,
)
from repro.ir import prepare_module
from repro.lang import compile_source
from repro.observability import Tracer, use
from repro.observability.events import RoundCap


def prepare(source):
    module = compile_source(source)
    return module, prepare_module(module)


# One pure helper, two narrow call sites, one ⊥ site: the canonical
# program where the context-insensitive merge loses and k=1 wins.
DISPATCH = """
func affine(v) {
  return v * 3 + 1;
}

func main(n) {
  var low = 0;
  var wild = 0;
  for (i = 0; i < n; i = i + 1) {
    var x = input();
    var a8 = x % 8;
    var a = affine(a8);
    if (a < 12) { low = low + 1; }
    var w = affine(x);
    if (w < 0) { wild = wild + 1; }
  }
  return low + wild;
}
"""


class TestPurity:
    def test_input_makes_impure(self):
        module, _ = prepare(
            """
            func reader() { return input(); }
            func main(n) { return reader(); }
            """
        )
        purity = compute_purity(module)
        assert not purity["reader"]
        assert not purity["main"]

    def test_impurity_propagates_to_callers(self):
        module, _ = prepare(DISPATCH)
        purity = compute_purity(module)
        assert purity["affine"]
        assert not purity["main"]  # reads input()

    def test_pure_recursion_stays_pure(self):
        module, _ = prepare(
            """
            func fact(v) {
              if (v < 2) { return 1; }
              var r = fact(v - 1);
              return v * r;
            }
            func main(n) { return fact(6); }
            """
        )
        purity = compute_purity(module)
        assert purity["fact"]
        assert purity["main"]

    def test_undefined_callee_is_impure(self):
        module, _ = prepare(
            """
            func ext(x) { return x; }
            func main(n) { return ext(n); }
            """
        )
        del module.functions["ext"]
        purity = compute_purity(module, CallGraph(module))
        assert not purity["main"]


class TestContextKeys:
    def test_key_shape_and_hashability(self):
        args = (RangeSet.constant(3), BOTTOM)
        key = context_key("f", args, 2)
        assert key == ("f", 2, args)
        assert hash(key) == hash(("f", 2, args))

    def test_abstraction_widens_top_to_bottom(self):
        assert abstract_argument_set(TOP).is_bottom
        assert abstract_argument_set(BOTTOM).is_bottom

    def test_abstraction_keeps_numeric_sets(self):
        narrow = RangeSet.constant(5)
        assert abstract_argument_set(narrow) == narrow


class TestSummaryCache:
    """The (function, context) memo: an LRU tallying ``summary_context``."""

    def setup_method(self):
        self.record = perf_stats_mod.stats().caches["summary_context"]
        self.record.reset()

    def cache(self, capacity=DEFAULT_CONTEXT_CACHE_SIZE):
        return LRUCache(capacity, self.record)

    def test_miss_then_hit(self):
        cache = self.cache()
        key = context_key("f", (RangeSet.constant(1),), 1)
        assert cache.get(key) is None
        cache.put(key, RangeSet.constant(4))
        assert cache.get(key) == RangeSet.constant(4)
        stats = self.record.as_dict()
        assert stats["misses"] == 1
        assert stats["hits"] == 1

    def test_lru_eviction_counts(self):
        cache = self.cache(2)
        keys = [
            context_key("f", (RangeSet.constant(i),), 1) for i in range(3)
        ]
        for key in keys:
            cache.put(key, BOTTOM)
        assert len(cache) == 2
        assert cache.get(keys[0]) is None  # oldest evicted
        assert cache.get(keys[2]) is not None
        assert self.record.evictions == 1

    def test_clear_drops_entries_keeps_stats(self):
        cache = self.cache()
        key = context_key("f", (), 1)
        cache.put(key, BOTTOM)
        assert cache.get(key) is not None
        cache.clear()
        assert len(cache) == 0
        assert cache.get(key) is None
        stats = self.record.as_dict()
        assert stats["hits"] == 1
        assert stats["misses"] == 1

    def test_default_capacity(self):
        module, infos = prepare(DISPATCH)
        driver = InterproceduralVRP(module, infos, config=VRPConfig(context_depth=1))
        assert driver._context_cache.capacity == DEFAULT_CONTEXT_CACHE_SIZE
        assert driver._context_cache.record is self.record


class TestContextInsensitiveIdentity:
    def test_k0_equals_default_config(self):
        module_a, ssa_a = prepare(DISPATCH)
        baseline = analyse_module(module_a, ssa_a, config=VRPConfig())
        module_b, ssa_b = prepare(DISPATCH)
        depth0 = analyse_module(
            module_b, ssa_b, config=VRPConfig(context_depth=0)
        )
        assert baseline.all_branches() == depth0.all_branches()
        assert baseline.heuristic_branches() == depth0.heuristic_branches()
        assert (
            baseline.counters.as_dict() == depth0.counters.as_dict()
        )

    def test_k0_reports_no_contexts(self):
        module, ssa = prepare(DISPATCH)
        prediction = analyse_module(module, ssa, config=VRPConfig())
        assert prediction.interprocedural["context_depth"] == 0
        assert prediction.interprocedural["contexts_analyzed"] == 0


class TestContextSensitivity:
    def test_k1_removes_poisoned_fallbacks(self):
        module0, ssa0 = prepare(DISPATCH)
        at0 = analyse_module(module0, ssa0, config=VRPConfig(context_depth=0))
        module1, ssa1 = prepare(DISPATCH)
        at1 = analyse_module(module1, ssa1, config=VRPConfig(context_depth=1))
        assert len(at1.heuristic_branches()) < len(at0.heuristic_branches())
        # The recovered branch is interior: a proof would be unsound
        # (the merged behaviour includes the unknown site).
        recovered = set(at0.heuristic_branches()) - set(
            at1.heuristic_branches()
        )
        for key in recovered:
            assert 0.0 < at1.all_branches()[key] < 1.0

    def test_contexts_and_cache_stats_reported(self):
        module, ssa = prepare(DISPATCH)
        prediction = analyse_module(
            module, ssa, config=VRPConfig(context_depth=1)
        )
        stats = prediction.interprocedural
        assert stats["context_depth"] == 1
        assert stats["contexts_analyzed"] > 0
        assert set(stats["summary_cache"]) >= {"hits", "misses", "evictions"}

    def test_two_level_chain_needs_k2(self):
        source = """
        func inner(v) {
          return v * 2 + 1;
        }

        func outer(v) {
          var w = inner(v);
          return w + v;
        }

        func main(n) {
          var hits = 0;
          for (i = 0; i < n; i = i + 1) {
            var x = input();
            var x4 = x % 4;
            var y = outer(x4);
            if (y < 5) { hits = hits + 1; }
            var z = inner(x);
            if (z < 0) { hits = hits - 1; }
          }
          return hits;
        }
        """
        counts = {}
        for depth in (0, 1, 2):
            module, ssa = prepare(source)
            prediction = analyse_module(
                module, ssa, config=VRPConfig(context_depth=depth)
            )
            counts[depth] = len(prediction.heuristic_branches())
        # k=1 refines outer's *own* context but its inner call still
        # reads the poisoned merged summary; only k=2 reaches through.
        assert counts[1] == counts[0]
        assert counts[2] < counts[1]

    def test_recursive_context_answers_with_merge(self):
        source = """
        func fact(v) {
          if (v < 2) { return 1; }
          var r = fact(v - 1);
          return v * r;
        }

        func main(n) {
          var acc = 0;
          for (i = 0; i < n; i = i + 1) {
            var x = input();
            var x6 = x % 6;
            var f = fact(x6);
            if (f > 10) { acc = acc + 1; }
          }
          return acc;
        }
        """
        baselines = {}
        for depth in (0, 2):
            module, ssa = prepare(source)
            prediction = analyse_module(
                module, ssa, config=VRPConfig(context_depth=depth)
            )
            baselines[depth] = prediction.all_branches()
        # The cycle guard answers recursive contexts from the merged
        # fixed point: no unrolling, no divergence, identical answers.
        assert set(baselines[0]) == set(baselines[2])


class TestModuleSummaries:
    def test_summary_contents(self):
        module, ssa = prepare(DISPATCH)
        prediction = analyse_module(module, ssa)
        summary = prediction.summaries.of("affine")
        assert summary.pure
        assert summary.call_sites == 2
        assert summary.params == ("v",)
        assert summary.call_frequency > 0.0
        # One ⊥ site poisons the merged parameter and return ranges.
        assert summary.param_range("v").is_bottom
        assert summary.return_range.is_bottom
        as_dict = summary.as_dict()
        assert as_dict["function"] == "affine"
        assert as_dict["pure"] is True

    def test_container_protocols(self):
        module, ssa = prepare(DISPATCH)
        summaries = analyse_module(module, ssa).summaries
        assert "affine" in summaries
        assert "nope" not in summaries
        assert list(summaries) == sorted(summaries.as_dict())
        assert len(summaries) == 2
        assert summaries.of("nope") is None


class TestRoundCap:
    def test_cap_emits_event_and_counter(self):
        module, ssa = prepare(
            """
            func ping(n) {
              if (n < 1) { return 0; }
              var r = pong(n - 1);
              return r + 1;
            }

            func pong(n) {
              if (n < 1) { return 1; }
              var r = ping(n - 1);
              return r + 1;
            }

            func main(n) {
              return ping(40);
            }
            """
        )
        tracer = Tracer()
        with use(tracer):
            prediction = analyse_module(module, ssa, max_rounds=1)
        assert prediction.counters.as_dict()["interprocedural_round_caps"] == 1
        stats = prediction.interprocedural
        assert stats["round_cap_hits"] == 1
        assert stats["converged"] is False
        events = tracer.events_of(RoundCap)
        assert len(events) == 1
        assert events[0].rounds == 1
        assert set(events[0].functions) >= {"ping", "pong"}

    def test_converged_run_reports_no_cap(self):
        module, ssa = prepare(DISPATCH)
        prediction = analyse_module(module, ssa)
        stats = prediction.interprocedural
        assert stats["round_cap_hits"] == 0
        assert stats["converged"] is True
        assert prediction.counters.as_dict()["interprocedural_round_caps"] == 0


class TestProvenance:
    def test_branch_provenance_tags(self):
        module, ssa = prepare(DISPATCH)
        prediction = analyse_module(
            module, ssa, config=VRPConfig(context_depth=1)
        )
        tags = {
            label: prediction.branch_provenance("main", label)
            for _, label in prediction.all_branches()
        }
        assert "interprocedural" in tags.values()
        assert "heuristic" in tags.values()

    def test_taint_chain_names_call_sites(self):
        # Every call site passes a real range, so affine's merged
        # parameter is a real range too and seeds the taint.
        module, ssa = prepare(
            """
            func affine(v) {
              return v * 3 + 1;
            }

            func main(n) {
              var low = 0;
              for (i = 0; i < n; i = i + 1) {
                var x = input();
                var a8 = x % 8;
                var a = affine(a8);
                if (a < 12) { low = low + 1; }
                var a4 = x % 4;
                var b = affine(a4);
                if (b < 7) { low = low + 1; }
              }
              return low;
            }
            """
        )
        prediction = analyse_module(module, ssa)
        # Inside affine, the parameter is seeded interprocedurally; its
        # provenance chain points back at both call sites in main.
        tainted = prediction.tainted_names("affine")
        assert tainted
        param_seeds = [
            entry
            for name in sorted(tainted)
            for entry in prediction.provenance_chain("affine", name)
            if entry["kind"] == "param"
        ]
        assert param_seeds
        entry = param_seeds[0]
        assert entry["function"] == "affine"
        assert {site["function"] for site in entry["sites"]} == {"main"}
        assert len(entry["sites"]) == 2

    def test_intraprocedural_function_has_no_taint(self):
        module, ssa = prepare(
            """
            func main(n) {
              if (n > 0) { return 1; }
              return 0;
            }
            """
        )
        prediction = analyse_module(module, ssa)
        assert prediction.tainted_names("main") == set()
        assert (
            prediction.branch_provenance("main", "entry")
            in ("intraprocedural", "heuristic")
        )
