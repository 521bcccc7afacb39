"""The interprocedural driver's summaries: round cap and provenance.

The jump and return functions are the summaries: one merged range per
parameter and one per return, over every call site.  Under test:

1. the round-cap safety valve reports itself through both a counter
   and a trace event, per call-graph component;
2. the summary taint names the call sites an interprocedural range
   came from, and tags the branches it decides.
"""

from __future__ import annotations

import pytest

from repro.core.interprocedural import analyse_module
from repro.incremental import IncrementalStore, analyse_module_incremental
from repro.ir import prepare_module
from repro.lang import compile_source
from repro.observability import Tracer, use
from repro.observability.events import RoundCap


def prepare(source):
    module = compile_source(source)
    return module, prepare_module(module)


# One pure helper, two narrow call sites, one ⊥ site: the ⊥ site
# poisons the merged summary.
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

# Every call site passes a real range, so affine's merged parameter and
# return ranges are real ranges too and seed the taint.
NARROW = """
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


TWO_RECURSIVE_COMPONENTS = """
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

func tick(n) {
  if (n < 1) { return 2; }
  var r = tock(n - 1);
  return r + 2;
}

func tock(n) {
  if (n < 1) { return 3; }
  var r = tick(n - 1);
  return r + 2;
}

func main(n) {
  return ping(40);
}
"""


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

    @pytest.mark.parametrize("path", ["cold", "incremental"])
    def test_each_component_reports_its_own_cap(self, path):
        # Two independent recursive components: each hits the cap on
        # its own, and each event names only its own recursive members.
        module, ssa = prepare(TWO_RECURSIVE_COMPONENTS)
        tracer = Tracer()
        with use(tracer):
            if path == "cold":
                prediction = analyse_module(module, ssa, max_rounds=1)
            else:
                prediction, _ = analyse_module_incremental(
                    module, ssa, IncrementalStore(), max_rounds=1
                )
        assert prediction.counters.as_dict()["interprocedural_round_caps"] == 2
        stats = prediction.interprocedural
        assert stats["round_cap_hits"] == 2
        assert stats["converged"] is False
        events = tracer.events_of(RoundCap)
        assert [event.functions for event in events] == [
            ("ping", "pong"),
            ("tick", "tock"),
        ]
        assert all(event.rounds == 1 for event in events)

    def test_converged_run_reports_no_cap(self):
        module, ssa = prepare(DISPATCH)
        prediction = analyse_module(module, ssa)
        stats = prediction.interprocedural
        assert stats["round_cap_hits"] == 0
        assert stats["converged"] is True
        assert prediction.counters.as_dict()["interprocedural_round_caps"] == 0


class TestProvenance:
    def test_branch_provenance_tags(self):
        module, ssa = prepare(NARROW)
        prediction = analyse_module(module, ssa)
        tags = {
            label: prediction.branch_provenance("main", label)
            for _, label in prediction.all_branches()
        }
        assert "interprocedural" in tags.values()
        assert "heuristic" in tags.values()

    def test_taint_chain_names_call_sites(self):
        module, ssa = prepare(NARROW)
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
