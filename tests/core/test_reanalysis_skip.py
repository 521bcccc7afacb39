"""The interprocedural driver re-analyses a function only when its inputs moved.

A function whose effective parameter ranges and read callee return
ranges are unchanged since its last analysis keeps its last prediction.
The skip must be invisible: forcing every re-analysis (the input
snapshot never matches) renders the same predict table, ranges listing
and check report, with the same rounds and convergence, at every
context depth -- and, at k = 0, the same work counters.
"""

import glob
import os

import pytest

from repro import rendering
from repro.core import perf
from repro.core.config import VRPConfig
from repro.core.interprocedural import InterproceduralVRP, analyse_module
from repro.core.predictor import VRPPredictor
from repro.diagnostics.engine import check_module
from repro.diagnostics.render import render_text
from repro.ir import prepare_module
from repro.lang import compile_source
from repro.observability.tracer import Tracer, use
from repro.workloads import suite

EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "..", "examples")

#: The round-cap program of test_summaries.py::TestRoundCap.
PING_PONG = """
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

#: At k >= 1, main's context call a(3) reads b's return range, which
#: moves in round 3 while main's own parameters and a's and c's merged
#: return ranges stay put: main must still be re-analysed.
DEEP_CONTEXT = """
func b(x) {
  return x;
}

func a(y) {
  var t = b(1);
  return t * y;
}

func c(z) {
  var q = b(z);
  return 0;
}

func main(n) {
  var r = a(3);
  var s = a(n);
  var w = c(5);
  if (r < 4) { w = w + 1; }
  return w + s;
}
"""

CALL_FREE = """
func main(n) {
  var total = 0;
  for (i = 0; i < 20; i = i + 1) {
    if (i < 5) { total = total + i; }
  }
  return total;
}
"""


def corpus():
    """``(name, source)`` for examples/*.toy, the 27-workload suite and
    the ``inter`` suite."""
    out = []
    for path in sorted(glob.glob(os.path.join(EXAMPLES, "*.toy"))):
        with open(path, encoding="utf-8") as handle:
            out.append((os.path.basename(path), handle.read()))
    for workload in suite("int") + suite("fp") + suite("inter"):
        out.append((workload.name, workload.source))
    return out


def surface(name, source, depth, max_rounds=8):
    """Everything a user sees of one analysis, plus its counters."""
    perf.reset()
    module = compile_source(source, module_name=name)
    infos = prepare_module(module)
    prediction = analyse_module(
        module, infos, config=VRPConfig(context_depth=depth), max_rounds=max_rounds
    )
    rendered = (
        rendering.branch_table(
            prediction.all_branches(), prediction.heuristic_branches()
        ),
        rendering.ranges_listing(prediction),
        render_text(check_module(module, prediction, program=name)),
        prediction.rounds,
        prediction.interprocedural["converged"],
    )
    return rendered, prediction.counters.as_dict()


def never_matches(self, name):
    """An input snapshot equal to no other, so every round re-runs every function."""
    return object()


class TestSkipEquivalence:
    @pytest.mark.parametrize("depth", [0, 1, 2])
    def test_forced_reanalysis_changes_nothing(self, monkeypatch, depth):
        programs = corpus()
        assert len(programs) == 2 + 27 + 4
        skipping = {name: surface(name, source, depth) for name, source in programs}
        with monkeypatch.context() as patch:
            patch.setattr(InterproceduralVRP, "_inputs_of", never_matches)
            forced = {
                name: surface(name, source, depth) for name, source in programs
            }
        differing = [
            name
            for name in skipping
            if skipping[name][0] != forced[name][0]
            or (depth == 0 and skipping[name][1] != forced[name][1])
        ]
        assert differing == []

    @pytest.mark.parametrize("depth", [0, 1, 2])
    def test_context_reads_deeper_return_ranges(self, monkeypatch, depth):
        skipping = surface("deep_context", DEEP_CONTEXT, depth)
        monkeypatch.setattr(InterproceduralVRP, "_inputs_of", never_matches)
        assert surface("deep_context", DEEP_CONTEXT, depth)[0] == skipping[0]

    @pytest.mark.parametrize("max_rounds", [1, 8])
    def test_round_cap_program(self, monkeypatch, max_rounds):
        skipping = surface("ping_pong", PING_PONG, 0, max_rounds=max_rounds)
        monkeypatch.setattr(InterproceduralVRP, "_inputs_of", never_matches)
        assert surface("ping_pong", PING_PONG, 0, max_rounds=max_rounds) == skipping

    def test_forced_run_analyses_twice(self, monkeypatch):
        # The reference the skip is measured against: two rounds analyse
        # a call-free function twice.
        monkeypatch.setattr(InterproceduralVRP, "_inputs_of", never_matches)
        assert propagate_count(CALL_FREE) == 2


def propagate_count(source):
    module = compile_source(source)
    infos = prepare_module(module)
    tracer = Tracer()
    with use(tracer):
        VRPPredictor().predict_module(module, infos)
    return tracer.phase_timings()["propagate"].count


class TestWork:
    """One engine run per function when nothing moves between rounds."""

    def test_countdown_propagates_once(self):
        with open(os.path.join(EXAMPLES, "countdown.toy"), encoding="utf-8") as handle:
            assert propagate_count(handle.read()) == 1

    def test_call_free_program_propagates_once(self):
        assert propagate_count(CALL_FREE) == 1
