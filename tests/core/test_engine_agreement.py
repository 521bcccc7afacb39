"""Tracing and the lattice sanitizer only watch the engine.

A plain run, a run under a recording :class:`~repro.observability.tracer.Tracer`
and a ``VRPConfig(sanitize=True)`` run must agree exactly, over the 33
truth programs, a generated leaf/mid/top call-graph module (whose
accumulator loops set large-modules ``tail_ms``) and a loop φ whose set
has no hull (:data:`HULLLESS_PHI`): every branch
probability, edge and block frequency, final range set with its weights
as ``float.hex``, return set, fallback/derived/widened name and counter.
The engine's hooks share its hot path with the dispatch they guard, so
an early return taken only without a hook would show here.

A run whose engine passes no plan record (every set-level miss builds
its set afresh, never replaying a set plan) must agree with the plain
run as well, ``repro ranges`` text included, over the 33 programs.
"""

from __future__ import annotations

import pytest

from benchmarks.ledger.corpus import INSTR_PER_COMPONENT, large_module, truth_corpus
from repro import commands
from repro.core import VRPConfig, VRPPredictor, perf, propagation
from repro.ir import prepare_module
from repro.lang import compile_source
from repro.observability import tracer as tracing

#: Components of the generated call-graph module.
COMPONENTS = 12


def rendered(rangeset):
    if not rangeset.is_set:
        return repr(rangeset)
    return [(str(r), float.hex(r.probability)) for r in rangeset.ranges]


def digest(prediction) -> dict:
    """Everything a run computes, floats as ``float.hex``."""
    out = {"counters": prediction.counters.as_dict(), "rounds": prediction.rounds}
    for name, function in prediction.functions.items():
        out[name] = {
            "branch_probability": {
                label: float.hex(p) for label, p in function.branch_probability.items()
            },
            "edge_frequency": {
                edge: float.hex(f) for edge, f in function.edge_frequency.items()
            },
            "block_frequency": {
                label: float.hex(f) for label, f in function.block_frequency.items()
            },
            "values": {name: rendered(value) for name, value in function.values.items()},
            "return_set": rendered(function.return_set),
            "used_heuristic": sorted(function.used_heuristic),
            "derived": sorted(function.derived),
            "widened": sorted(function.widened),
            "counters": function.counters.as_dict(),
            "aborted": function.aborted,
        }
    return out


def predict(source: str, name: str, config: VRPConfig) -> dict:
    perf.reset()
    module = compile_source(source, module_name=name)
    return digest(VRPPredictor(config=config).predict_module(module, prepare_module(module)))


#: A loop-body φ of 0 and ``k`` refined below ``n``: {[0:0], [-inf:n-1]}
#: has no hull, so every re-evaluation counts toward widening even when
#: the merge returns the very set already stored.  The churning ``i``
#: re-weights its in-edges more than ``widen_after`` times, so ``x.4``
#: ends widened to ⊥.
HULLLESS_PHI = """
func main(n, k) {
  var x = 0;
  var s = 0;
  var i = 1;
  while (i < 100000) {
    if (k < n) { x = k; } else { x = 0; }
    s = s + x;
    i = i * 2 + 1;
  }
  return s;
}
"""

PROGRAMS = [(program.name, program.source) for program in truth_corpus()] + [
    ("callgraph", large_module(11, 1, COMPONENTS * INSTR_PER_COMPONENT, "callgraph")),
    ("hullless_phi", HULLLESS_PHI),
]
assert PROGRAMS[-2][1].count("func top_") == COMPONENTS >= 10


@pytest.mark.parametrize("name,source", PROGRAMS, ids=[name for name, _ in PROGRAMS])
def test_plain_traced_and_sanitized_runs_agree(name, source):
    plain = predict(source, name, VRPConfig())
    tracer = tracing.Tracer()
    with tracing.use(tracer):
        traced = predict(source, name, VRPConfig())
    sanitized = predict(source, name, VRPConfig(sanitize=True))
    assert tracer.events  # the hooks ran
    assert traced == plain
    assert sanitized == plain


def test_a_hullless_phi_merged_unchanged_still_widens():
    main = predict(HULLLESS_PHI, "hullless_phi", VRPConfig())["main"]
    assert main["widened"] == ["i.1", "x.4"]
    assert main["values"]["x.4"] == "RangeSet.bottom()"


@pytest.mark.parametrize(
    "name,source", PROGRAMS[:-2], ids=[name for name, _ in PROGRAMS[:-2]]
)
def test_a_run_without_plan_records_agrees(name, source, monkeypatch):
    def run():
        prediction = predict(source, name, VRPConfig())
        perf.reset()
        return prediction, commands.execute("ranges", source, name, {}).output

    plain = run()
    asked = []
    # The engine's record factory now hands out None: no plan is kept.
    monkeypatch.setattr(propagation, "PlanRecord", lambda: asked.append(1))
    assert run() == plain
    assert asked
