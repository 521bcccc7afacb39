"""Interning (hash-consing) invariants of the perf layer.

The contract under test: ``intern(x) is intern(y)`` exactly when
``x == y`` -- including the ⊤/⊥ singletons and symbolic bounds -- and
bounded caches may evict at any time without changing any result.
Equal sets render alike because a finite bound offset is always an
``int``: a float or bool one is rejected where the bound is made.
"""

import glob
import os

import pytest

from repro.core import perf, rangeset as rangeset_mod
from repro.core.bounds import Bound
from repro.core.config import VRPConfig
from repro.core.perf import memo
from repro.core.predictor import VRPPredictor
from repro.core.ranges import StridedRange
from repro.core.rangeset import BOTTOM, RangeSet, TOP, intern_rangeset, merge_weighted
from repro.ir import prepare_module
from repro.lang import compile_source
from repro.workloads import suite
from tests.helpers import shrink_caches

EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "..", "examples")

#: Exercises unary negation, which no shipped program uses.
NEGATION = """
func main(n) {
  var acc = 0;
  for (i = 0; i < 12; i = i + 1) {
    var d = -i;
    if (d < -5) { acc = acc + 1; }
    if (-acc > 3) { acc = acc - 1; }
  }
  return -acc;
}
"""


@pytest.fixture(autouse=True)
def fresh_tables():
    perf.reset()
    yield
    perf.reset()


@pytest.fixture
def tiny_caches(monkeypatch):
    """Every bounded LRU of the analysis capped at two entries."""
    shrink_caches(monkeypatch)


def make_rangesets():
    return [
        RangeSet.top(),
        RangeSet.bottom(),
        RangeSet.constant(3),
        RangeSet.constant(4),
        RangeSet.boolean(0.25),
        RangeSet.from_ranges([StridedRange(1.0, Bound(0), Bound(9), 1)]),
        RangeSet.from_ranges(
            [StridedRange(1.0, Bound(0), Bound.symbolic("k"), 1)]
        ),
        RangeSet.from_ranges(
            [
                StridedRange(0.5, Bound(0), Bound(4), 1),
                StridedRange(0.5, Bound(10), Bound(14), 1),
            ]
        ),
    ]


def constant_sets(count):
    return [RangeSet.constant(value) for value in range(count)]


def neutrality_corpus():
    """``(name, source)`` for examples/*.toy, the 27-workload suite, and
    a unary-negation program."""
    corpus = []
    for path in sorted(glob.glob(os.path.join(EXAMPLES, "*.toy"))):
        with open(path, encoding="utf-8") as handle:
            corpus.append((os.path.basename(path), handle.read()))
    for workload in suite("int") + suite("fp"):
        corpus.append((workload.name, workload.source))
    corpus.append(("negation", NEGATION))
    return corpus


class TestIdentityIffEquality:
    """intern(x) is intern(y)  <=>  x == y."""

    def test_rangesets(self):
        for a in make_rangesets():
            for b in make_rangesets():
                identical = intern_rangeset(a) is intern_rangeset(b)
                assert identical == (a == b and str(a) == str(b)), (a, b)

    def test_a_finite_non_int_offset_is_rejected(self):
        # So no set can hold a 1.0 that equals, but renders apart from, 1.
        builds = [
            lambda: Bound(1.0),
            lambda: Bound(True),
            lambda: Bound(0.5, "n"),
            lambda: RangeSet.constant(1.0),
            lambda: StridedRange.span(1.0, 0.0, 9.0),
        ]
        for build in builds:
            with pytest.raises(ValueError, match="must be an int"):
                build()

    def test_top_bottom_intern_to_module_singletons(self):
        assert intern_rangeset(RangeSet.top()) is TOP
        assert intern_rangeset(RangeSet.bottom()) is BOTTOM


def rendered_afresh(rangeset):
    """``str(rangeset)`` made from its ranges, without the kept text."""
    if rangeset.is_top:
        return "T"
    if rangeset.is_bottom:
        return "_|_"
    return "{ " + ", ".join(str(r) for r in rangeset.ranges) + " }"


class TestRenderedText:
    """A set makes its text once; the text is always the set's own."""

    def test_two_constants_render_apart_in_either_order(self):
        for order in [(1, 2), (2, 1)]:
            perf.reset()
            texts = [str(RangeSet.constant(value)) for value in order * 2]
            assert texts == [f"{{ 1[{value}:{value}:0] }}" for value in order * 2]
            assert texts[0] != texts[1]

    def test_the_text_is_made_once(self):
        for rangeset in make_rangesets():
            assert str(rangeset) is str(rangeset)

    def test_builder_and_merge_results_render_as_fresh(self):
        one, two = RangeSet.constant(1), RangeSet.constant(2)
        results = [
            merge_weighted([(0.25, one), (0.75, two)]),
            merge_weighted([(0.75, RangeSet.constant(3)), (0.25, two)]),
            merge_weighted([(0.5, one), (0.5, TOP)]),
            merge_weighted([(0.5, one), (0.5, BOTTOM)]),
        ] + make_rangesets()
        for name, source in neutrality_corpus()[:6]:
            module = compile_source(source, module_name=name)
            prediction = VRPPredictor().predict_module(module, prepare_module(module))
            for function in prediction.functions.values():
                results.extend(function.values.values())
        for rangeset in results:
            assert str(rangeset) == rendered_afresh(rangeset), rangeset
            assert str(rangeset) == rendered_afresh(rangeset), rangeset


class TestEviction:
    """Bounded caches: eviction loses identity, never correctness."""

    def test_tables_respect_capacity(self, monkeypatch):
        monkeypatch.setattr(rangeset_mod._RANGESETS, "capacity", 4)
        for rangeset in constant_sets(100):
            intern_rangeset(rangeset)
        assert len(rangeset_mod._RANGESETS) <= 4

    def test_evicted_values_still_compare_equal(self, tiny_caches):
        originals = [intern_rangeset(r) for r in constant_sets(50)]
        # constant(0) has long been evicted: a re-intern returns a *new*
        # canonical object that is still structurally equal.
        again = intern_rangeset(RangeSet.constant(0))
        assert again is not originals[0]
        assert again == originals[0]

    def test_tiny_tables_do_not_change_predictions(self, monkeypatch):
        corpus = neutrality_corpus()
        assert len(corpus) == 2 + 27 + 1
        prepared = []
        for name, source in corpus:
            module = compile_source(source, module_name=name)
            prepared.append((name, module, prepare_module(module)))

        def run(module, infos):
            return VRPPredictor(config=VRPConfig()).predict_module(module, infos)

        reference = {name: run(module, infos) for name, module, infos in prepared}
        differing = []
        evictions = 0
        for name, module, infos in prepared:
            shrink_caches(monkeypatch)  # cold, two-entry tables per program
            tiny = run(module, infos)
            if (
                tiny.all_branches() != reference[name].all_branches()
                or tiny.counters.as_dict() != reference[name].counters.as_dict()
            ):
                differing.append(name)
            evictions += sum(cache.record.evictions for cache in memo._ALL_CACHES)
        assert differing == []
        assert evictions > 0


class TestSanitizerRoundTrip:
    """Interned (canonical) lattice values pass the engine sanitizer."""

    def test_sanitized_run_with_perf_layer(self, monkeypatch):
        source = """
        func main(n) {
          var total = 0;
          for (i = 0; i < 25; i = i + 1) {
            if (i < n) { total = total + i; }
          }
          return total;
        }
        """
        module = compile_source(source)
        infos = prepare_module(module)
        checked = VRPPredictor(config=VRPConfig(sanitize=True)).predict_module(
            module, infos
        )
        shrink_caches(monkeypatch)
        plain = VRPPredictor(config=VRPConfig()).predict_module(module, infos)
        assert checked.all_branches() == plain.all_branches()
