"""90/50 rule, random predictor, and Dempster-Shafer combination tests."""

import pytest

from benchmarks.ledger.corpus import INSTR_PER_COMPONENT, large_module
from repro.analysis.loops import LoopInfo
from repro.core import VRPConfig, VRPPredictor, perf
from repro.heuristics.combine import dempster_shafer
from repro.heuristics.random_pred import RandomPredictor
from repro.heuristics.rule9050 import Rule9050Predictor

from repro.ir import prepare_module
from repro.ir.cfg import CFG
from repro.lang import compile_source
from tests.helpers import prepare_single


class TestRule9050:
    def test_forward_branch_gets_half(self):
        function, _ = prepare_single(
            "func main(n) { if (n > 0) { n = 1; } return n; }"
        )
        (probability,) = Rule9050Predictor().predict_function(function).values()
        assert probability == pytest.approx(0.5)

    def test_do_while_latch_gets_ninety(self):
        function, _ = prepare_single(
            "func main(n) { var t = 0; do { t = t + 1; } while (t < 10); return t; }"
        )
        (probability,) = Rule9050Predictor().predict_function(function).values()
        assert probability == pytest.approx(0.9)

    def test_while_header_is_forward(self):
        # Rotated loops put the conditional at the top: both edges are
        # forward, so the rule says 50% -- the paper's "50 part" weakness.
        function, _ = prepare_single(
            "func main(n) { var t = 0; while (t < 10) { t = t + 1; } return t; }"
        )
        (probability,) = Rule9050Predictor().predict_function(function).values()
        assert probability == pytest.approx(0.5)

    def test_custom_backward_probability(self):
        function, _ = prepare_single(
            "func main(n) { var t = 0; do { t = t + 1; } while (t < 10); return t; }"
        )
        predictor = Rule9050Predictor(backward_probability=0.95)
        (probability,) = predictor.predict_function(function).values()
        assert probability == pytest.approx(0.95)


class TestRandomPredictor:
    def test_deterministic_per_seed(self):
        function, _ = prepare_single(
            "func main(n) { if (n > 0) { n = 1; } return n; }"
        )
        a = RandomPredictor(seed=1).predict_function(function)
        b = RandomPredictor(seed=1).predict_function(function)
        assert a == b

    def test_different_seeds_differ(self):
        function, _ = prepare_single(
            "func main(n) { if (n > 0) { n = 1; } return n; }"
        )
        a = RandomPredictor(seed=1).predict_function(function)
        b = RandomPredictor(seed=2).predict_function(function)
        assert a != b

    def test_values_in_unit_interval(self):
        function, _ = prepare_single(
            """
            func main(n) {
              if (n > 0) { n = 1; }
              if (n > 1) { n = 2; }
              if (n > 2) { n = 3; }
              return n;
            }
            """
        )
        for probability in RandomPredictor().predict_function(function).values():
            assert 0.0 <= probability <= 1.0


class TestDempsterShafer:
    def test_neutral_element(self):
        assert dempster_shafer([]) == pytest.approx(0.5)
        assert dempster_shafer([0.5, 0.5, 0.5]) == pytest.approx(0.5)

    def test_agreeing_evidence_strengthens(self):
        assert dempster_shafer([0.8, 0.8]) > 0.8

    def test_exact_two_source_formula(self):
        p = dempster_shafer([0.8, 0.7])
        expected = (0.8 * 0.7) / (0.8 * 0.7 + 0.2 * 0.3)
        assert p == pytest.approx(expected)

    def test_complementary_evidence_cancels(self):
        assert dempster_shafer([0.8, 0.2]) == pytest.approx(0.5)

    def test_order_independent(self):
        values = [0.9, 0.3, 0.6, 0.75]
        assert dempster_shafer(values) == pytest.approx(
            dempster_shafer(list(reversed(values)))
        )

    def test_extremes_clamped_not_crashed(self):
        assert 0.0 < dempster_shafer([1.0, 0.9]) <= 1.0
        assert 0.0 <= dempster_shafer([0.0, 0.1]) < 1.0


class TestFallbackAdapter:
    def test_as_fallback_caches_per_function(self):
        function, _ = prepare_single(
            "func main(n) { if (n > 0) { n = 1; } return n; }"
        )
        predictor = Rule9050Predictor()
        fallback = predictor.as_fallback()
        (label,) = predictor.predict_function(function)
        assert fallback(function, label) == pytest.approx(0.5)
        assert fallback(function, "no_such_label") == pytest.approx(0.5)

    def test_predict_module_builds_one_cfg_and_loop_info_per_function(self, monkeypatch):
        """The Ball-Larus fallback reads the CFG and loops the engine
        built for the function, rather than building its own."""
        source = large_module(11, 1, 12 * INSTR_PER_COMPONENT, "callgraph")
        module = compile_source(source, module_name="callgraph")
        infos = prepare_module(module)
        built = {"CFG": 0, "LoopInfo": 0}
        for cls in (CFG, LoopInfo):

            def counting(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
                built[_name] += 1
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting)
        perf.reset()
        prediction = VRPPredictor(config=VRPConfig()).predict_module(module, infos)
        assert prediction.counters.heuristic_fallbacks > 0
        functions = len(module.functions)
        assert built == {"CFG": functions, "LoopInfo": functions}
