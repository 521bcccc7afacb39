"""Propagation engine behaviour tests."""

import pytest

from repro.core import VRPConfig
from repro.core.propagation import analyse_function
from repro.core.rangeset import RangeSet

from tests.helpers import analyse, prepare_single


class TestStraightLine:
    def test_constant_chain(self):
        prediction = analyse(
            "func main(n) { var a = 2; var b = a * 3; var c = b + 4; return c; }"
        )
        assert prediction.values["c.0"].constant_value() == 10

    def test_parameter_is_bottom_by_default(self):
        prediction = analyse("func main(n) { var x = n; return x; }")
        assert prediction.values["x.0"].is_bottom

    def test_parameter_range_respected(self):
        prediction = analyse(
            "func main(n) { var x = n + 1; return x; }",
            param_ranges={"n": RangeSet.span(0, 9)},
        )
        hull = prediction.values["x.0"].hull()
        assert (hull.lo.offset, hull.hi.offset) == (1, 10)

    def test_input_is_bottom(self):
        prediction = analyse("func main(n) { var x = input(); return x; }")
        assert prediction.values["x.0"].is_bottom

    def test_load_is_bottom(self):
        prediction = analyse(
            "func main(n) { array a[4]; a[0] = 1; var x = a[0]; return x; }"
        )
        assert prediction.values["x.0"].is_bottom

    def test_return_set_collected(self):
        prediction = analyse("func main(n) { return 42; }")
        assert prediction.return_set.constant_value() == 42


class TestBranches:
    def test_certain_branch_is_one_sided(self):
        prediction = analyse(
            "func main(n) { var x = 5; if (x < 10) { n = 1; } return n; }"
        )
        (probability,) = prediction.branch_probability.values()
        assert probability == pytest.approx(1.0)

    def test_dead_edge_frequency_zero(self):
        prediction = analyse(
            "func main(n) { var x = 5; if (x > 10) { n = 1; } return n; }"
        )
        (label,) = prediction.branch_probability
        branch = prediction.function.block(label).terminator
        assert prediction.edge_frequency[(label, branch.true_target)] == 0.0

    def test_heuristic_fallback_on_bottom(self):
        seen = []

        def heuristic(function, label, cfg, loops):
            seen.append(label)
            return 0.73

        function, info = prepare_single(
            "func main(n) { if (n > 0) { n = 1; } return n; }"
        )
        prediction = analyse_function(function, info, heuristic=heuristic)
        assert seen  # fallback consulted
        (probability,) = prediction.branch_probability.values()
        assert probability == pytest.approx(0.73)
        assert prediction.used_heuristic

    def test_default_probability_without_heuristic(self):
        prediction = analyse("func main(n) { if (n > 0) { n = 1; } return n; }")
        (probability,) = prediction.branch_probability.values()
        assert probability == pytest.approx(0.5)

    def test_probability_of_edge_helper(self):
        prediction = analyse(
            "func main(n) { var t = 0; for (i = 0; i < 4; i = i + 1) { t = t + 1; } return t; }"
        )
        (label,) = prediction.branch_probability
        branch = prediction.function.block(label).terminator
        p_true = prediction.probability_of_edge(label, branch.true_target)
        p_false = prediction.probability_of_edge(label, branch.false_target)
        # Edge frequencies converge within the engine tolerance.
        assert p_true + p_false == pytest.approx(1.0, abs=0.01)
        assert p_true == pytest.approx(4 / 5, abs=0.01)


class TestFrequencies:
    def test_entry_frequency_is_one(self):
        prediction = analyse("func main(n) { return n; }")
        entry = prediction.function.entry_label
        assert prediction.block_frequency[entry] == pytest.approx(1.0)

    def test_loop_frequency_geometric(self):
        prediction = analyse(
            "func main(n) { var t = 0; for (i = 0; i < 9; i = i + 1) { t = t + 1; } return t; }"
        )
        # P(stay) = 9/10 -> header frequency 1/(1-0.9) = 10.
        (label,) = prediction.branch_probability
        assert prediction.block_frequency[label] == pytest.approx(10.0, rel=0.05)

    def test_if_splits_frequency(self):
        prediction = analyse(
            """
            func main(n) {
              var x = 3;
              if (x < 10) { n = n + 1; } else { n = n - 1; }
              return n;
            }
            """
        )
        (label,) = prediction.branch_probability
        branch = prediction.function.block(label).terminator
        assert prediction.edge_frequency[(label, branch.true_target)] == pytest.approx(1.0)


class TestTermination:
    def test_underivable_loop_terminates_via_widening(self):
        prediction = analyse(
            "func main(n) { var x = 1; while (x < 100000) { x = x * 3; } return x; }"
        )
        assert not getattr(prediction, "aborted", False)
        assert prediction.branch_probability

    def test_interlocked_loops_terminate(self):
        prediction = analyse(
            """
            func main(n) {
              var a = 0;
              var b = 100;
              while (a < b) {
                a = a + 3;
                b = b - 2;
              }
              return a + b;
            }
            """
        )
        assert prediction.branch_probability

    def test_counters_linear_in_size(self):
        small = analyse(
            "func main(n) { var t = 0; for (i = 0; i < 10; i = i + 1) { t = t + 1; } return t; }"
        )
        big_source = "func main(n) { var t = 0;" + "".join(
            f"for (i{k} = 0; i{k} < 10; i{k} = i{k} + 1) {{ t = t + 1; }}"
            for k in range(10)
        ) + "return t; }"
        big = analyse(big_source)
        ratio = big.counters.expr_evaluations / small.counters.expr_evaluations
        assert ratio < 30  # ~10x the loops must not explode quadratically


class TestConfigKnobs:
    def test_max_ranges_one_still_sound(self):
        prediction = analyse(
            """
            func main(n) {
              var y = 0;
              for (x = 0; x < 10; x = x + 1) {
                if (x > 7) { y = 1; } else { y = x; }
                if (y == 1) { n = n + 1; }
              }
              return n;
            }
            """,
            config=VRPConfig(max_ranges=1),
        )
        # With one range per variable the 30% branch degrades but stays
        # a valid probability.
        assert 0.0 <= prediction.branch_probability["join7"] <= 1.0

    def test_derivation_disabled_still_correct(self):
        prediction = analyse(
            "func main(n) { var t = 0; for (i = 0; i < 10; i = i + 1) { t = t + 1; } return t; }",
            config=VRPConfig(derive_loops=False),
        )
        (probability,) = prediction.branch_probability.values()
        # Brute-force iteration reaches the same fixed point: 10/11.
        assert probability == pytest.approx(10 / 11, abs=0.02)

    def test_ssa_first_ordering_same_result(self):
        source = (
            "func main(n) { var t = 0; for (i = 0; i < 10; i = i + 1) { t = t + 1; } return t; }"
        )
        flow_first = analyse(source)
        ssa_first = analyse(source, config=VRPConfig(prefer_flow_list=False))
        assert flow_first.branch_probability == pytest.approx(
            ssa_first.branch_probability
        )

    def test_symbolic_disabled_no_symbols_in_values(self):
        prediction = analyse(
            "func main(n) { var t = 0; for (i = 0; i < n; i = i + 1) { t = t + 1; } return t; }",
            config=VRPConfig(symbolic=False),
        )
        for rangeset in prediction.values.values():
            if rangeset.is_set:
                assert not rangeset.symbols()


class TestOscillationFreeze:
    def test_alternating_recurrence_terminates(self):
        # q = 4 - q flips between two values; the probability weights of
        # the merged set never settle, so the phi must freeze.
        prediction = analyse(
            """
            func main(n) {
              var q = 1;
              for (i = 0; i < 100; i = i + 1) {
                q = 4 - q;
              }
              return q;
            }
            """
        )
        assert not prediction.aborted
        assert prediction.branch_probability

    def test_mutually_oscillating_pair_terminates(self):
        prediction = analyse(
            """
            func main(n) {
              var a = 0;
              var b = 10;
              for (i = 0; i < 50; i = i + 1) {
                var t = a;
                a = b;
                b = t;
              }
              return a - b;
            }
            """
        )
        assert not prediction.aborted


class TestDispatch:
    def test_one_entry_per_concrete_instruction_class(self):
        from repro.core import propagation
        from repro.ir.instructions import Instruction

        def subclasses(cls):
            for sub in cls.__subclasses__():
                yield sub
                yield from subclasses(sub)

        # Classes a test defines (like ``Unknown`` below) are not the IR's.
        concrete = {cls for cls in subclasses(Instruction) if cls.__module__.startswith("repro.")}
        assert "BinOp" in {cls.__name__ for cls in concrete}
        assert set(propagation._DISPATCH) == concrete

    def test_unknown_instruction_class_raises(self):
        from repro.core.propagation import PropagationEngine
        from repro.ir.instructions import Instruction

        class Unknown(Instruction):
            __slots__ = ()

        function, info = prepare_single("func main(n) { return n; }")
        engine = PropagationEngine(function, info)
        with pytest.raises(TypeError, match="no transfer function"):
            engine._evaluate(Unknown())
