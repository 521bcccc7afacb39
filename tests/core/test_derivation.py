"""Loop-carried derivation tests (paper §3.6 templates)."""

import pytest

from repro.core.ranges import StridedRange
from repro.core.rangeset import RangeSet
from repro.core.propagation import analyse_function
from repro.ir import prepare_for_analysis
from repro.lang import compile_source

from tests.helpers import analyse, prepare_single


def loop_phi_range(prediction, variable):
    """The range of the loop-header phi for a source variable."""
    candidates = {
        name: rangeset
        for name, rangeset in prediction.values.items()
        if name.startswith(variable + ".")
    }
    # The header phi is the version with the widest range; pick version 1
    # (entry def is .0, header phi is .1 by construction order).
    return candidates[f"{variable}.1"]


def extent(rangeset):
    assert rangeset.is_set and len(rangeset.ranges) == 1
    r = rangeset.ranges[0]
    return str(r.lo), str(r.hi), r.stride


class TestForLoopTemplates:
    def test_canonical_count_up(self):
        prediction = analyse(
            "func main(n) { var t = 0; for (i = 0; i < 10; i = i + 1) { t = t + 1; } return t; }"
        )
        assert extent(loop_phi_range(prediction, "i")) == ("0", "10", 1)

    def test_le_bound(self):
        prediction = analyse(
            "func main(n) { var t = 0; for (i = 0; i <= 10; i = i + 1) { t = t + 1; } return t; }"
        )
        assert extent(loop_phi_range(prediction, "i")) == ("0", "11", 1)

    def test_stride_two(self):
        prediction = analyse(
            "func main(n) { var t = 0; for (i = 0; i < 10; i = i + 2) { t = t + 1; } return t; }"
        )
        assert extent(loop_phi_range(prediction, "i")) == ("0", "10", 2)

    def test_count_down(self):
        prediction = analyse(
            "func main(n) { var t = 0; for (i = 10; i > 0; i = i - 1) { t = t + 1; } return t; }"
        )
        assert extent(loop_phi_range(prediction, "i")) == ("0", "10", 1)

    def test_count_down_with_ge(self):
        prediction = analyse(
            "func main(n) { var t = 0; for (i = 10; i >= 0; i = i - 2) { t = t + 1; } return t; }"
        )
        assert extent(loop_phi_range(prediction, "i")) == ("-2", "10", 2)

    def test_ne_termination(self):
        prediction = analyse(
            "func main(n) { var i = 0; while (i != 8) { i = i + 1; } return i; }"
        )
        assert extent(loop_phi_range(prediction, "i")) == ("0", "8", 1)

    def test_nonzero_start(self):
        prediction = analyse(
            "func main(n) { var t = 0; for (i = 5; i < 50; i = i + 5) { t = t + 1; } return t; }"
        )
        # Limit is 49 + 5 = 54, snapped down to the progression point 50.
        assert extent(loop_phi_range(prediction, "i")) == ("5", "50", 5)


class TestWhileAndDoWhile:
    def test_do_while_asserts_after_increment(self):
        # Increment happens before the latch test: values stop at the bound.
        prediction = analyse(
            "func main(n) { var i = 0; do { i = i + 1; } while (i < 10); return i; }"
        )
        # The body phi sees 0..9 (the header is the body here).
        versions = [
            rangeset
            for name, rangeset in prediction.values.items()
            if name.startswith("i.") and rangeset.is_set
        ]
        hulls = [extent(v) for v in versions if len(v.ranges) == 1]
        assert ("0", "9", 1) in hulls  # the loop phi

    def test_multiple_increment_paths(self):
        prediction = analyse(
            """
            func main(n) {
              var t = 0;
              for (i = 0; i < 20; i = i + 1) {
                if (t > 5) { i = i + 2; }
                t = t + 1;
              }
              return i;
            }
            """
        )
        lo, hi, stride = extent(loop_phi_range(prediction, "i"))
        assert lo == "0"
        assert hi == "22"  # worst path: asserted <=19 then +3
        assert stride == 1  # gcd(1, 3)


class TestPhase:
    def test_initial_values_of_two_phases_keep_every_value(self):
        # i starts at 0 or 1: stepping by 3 from both reaches 10 (n > 0).
        prediction = analyse(
            "func main(n) { var i = 0; if (n > 0) { i = 1; } "
            "while (i < 10) { i = i + 3; } return i; }"
        )
        assert extent(prediction.values["i.3"]) == ("0", "12", 1)

    @pytest.mark.parametrize(
        "init,expected", [(-3, ("-3", "0", 3)), (-1, ("-1", "+inf", 3))]
    )
    def test_inequality_limits_only_on_its_phase(self, init, expected):
        # From -1, steps of 3 jump past 0: `acc != 0` never stops them.
        prediction = analyse(
            f"func main(n) {{ var acc = {init}; "
            "for (k = 0; k < n; k = k + 1) { if (acc != 0) { acc = acc + 3; } } "
            "return acc; }"
        )
        assert extent(prediction.values["acc.1"]) == expected


class TestSymbolicBounds:
    def test_symbolic_limit_from_parameter(self):
        prediction = analyse(
            "func main(n) { var t = 0; for (i = 0; i < n; i = i + 1) { t = t + 1; } return t; }"
        )
        rangeset = loop_phi_range(prediction, "i")
        lo, hi, stride = extent(rangeset)
        assert lo == "0"
        assert stride == 1
        assert hi.startswith("n.")  # [0 : n]

    def test_constant_parameter_resolves(self):
        prediction = analyse(
            "func main(n) { var t = 0; for (i = 0; i < n; i = i + 1) { t = t + 1; } return t; }",
            param_ranges={"n": RangeSet.constant(100)},
        )
        assert prediction.branch_probability  # loop branch present
        # P(i < 100 | i in [0:100]) = 100/101.
        (probability,) = [
            p for label, p in prediction.branch_probability.items()
        ]
        assert probability == pytest.approx(100 / 101)


class TestFailureModes:
    def test_geometric_sequence_fails_derivation(self):
        # x = x * 2 is out of template; brute force + widening takes over.
        prediction = analyse(
            "func main(n) { var x = 1; while (x < 1000) { x = x * 2; } return x; }"
        )
        assert prediction.counters.derivations_attempted >= 1
        # The loop phi is not a clean derived range but analysis terminated.
        assert prediction.branch_probability

    def test_copy_back_phi_is_initial_value(self):
        prediction = analyse(
            """
            func main(n) {
              var limit = 100;
              var t = 0;
              for (i = 0; i < limit; i = i + 1) { t = t + 1; }
              return limit;
            }
            """
        )
        # limit is re-merged each iteration unchanged: derived as {100}.
        limit_versions = {
            name: rangeset
            for name, rangeset in prediction.values.items()
            if name.startswith("limit.")
        }
        assert all(
            rangeset.constant_value() == 100 for rangeset in limit_versions.values()
        )

    def test_data_dependent_step_fails(self):
        prediction = analyse(
            """
            func main(n) {
              var t = 0;
              for (i = 0; i < 100; i = i + n) { t = t + 1; }
              return t;
            }
            """
        )
        # Step is a parameter: not a constant template; must still terminate.
        assert prediction.branch_probability

    def test_nested_loop_outer_derives_through_inner(self):
        prediction = analyse(
            """
            func main(n) {
              var t = 0;
              for (i = 0; i < 12; i = i + 1) {
                for (j = 0; j < 6; j = j + 1) { t = t + 1; }
              }
              return t;
            }
            """
        )
        assert extent(loop_phi_range(prediction, "i")) == ("0", "12", 1)
        # Inner loop branch is exact: P(j < 6) = 6/7.
        probabilities = sorted(prediction.branch_probability.values())
        assert probabilities[0] == pytest.approx(6 / 7)
        assert probabilities[1] == pytest.approx(12 / 13)

    def test_outer_variable_incremented_in_inner_loop_fails(self):
        # i moves inside the inner loop a data-dependent number of times.
        prediction = analyse(
            """
            func main(n) {
              var i = 0;
              while (i < 100) {
                var j = 0;
                while (j < n) { i = i + 1; j = j + 1; }
                i = i + 1;
              }
              return i;
            }
            """
        )
        assert prediction.branch_probability  # no hang, heuristics allowed


# ---------------------------------------------------------------------------
# set-valued steps: new = old +/- {set of possible increments}
# ---------------------------------------------------------------------------

#: ``f`` returns one of three values picked by its argument: each family
#: below draws them from one sign (or from both).
SET_HELPER = """
func f(x) {{
  var r = x % 3;
  if (r == 0) {{ return {0}; }}
  if (r == 1) {{ return {1}; }}
  return {2};
}}
"""


def analyse_module_source(source, **config):
    from repro.core import VRPConfig, VRPPredictor
    from repro.ir import prepare_module

    module = compile_source(source)
    return VRPPredictor(config=VRPConfig(**config)).predict_module(
        module, prepare_module(module)
    )


def accumulate_source(values, body, bound="n", op="+", init=0):
    """``main`` accumulating over ``k < bound`` (``s`` starts at 1)."""
    return SET_HELPER.format(*values) + (
        f"func main(n) {{ var acc = {init}; var s = 1; "
        f"for (k = 0; k < {bound}; k = k + 1) {{ {body.format(op=op)} }} "
        f"return acc + s; }}"
    )


def accumulate(values, body, bound="n", op="+", init=0, **config):
    """main's prediction for :func:`accumulate_source`."""
    source = accumulate_source(values, body, bound, op, init)
    return analyse_module_source(source, **config).functions["main"]


def last_attempt(values, body, **config):
    """main's last derivation attempt on ``acc.1``: (status, detail)."""
    return derivation_attempts(accumulate_source(values, body), "main", "acc.1", **config)[-1]


def derivation_attempts(source, function, name, **config):
    """(status, detail) of every derivation attempt on ``function``/``name``."""
    from repro.observability import DerivationAttempt
    from repro.observability import tracer as tracing

    recorder = tracing.Tracer()
    with tracing.use(recorder):
        analyse_module_source(source, **config)
    return [
        (event.status, event.detail)
        for event in recorder.events_of(DerivationAttempt)
        if event.function == function and event.name == name
    ]


class TestSetSteps:
    def test_non_negative_call_step_derives_with_its_stride(self):
        main = accumulate((3, 6, 9), "acc = acc {op} f(k);")
        assert "acc.1" in main.derived
        assert extent(main.values["acc.1"]) == ("0", "+inf", 3)

    def test_non_positive_call_step_derives_decreasing(self):
        main = accumulate((0, -2, -4), "acc = acc {op} f(k);", init=5)
        assert "acc.1" in main.derived
        assert extent(main.values["acc.1"]) == ("-inf", "5", 2)

    def test_subtracting_a_non_negative_step_derives_decreasing(self):
        main = accumulate((1, 2, 3), "acc = acc {op} f(k);", op="-")
        assert "acc.1" in main.derived
        assert extent(main.values["acc.1"]) == ("-inf", "0", 1)

    def test_mixed_sign_step_never_derives(self):
        assert last_attempt((-1, 0, 2), "acc = acc {op} f(k);") == (
            "failed",
            "step call$1.0 has no fixed sign",
        )

    def test_loop_variant_step_never_derives(self):
        # s.2 is computed from s.1, a loop phi out of the template.
        assert last_attempt((1, 2, 3), "s = (s * 3 + 1) % 7; acc = acc {op} s;") == (
            "failed",
            "step s.2 reads the phi s.1, not derived on its first visit",
        )

    def test_input_step_never_derives(self):
        assert last_attempt((1, 2, 3), "acc = acc {op} input() % 4;") == (
            "failed",
            "step t$2.0 reads in$1.0 (input)",
        )

    def test_bottom_step_never_derives(self):
        # Intraprocedurally a call is ⊥.
        prediction = analyse(
            "func main(n) { var acc = 0; "
            "for (i = 0; i < 10; i = i + 1) { acc = acc + main(i); } return acc; }"
        )
        assert "acc.1" not in prediction.derived

    def test_assertion_on_the_accumulator_limits_it(self):
        # acc < 50 holds before the step: acc <= 49 + 9, snapped to 57.
        main = accumulate((3, 6, 9), "if (acc < 50) {{ acc = acc {op} f(k); }}")
        assert "acc.1" in main.derived
        assert extent(main.values["acc.1"]) == ("0", "57", 3)

    def test_inequality_never_limits_a_set_step(self):
        # A step of 3, 6 or 9 can jump past 10: `acc != 10` is no limit.
        main = accumulate((3, 6, 9), "if (acc != 10) {{ acc = acc {op} f(k); }}")
        assert "acc.1" in main.derived
        assert extent(main.values["acc.1"]) == ("0", "+inf", 3)

    def test_constant_trip_bound(self):
        main = accumulate((3, 6, 9), "acc = acc {op} f(k);", bound=4)
        assert "acc.1" in main.derived
        assert extent(main.values["acc.1"]) == ("0", "+inf", 3)

    def test_loop_index_step_derives_intraprocedurally(self):
        prediction = analyse(
            "func main(n) { var acc = 0; "
            "for (i = 0; i < 10; i = i + 1) { acc = acc + i; } return acc; }"
        )
        assert "acc.1" in prediction.derived
        assert extent(prediction.values["acc.1"]) == ("0", "+inf", 1)

    def test_context_sensitive_calls_need_final_arguments(self):
        # Under --context-depth 1 the call reads k.3, which reads the
        # non-derived n.1 (the bound n is bottom): the step is not final.
        assert last_attempt((3, 6, 9), "acc = acc {op} f(k);", context_depth=1) == (
            "failed",
            "step call$1.0 reads the phi n.1, not derived on its first visit",
        )


#: The accumulator loop of a large-modules call-graph component.
TOP_SHAPE = SET_HELPER.format(3, 6, 9) + """
func top(n) {
  var acc = 0;
  for (k = 0; k < n; k = k + 1) { acc = acc + f(k); }
  if (acc > 100) { return acc; }
  return 0 - acc;
}
func main(n) { return top(n); }
"""


class TestTopShapeDetail:
    """``t = add acc.1, call`` must never read ``acc.1`` as the step."""

    def _attempt(self, call_value, acc_value):
        """One derivation of ``acc.1`` with the call and ``acc.1`` at the
        given values; returns (the call's name, the outcome)."""
        from repro.core.derivation import derive_loop_phi
        from repro.ir import CFG, Call, Constant, build_ssa_edges, prepare_module

        module = compile_source(TOP_SHAPE)
        info = prepare_module(module)["top"]
        function = module.function("top")
        (phi,) = [
            phi
            for block in function.blocks.values()
            for phi in block.phis()
            if phi.dest.name == "acc.1"
        ]
        (call,) = [
            instr.dest.name for instr in function.instructions() if isinstance(instr, Call)
        ]
        values = {"acc.0": RangeSet.constant(0), "acc.1": acc_value, call: call_value}

        def value_of(name):
            return values.get(name, RangeSet.top())

        def constant_of(value):
            if isinstance(value, Constant):
                return value.value
            return value_of(value.name).constant_value()

        cfg = CFG(function)
        back = {
            pred for pred, _ in phi.incomings if cfg.is_back_edge(pred, phi.block.label)
        }
        edges = build_ssa_edges(function, info)
        return call, derive_loop_phi(phi, back, edges, value_of, constant_of)

    def test_before_the_summary_is_known(self):
        # First lap: acc.1 is the single constant 0, the call still ⊤.
        call, outcome = self._attempt(RangeSet.top(), RangeSet.constant(0))
        assert (outcome.status, outcome.detail) == (
            "not_ready",
            f"step {call} still unknown (top)",
        )
        assert outcome.waiting_on == call

    def test_after_the_summary_is_known(self):
        summary = RangeSet.from_ranges(
            [StridedRange.single(1 / 3, v) for v in (3, 6, 9)], max_ranges=4
        )
        call, outcome = self._attempt(summary, RangeSet.constant(0))
        assert (outcome.status, outcome.detail) == (
            "derived",
            "increasing induction, steps [[3:9]], stride 3",
        )
        assert str(outcome.rangeset) == "{ 1[0:+inf:3] }"

    def test_bottom_summary(self):
        call, outcome = self._attempt(RangeSet.bottom(), RangeSet.constant(0))
        assert (outcome.status, outcome.detail) == ("failed", f"step {call} is bottom")

    def test_engine_derives_on_the_first_attempt(self):
        attempts = derivation_attempts(TOP_SHAPE, "top", "acc.1")
        assert attempts == [("derived", "increasing induction, steps [[3:9]], stride 3")]
